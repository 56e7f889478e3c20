#include "rangesearch/kd_tree_index.h"

#include <algorithm>
#include <utility>

#include "geom/predicates.h"
#include "rangesearch/tri_box.h"
#include "util/thread_pool.h"

namespace geosir::rangesearch {

using geom::BoundingBox;
using geom::Point;
using geom::Triangle;
using Overlap = PreparedTriangle::Overlap;

namespace {

/// Nodes at or above this many points are split level by level across the
/// shared pool; smaller subtrees are built whole, one per pool item.
constexpr uint32_t kParallelBuildPoints = 1u << 14;

/// Deeper than any tree over 2^32 points: bounds the explicit stacks of
/// the depth-first build and query walks.
constexpr int kMaxDepth = 64;

/// {nodes(m), nodes(m + 1)}, where nodes(s) counts the preorder nodes of
/// a subtree over s points. Halves of m and m + 1 lie in {m/2, m/2 + 1},
/// so one recursion per level covers both.
std::pair<uint32_t, uint32_t> SubtreeNodePair(uint32_t m, size_t leaf) {
  if (m + 1 <= leaf) return {1, 1};
  const uint32_t h = m / 2;
  const auto [nodes_h, nodes_h1] = SubtreeNodePair(h, leaf);
  const auto nodes = [&](uint32_t s) -> uint32_t {
    if (s <= leaf) return 1;
    return 1 + (s / 2 == h ? nodes_h : nodes_h1) +
           (s - s / 2 == h ? nodes_h : nodes_h1);
  };
  return {nodes(m), nodes(m + 1)};
}

uint32_t SubtreeNodes(uint32_t num_points, size_t leaf) {
  return SubtreeNodePair(num_points, leaf).first;
}

}  // namespace

void KdTreeIndex::Build(std::vector<IndexedPoint> points) {
  points_ = std::move(points);
  nodes_.clear();
  root_ = -1;
  if (points_.empty()) return;
  const uint32_t n = static_cast<uint32_t>(points_.size());
  nodes_.resize(SubtreeNodes(n, leaf_size_));
  root_ = 0;

  // Disjoint subtrees touch disjoint point slices and node slots, so they
  // split concurrently into the serial build's exact arrays. Large nodes
  // split level by level; the rest build whole, one subtree per item.
  util::ThreadPool& pool = util::ThreadPool::Shared();
  std::vector<BuildTask> level{BuildTask{0, 0, n, 0}};
  std::vector<BuildTask> wide;      // This level's nodes to split.
  std::vector<BuildTask> split;     // Every node split level by level.
  std::vector<BuildTask> subtrees;  // Roots built whole.
  while (!level.empty()) {
    wide.clear();
    for (const BuildTask& task : level) {
      const uint32_t size = task.end - task.begin;
      (size >= kParallelBuildPoints && size > leaf_size_ ? wide : subtrees)
          .push_back(task);
    }
    level.assign(2 * wide.size(), BuildTask{});
    pool.ParallelFor(wide.size(), 0, [&](size_t, size_t i) {
      Split(wide[i], &level[2 * i]);
    });
    split.insert(split.end(), wide.begin(), wide.end());
  }
  pool.ParallelFor(subtrees.size(), 0, [&](size_t, size_t i) {
    BuildSubtree(subtrees[i]);
  });
  // Deeper levels come later in `split`: children before parents.
  for (auto it = split.rbegin(); it != split.rend(); ++it) {
    Node& node = nodes_[it->id];
    node.bounds = nodes_[node.left].bounds;
    node.bounds.Extend(nodes_[node.right].bounds);
  }
}

void KdTreeIndex::Split(const BuildTask& task, BuildTask children[2]) {
  const uint32_t mid = task.begin + (task.end - task.begin) / 2;
  const auto first = points_.begin() + task.begin;
  if (task.depth % 2 == 0) {
    std::nth_element(first, points_.begin() + mid, points_.begin() + task.end,
                     [](const IndexedPoint& a, const IndexedPoint& b) {
                       return a.p.x < b.p.x;
                     });
  } else {
    std::nth_element(first, points_.begin() + mid, points_.begin() + task.end,
                     [](const IndexedPoint& a, const IndexedPoint& b) {
                       return a.p.y < b.p.y;
                     });
  }
  const int32_t left = task.id + 1;
  const int32_t right =
      left + static_cast<int32_t>(SubtreeNodes(mid - task.begin, leaf_size_));
  Node& node = nodes_[task.id];
  node.begin = task.begin;
  node.end = task.end;
  node.left = left;
  node.right = right;
  children[0] = BuildTask{left, task.begin, mid, task.depth + 1};
  children[1] = BuildTask{right, mid, task.end, task.depth + 1};
}

void KdTreeIndex::BuildSubtree(const BuildTask& root) {
  // Depth-first, one pending right sibling per level: no allocation on
  // the pool's worker threads.
  BuildTask stack[kMaxDepth];
  int top = 0;
  stack[top++] = root;
  while (top > 0) {
    const BuildTask task = stack[--top];
    if (task.end - task.begin <= leaf_size_) {
      Node& leaf = nodes_[task.id];
      leaf.begin = task.begin;
      leaf.end = task.end;
      for (uint32_t i = task.begin; i < task.end; ++i) {
        leaf.bounds.Extend(points_[i].p);
      }
      continue;
    }
    Split(task, &stack[top]);
    std::swap(stack[top], stack[top + 1]);  // Left child on top.
    top += 2;
  }
  // Preorder puts children after their parent: fold bounds upwards.
  const int32_t last =
      root.id + static_cast<int32_t>(SubtreeNodes(root.end - root.begin,
                                                  leaf_size_)) - 1;
  for (int32_t id = last; id >= root.id; --id) {
    Node& node = nodes_[id];
    if (node.left < 0) continue;
    node.bounds = nodes_[node.left].bounds;
    node.bounds.Extend(nodes_[node.right].bounds);
  }
}

template <typename Classify, typename ContainsPoint>
size_t KdTreeIndex::Query(const Classify& classify,
                          const ContainsPoint& contains,
                          const Visitor* visit) const {
  if (root_ < 0) return 0;
  StatsTally tally(&stats_);
  // Preorder, left child first: reports come out in points_ order.
  int32_t stack[kMaxDepth];
  int top = 0;
  stack[top++] = root_;
  while (top > 0) {
    const Node& n = nodes_[stack[--top]];
    ++tally.nodes_visited;
    const Overlap overlap = classify(n.bounds);
    if (overlap == Overlap::kDisjoint) continue;
    if (overlap == Overlap::kContained) {
      tally.points_reported += n.end - n.begin;
      if (visit != nullptr) {
        for (uint32_t i = n.begin; i < n.end; ++i) (*visit)(points_[i]);
      }
      continue;
    }
    if (n.left < 0) {  // Leaf: test points individually.
      tally.points_tested += n.end - n.begin;
      for (uint32_t i = n.begin; i < n.end; ++i) {
        if (!contains(points_[i].p)) continue;
        ++tally.points_reported;
        if (visit != nullptr) (*visit)(points_[i]);
      }
      continue;
    }
    stack[top++] = n.right;
    stack[top++] = n.left;
  }
  return tally.points_reported;
}

namespace {

Overlap ClassifyRect(const BoundingBox& q, const BoundingBox& b) {
  if (!q.Intersects(b)) return Overlap::kDisjoint;
  return b.min_x >= q.min_x && b.max_x <= q.max_x && b.min_y >= q.min_y &&
                 b.max_y <= q.max_y
             ? Overlap::kContained
             : Overlap::kPartial;
}

}  // namespace

size_t KdTreeIndex::CountInTriangle(const Triangle& t) const {
  const PreparedTriangle tri(t);
  return Query([&tri](const BoundingBox& b) { return tri.Classify(b); },
               [&t](Point p) { return geom::TriangleContains(t, p); }, nullptr);
}

void KdTreeIndex::ReportInTriangle(const Triangle& t,
                                   const Visitor& visit) const {
  const PreparedTriangle tri(t);
  Query([&tri](const BoundingBox& b) { return tri.Classify(b); },
        [&t](Point p) { return geom::TriangleContains(t, p); }, &visit);
}

size_t KdTreeIndex::CountInRect(const BoundingBox& box) const {
  return Query([&box](const BoundingBox& b) { return ClassifyRect(box, b); },
               [&box](Point p) { return box.Contains(p); }, nullptr);
}

void KdTreeIndex::ReportInRect(const BoundingBox& box,
                               const Visitor& visit) const {
  Query([&box](const BoundingBox& b) { return ClassifyRect(box, b); },
        [&box](Point p) { return box.Contains(p); }, &visit);
}

}  // namespace geosir::rangesearch
