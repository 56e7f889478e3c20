#include "rangesearch/range_tree_index.h"

#include <algorithm>
#include <cassert>

#include "rangesearch/tri_box.h"

namespace geosir::rangesearch {

using geom::BoundingBox;
using geom::Triangle;

void RangeTreeIndex::Build(std::vector<IndexedPoint> points) {
  points_ = std::move(points);
  nodes_.clear();
  ys_.clear();
  pts_.clear();
  lcasc_.clear();
  rcasc_.clear();
  root_ = -1;
  if (points_.empty()) return;

  // Fix the primary order: by x, ties by y then id. A point's position in
  // this order is its "rank"; queries are translated to rank intervals so
  // duplicate x-coordinates need no special casing.
  std::sort(points_.begin(), points_.end(),
            [](const IndexedPoint& a, const IndexedPoint& b) {
              if (a.p.x != b.p.x) return a.p.x < b.p.x;
              if (a.p.y != b.p.y) return a.p.y < b.p.y;
              return a.id < b.id;
            });

  // Secondary order: ranks sorted by (y, rank).
  std::vector<uint32_t> by_y(points_.size());
  for (uint32_t i = 0; i < by_y.size(); ++i) by_y[i] = i;
  std::sort(by_y.begin(), by_y.end(), [this](uint32_t a, uint32_t b) {
    if (points_[a].p.y != points_[b].p.y) {
      return points_[a].p.y < points_[b].p.y;
    }
    return a < b;
  });

  // Reserve the pooled arrays once: every tree level stores ~n entries
  // (plus one sentinel per node), and there are ~log2(n/leaf) + 2 levels.
  // Growing them per node would repeatedly reallocate multi-hundred-MB
  // arrays.
  size_t levels = 2;
  for (size_t m = points_.size(); m > leaf_size_; m /= 2) ++levels;
  const size_t estimated = (points_.size() + 2) * levels + 16;
  ys_.reserve(estimated);
  pts_.reserve(estimated);
  lcasc_.reserve(estimated);
  rcasc_.reserve(estimated);
  nodes_.reserve(2 * points_.size() / std::max<size_t>(1, leaf_size_) + 2);

  root_ = BuildNode(0, static_cast<uint32_t>(points_.size()), std::move(by_y));
}

int32_t RangeTreeIndex::BuildNode(uint32_t begin, uint32_t end,
                                  std::vector<uint32_t> by_y) {
  Node node;
  node.begin = begin;
  node.end = end;
  const uint32_t len = end - begin;
  node.list_off = static_cast<uint32_t>(ys_.size());

  // Materialize this node's y-sorted list plus the sentinel slot. The
  // pooled arrays were reserved in Build(); these appends never
  // reallocate on the estimated-capacity path.
  lcasc_.resize(lcasc_.size() + len + 1, 0);
  rcasc_.resize(rcasc_.size() + len + 1, 0);
  for (uint32_t rank : by_y) {
    ys_.push_back(points_[rank].p.y);
    pts_.push_back(rank);
  }
  ys_.push_back(0.0);  // Sentinel (value unused).
  pts_.push_back(0);

  const int32_t id = static_cast<int32_t>(nodes_.size());
  nodes_.push_back(node);

  if (len > leaf_size_) {
    const uint32_t mid = begin + len / 2;
    // Stable partition of the y-order into the children's y-orders, and
    // the cascade pointers: lcasc[i] = #left elements before position i
    // (== index in the left list of the first entry with y-order >= i).
    std::vector<uint32_t> left_y, right_y;
    left_y.reserve(mid - begin);
    right_y.reserve(end - mid);
    for (uint32_t i = 0; i < len; ++i) {
      lcasc_[node.list_off + i] = static_cast<uint32_t>(left_y.size());
      rcasc_[node.list_off + i] = static_cast<uint32_t>(right_y.size());
      const uint32_t rank = pts_[node.list_off + i];
      if (rank < mid) {
        left_y.push_back(rank);
      } else {
        right_y.push_back(rank);
      }
    }
    lcasc_[node.list_off + len] = static_cast<uint32_t>(left_y.size());
    rcasc_[node.list_off + len] = static_cast<uint32_t>(right_y.size());

    by_y.clear();
    by_y.shrink_to_fit();
    const int32_t left = BuildNode(begin, mid, std::move(left_y));
    const int32_t right = BuildNode(mid, end, std::move(right_y));
    nodes_[id].left = left;
    nodes_[id].right = right;
  }
  return id;
}

void RangeTreeIndex::EmitRange(const Node& n, uint32_t ylo, uint32_t yhi,
                               const Visitor* visit, size_t* count,
                               StatsTally* tally) const {
  tally->points_reported += yhi - ylo;
  if (count != nullptr) {
    *count += yhi - ylo;
    return;
  }
  for (uint32_t i = ylo; i < yhi; ++i) {
    (*visit)(points_[pts_[n.list_off + i]]);
  }
}

void RangeTreeIndex::QueryRect(const BoundingBox& box, const Visitor* visit,
                               size_t* count) const {
  if (root_ < 0 || box.empty()) return;

  // Rank interval [r1, r2) of points with x in [min_x, max_x].
  const auto lower_x = [this](double x) {
    uint32_t lo = 0, hi = static_cast<uint32_t>(points_.size());
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (points_[mid].p.x < x) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  const auto upper_x = [this](double x) {
    uint32_t lo = 0, hi = static_cast<uint32_t>(points_.size());
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (points_[mid].p.x <= x) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  const uint32_t r1 = lower_x(box.min_x);
  const uint32_t r2 = upper_x(box.max_x);
  if (r1 >= r2) return;

  // The single y binary search, at the root list; all deeper y-ranges
  // follow cascade pointers in O(1) per node.
  const Node& root = nodes_[root_];
  const uint32_t n = root.end - root.begin;
  const auto lower_y = [&](double y) {
    uint32_t lo = 0, hi = n;
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (ys_[root.list_off + mid] < y) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  const auto upper_y = [&](double y) {
    uint32_t lo = 0, hi = n;
    while (lo < hi) {
      const uint32_t mid = (lo + hi) / 2;
      if (ys_[root.list_off + mid] <= y) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo;
  };
  const uint32_t ylo0 = lower_y(box.min_y);
  const uint32_t yhi0 = upper_y(box.max_y);

  StatsTally tally(&stats_);
  // Iterative walk with an explicit stack of (node, ylo, yhi).
  struct Frame {
    int32_t node;
    uint32_t ylo;
    uint32_t yhi;
  };
  std::vector<Frame> stack;
  stack.push_back(Frame{root_, ylo0, yhi0});
  while (!stack.empty()) {
    const Frame f = stack.back();
    stack.pop_back();
    if (f.ylo >= f.yhi) continue;
    const Node& node = nodes_[f.node];
    ++tally.nodes_visited;
    if (node.end <= r1 || node.begin >= r2) continue;
    if (r1 <= node.begin && node.end <= r2) {
      EmitRange(node, f.ylo, f.yhi, visit, count, &tally);
      continue;
    }
    if (node.left < 0) {
      // Partial leaf: test ranks directly (the y-range already holds).
      tally.points_tested += f.yhi - f.ylo;
      for (uint32_t i = f.ylo; i < f.yhi; ++i) {
        const uint32_t rank = pts_[node.list_off + i];
        if (rank >= r1 && rank < r2) {
          ++tally.points_reported;
          if (count != nullptr) {
            ++(*count);
          } else {
            (*visit)(points_[rank]);
          }
        }
      }
      continue;
    }
    stack.push_back(Frame{node.left, lcasc_[node.list_off + f.ylo],
                          lcasc_[node.list_off + f.yhi]});
    stack.push_back(Frame{node.right, rcasc_[node.list_off + f.ylo],
                          rcasc_[node.list_off + f.yhi]});
  }
}

size_t RangeTreeIndex::CountInRect(const BoundingBox& box) const {
  size_t count = 0;
  QueryRect(box, nullptr, &count);
  return count;
}

void RangeTreeIndex::ReportInRect(const BoundingBox& box,
                                  const Visitor& visit) const {
  QueryRect(box, &visit, nullptr);
}

size_t RangeTreeIndex::CountInTriangle(const Triangle& t) const {
  size_t count = 0;
  ReportInTriangle(t, [&count](const IndexedPoint&) { ++count; });
  return count;
}

void RangeTreeIndex::ReportInTriangle(const Triangle& t,
                                      const Visitor& visit) const {
  const BoundingBox box = t.Bounds();
  StatsTally tally(&stats_);
  const Visitor filtered = [&](const IndexedPoint& ip) {
    ++tally.points_tested;
    if (t.Contains(ip.p)) visit(ip);
  };
  QueryRect(box, &filtered, nullptr);
}

}  // namespace geosir::rangesearch
