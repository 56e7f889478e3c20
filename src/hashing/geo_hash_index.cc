#include "hashing/geo_hash_index.h"

#include <algorithm>
#include <unordered_map>

#include "util/query_control.h"

namespace geosir::hashing {

GeoHashIndex::GeoHashIndex(GeoHashOptions options, ArcFamily family)
    : options_(options), family_(std::move(family)) {}

util::Result<GeoHashIndex> GeoHashIndex::Create(const core::ShapeBase* base,
                                                const GeoHashOptions& options) {
  if (!base->finalized()) {
    return util::Status::FailedPrecondition("ShapeBase not finalized");
  }
  GEOSIR_ASSIGN_OR_RETURN(
      ArcFamily family,
      ArcFamily::Create(options.curves_per_quarter, options.family));
  GeoHashIndex index(options, std::move(family));
  for (int q = 0; q < 4; ++q) {
    index.buckets_[q].assign(options.curves_per_quarter + 1, {});
  }
  index.copy_quadruples_.reserve(base->NumCopies());
  for (size_t i = 0; i < base->NumCopies(); ++i) {
    const CurveQuadruple quad =
        ComputeQuadruple(index.family_, base->copy(i).shape);
    for (int q = 0; q < 4; ++q) {
      index.buckets_[q][quad.c[q]].push_back(static_cast<uint32_t>(i));
    }
    index.copy_quadruples_.push_back(quad);
  }
  return index;
}

std::vector<std::pair<uint32_t, uint32_t>> GeoHashIndex::CollectCandidates(
    const geom::Polyline& normalized) const {
  const CurveQuadruple quad = ComputeQuadruple(family_, normalized);
  // A copy is collected at most once per quarter (it has one
  // characteristic curve there), so its multiplicity counts agreeing
  // quarters.
  std::unordered_map<uint32_t, uint32_t> multiplicity;
  for (int q = 0; q < 4; ++q) {
    if (quad.c[q] == 0) continue;  // Empty quarter carries no signal.
    for (int delta = -options_.neighbor_radius;
         delta <= options_.neighbor_radius; ++delta) {
      const int curve = quad.c[q] + delta;
      if (curve < 1 || curve > options_.curves_per_quarter) continue;
      for (uint32_t copy : buckets_[q][curve]) ++multiplicity[copy];
    }
  }
  std::vector<std::pair<uint32_t, uint32_t>> counted(multiplicity.begin(),
                                                     multiplicity.end());
  std::sort(counted.begin(), counted.end());
  return counted;
}

double GeoHashIndex::AverageBucketOccupancy() const {
  size_t total = 0;
  size_t nonempty = 0;
  for (int q = 0; q < 4; ++q) {
    for (size_t curve = 1; curve < buckets_[q].size(); ++curve) {
      if (buckets_[q][curve].empty()) continue;
      ++nonempty;
      total += buckets_[q][curve].size();
    }
  }
  return nonempty == 0 ? 0.0
                       : static_cast<double>(total) /
                             static_cast<double>(nonempty);
}

util::Status GeoHashCandidateSource::Generate(
    const geom::Polyline& normalized_query, size_t max_candidates,
    const core::MatchOptions& options, std::vector<uint32_t>* out,
    core::CandidateSourceStats* stats) {
  out->clear();
  if (stats != nullptr) *stats = core::CandidateSourceStats{};
  const util::QueryControl control{options.deadline, options.cancel_token};
  // One entry poll suffices: the whole probe is four bucket lookups plus
  // a sort of a small candidate set.
  {
    util::Status stop = control.Check();
    if (!stop.ok()) {
      if (stats != nullptr) stats->termination = stop;
      return stop;
    }
  }
  std::vector<std::pair<uint32_t, uint32_t>> counted =
      index_->CollectCandidates(normalized_query);
  // Preference order: most agreeing quarters first, ties ascending copy.
  std::sort(counted.begin(), counted.end(),
            [](const std::pair<uint32_t, uint32_t>& a,
               const std::pair<uint32_t, uint32_t>& b) {
              if (a.second != b.second) return a.second > b.second;
              return a.first < b.first;
            });
  const size_t limit = max_candidates == 0
                           ? counted.size()
                           : std::min(counted.size(), max_candidates);
  out->reserve(limit);
  for (size_t i = 0; i < limit; ++i) out->push_back(counted[i].first);
  if (stats != nullptr) {
    stats->tables_probed = 4;
    stats->buckets_probed =
        4 * (2 * static_cast<size_t>(index_->options().neighbor_radius) + 1);
    stats->candidates_emitted = out->size();
    stats->truncated = limit < counted.size();
  }
  return util::Status::OK();
}

}  // namespace geosir::hashing
