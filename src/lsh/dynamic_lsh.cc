#include "lsh/dynamic_lsh.h"

#include "util/query_control.h"

namespace geosir::lsh {

util::Result<std::unique_ptr<DynamicLshIndex>> DynamicLshIndex::Create(
    const core::DynamicShapeBase* base, LshOptions options) {
  if (base == nullptr) {
    return util::Status::InvalidArgument(
        "DynamicLshIndex::Create requires a base");
  }
  options.track_keys = true;
  GEOSIR_ASSIGN_OR_RETURN(std::unique_ptr<LshIndex> index,
                          LshIndex::Create(options));
  return std::unique_ptr<DynamicLshIndex>(
      new DynamicLshIndex(base, std::move(index)));
}

void DynamicLshIndex::OnInsert(
    uint64_t id, const std::vector<core::NormalizedCopy>& copies) {
  index_->InsertCopies(id, copies);
}

void DynamicLshIndex::OnRemove(uint64_t id) {
  // A remove for an id the tables never saw (attached mid-life without a
  // rebuild) is a no-op, not an error: the pre-filter may lawfully
  // under-approximate, never dangle.
  (void)index_->Remove(id);
}

util::Status DynamicLshIndex::Generate(const geom::Polyline& normalized_query,
                                       size_t max_candidates,
                                       const core::MatchOptions& options,
                                       std::vector<uint32_t>* out,
                                       core::CandidateSourceStats* stats) {
  out->clear();
  if (stats != nullptr) *stats = core::CandidateSourceStats{};
  const util::QueryControl control{options.deadline, options.cancel_token};
  std::vector<uint64_t> ids;
  LshIndex::QueryStats probe;
  // Uncapped: the cap counts copies, and an id holds a variable number.
  const util::Status status =
      index_->Query(normalized_query, 0, control, &ids, &probe);
  // Stale ids (removed since the tables saw them) hold no copies.
  for (uint64_t id : ids) {
    const std::vector<uint32_t>& copies = base_->CopiesOf(id);
    out->insert(out->end(), copies.begin(), copies.end());
  }
  const bool truncated = max_candidates > 0 && out->size() > max_candidates;
  if (truncated) out->resize(max_candidates);
  if (stats != nullptr) {
    stats->tables_probed = probe.tables_probed;
    stats->buckets_probed = probe.buckets_probed;
    stats->candidates_emitted = out->size();
    stats->truncated = truncated;
    stats->termination = status;
  }
  return status;
}

util::Status DynamicLshIndex::Rebuild() {
  GEOSIR_ASSIGN_OR_RETURN(std::unique_ptr<LshIndex> fresh,
                          LshIndex::Create(index_->options()));
  for (uint64_t id : base_->LiveIds()) {
    GEOSIR_ASSIGN_OR_RETURN(std::vector<core::NormalizedCopy> copies,
                            base_->NormalizedCopiesOf(id));
    fresh->InsertCopies(id, copies);
  }
  index_ = std::move(fresh);
  return util::Status::OK();
}

}  // namespace geosir::lsh
