#ifndef GEOSIR_LSH_DYNAMIC_LSH_H_
#define GEOSIR_LSH_DYNAMIC_LSH_H_

#include <memory>
#include <vector>

#include "core/dynamic_shape_base.h"
#include "lsh/lsh_index.h"
#include "util/query_control.h"
#include "util/status.h"

namespace geosir::lsh {

/// The LSH pre-filter of the *dynamic* (and replicated) serving tier: a
/// DynamicBaseObserver that mirrors every applied insert/remove into an
/// LshIndex keyed by stable ids, so candidates stay fresh under
/// interleaved mutation — including journal recovery and replication
/// follower replay, which run through the same observer hook. Query
/// candidates feed DynamicShapeBase::MatchIds, which scores them from the
/// main base's stored copies (delta and compacted shapes alike).
///
/// Thread safety is the wrapped LshIndex's: concurrent Query vs.
/// OnInsert/OnRemove is safe; the observer callbacks themselves arrive on
/// the base's (single) mutating thread.
class DynamicLshIndex final : public core::DynamicBaseObserver {
 public:
  /// track_keys is forced on — removals need the stored bucket keys.
  static util::Result<std::unique_ptr<DynamicLshIndex>> Create(
      LshOptions options);

  void OnInsert(uint64_t id,
                const std::vector<core::NormalizedCopy>& copies) override;
  void OnRemove(uint64_t id) override;

  /// Candidate stable ids for an already-normalized query, ranked by
  /// collision multiplicity. Same contract as LshIndex::Query.
  util::Status Query(const geom::Polyline& normalized_query,
                     size_t max_candidates, const util::QueryControl& control,
                     std::vector<uint64_t>* out,
                     LshIndex::QueryStats* stats) const {
    return index_->Query(normalized_query, max_candidates, control, out,
                         stats);
  }

  /// Re-seeds the tables from a base's live records — for attaching to a
  /// base that already has content (e.g. right after RestoreCheckpoint,
  /// which bypasses the observer). Existing table state is replaced.
  util::Status RebuildFrom(const core::DynamicShapeBase& base);

  const LshIndex& index() const { return *index_; }

 private:
  explicit DynamicLshIndex(std::unique_ptr<LshIndex> index)
      : index_(std::move(index)) {}

  std::unique_ptr<LshIndex> index_;
};

}  // namespace geosir::lsh

#endif  // GEOSIR_LSH_DYNAMIC_LSH_H_
