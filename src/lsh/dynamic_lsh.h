#ifndef GEOSIR_LSH_DYNAMIC_LSH_H_
#define GEOSIR_LSH_DYNAMIC_LSH_H_

#include <memory>
#include <vector>

#include "core/candidate_source.h"
#include "core/dynamic_shape_base.h"
#include "lsh/lsh_index.h"
#include "util/status.h"

namespace geosir::lsh {

/// The LSH pre-filter of the *dynamic* (and replicated) serving tier: a
/// DynamicBaseObserver that mirrors every applied insert/remove into an
/// LshIndex keyed by stable ids, so candidates stay fresh under
/// interleaved mutation — including journal recovery and replication
/// follower replay, which run through the same observer hook. It is also
/// the CandidateSource of DynamicShapeBase::MatchCandidates over the base
/// it observes: Generate ranks the colliding stable ids by collision
/// multiplicity and emits the main base's copies of each live one (delta
/// and compacted shapes alike), so they go through the one verifier.
///
/// Thread safety is the wrapped LshIndex's: concurrent index().Query vs.
/// OnInsert/OnRemove is safe; the observer callbacks themselves arrive on
/// the base's (single) mutating thread. Generate reads the base, so it
/// follows the base's rule: no mutation during a query.
class DynamicLshIndex final : public core::DynamicBaseObserver,
                              public core::CandidateSource {
 public:
  /// `base` is the base this index observes (attach it with
  /// base->SetObserver); not owned, must outlive the index. track_keys is
  /// forced on — removals need the stored bucket keys.
  static util::Result<std::unique_ptr<DynamicLshIndex>> Create(
      const core::DynamicShapeBase* base, LshOptions options);

  void OnInsert(uint64_t id,
                const std::vector<core::NormalizedCopy>& copies) override;
  void OnRemove(uint64_t id) override;

  const char* name() const override { return "lsh"; }

  /// The copies of the ranked live ids, id by id; ids the base no longer
  /// holds are skipped. `max_candidates` counts copies.
  util::Status Generate(const geom::Polyline& normalized_query,
                        size_t max_candidates,
                        const core::MatchOptions& options,
                        std::vector<uint32_t>* out,
                        core::CandidateSourceStats* stats) override;

  /// Re-seeds the tables from the base's live records — for attaching to
  /// a base that already has content (e.g. right after RestoreCheckpoint,
  /// which bypasses the observer). Existing table state is replaced.
  util::Status Rebuild();

  const LshIndex& index() const { return *index_; }

 private:
  DynamicLshIndex(const core::DynamicShapeBase* base,
                  std::unique_ptr<LshIndex> index)
      : base_(base), index_(std::move(index)) {}

  const core::DynamicShapeBase* base_;
  std::unique_ptr<LshIndex> index_;
};

}  // namespace geosir::lsh

#endif  // GEOSIR_LSH_DYNAMIC_LSH_H_
