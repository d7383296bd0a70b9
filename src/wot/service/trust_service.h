// TrustService: the long-lived serving API over the paper's pipeline.
//
// Where TrustPipeline is the *batch* path (one dataset in, one set of
// artifacts out), TrustService is the *serving* path a server sits behind:
//
//   * Ingest is append-only: AddUser / AddCategory / AddObject / AddReview /
//     AddRating accumulate activity under the same referential-integrity
//     rules as DatasetBuilder.
//   * Commit() folds the staged activity into derived state incrementally —
//     Step 1 recomputes only dirty categories (IncrementalReputationEngine),
//     Step 2 refreshes only the affiliation rows of users whose activity
//     changed, Step 3 rebuilds expertise postings only for dirty categories
//     (clean categories share the previous snapshot's postings) — and
//     publishes a new immutable TrustSnapshot. Results are bit-identical to
//     a from-scratch TrustPipeline::Run over the same data.
//   * Reads are lock-free: Snapshot() atomically loads the latest published
//     std::shared_ptr<const TrustSnapshot>; unlimited reader threads may
//     call Trust / TopK / ExplainTrust concurrently with a committing
//     writer and only ever observe fully published versions.
//
// Thread contract: any number of concurrent readers; write operations
// (Add* and Commit) are serialized internally by a mutex, so multiple
// writer threads are safe but see sequential throughput.
//
//   WOT_ASSIGN_OR_RETURN(std::unique_ptr<TrustService> service,
//                        TrustService::Create(dataset));
//   double t = service->Trust(alice.index(), bob.index());
//   ... later, on the write path ...
//   WOT_RETURN_IF_ERROR(service->AddRating(rater, review, 0.8));
//   WOT_ASSIGN_OR_RETURN(TrustService::CommitStats stats,
//                        service->Commit());
#ifndef WOT_SERVICE_TRUST_SERVICE_H_
#define WOT_SERVICE_TRUST_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "wot/community/dataset.h"
#include "wot/community/dataset_builder.h"
#include "wot/reputation/incremental.h"
#include "wot/service/mutation_log.h"
#include "wot/service/trust_snapshot.h"
#include "wot/telemetry/metric_registry.h"
#include "wot/util/result.h"
#include "wot/util/thread_annotations.h"

namespace wot {

// Canonical wording of the ref-resolution errors. Shared by every
// resolver — the service's staged lookup, the api layer's published
// snapshot lookup (api::ResolveUserRef), and the shard router's
// global-id resolvers — because the router's one-shard bit-identity
// property holds only while these strings stay byte-identical across
// all of them.
inline constexpr char kEmptyUserRefMessage[] = "empty user reference";
std::string UserIndexOutOfRangeMessage(std::string_view ref,
                                       size_t num_users);
std::string NoUserNamedMessage(std::string_view ref);
std::string ReviewIdOutOfRangeMessage(int64_t review, int64_t bound);

/// \brief Service-level options.
struct TrustServiceOptions {
  ReputationOptions reputation;
  /// Ingest policy (referential integrity and rating-scale rules).
  DatasetBuilderOptions builder;
  /// Maintain per-category expertise postings in every snapshot so TopK
  /// runs the threshold algorithm.
  bool build_postings = true;
};

/// \brief Long-lived, concurrently readable trust serving layer.
class TrustService {
 public:
  /// \brief What one Commit() did.
  struct CommitStats {
    /// Version of the snapshot serving after the commit (unchanged when
    /// nothing was published).
    uint64_t version = 0;
    /// False when no derived state changed (nothing appended, or only
    /// objects without reviews): the previous snapshot keeps serving.
    bool published = false;
    size_t categories_recomputed = 0;
    size_t affiliation_rows_recomputed = 0;
    size_t postings_rebuilt = 0;
    double elapsed_millis = 0.0;
  };

  /// \brief Boots a service over a copy of \p seed and publishes snapshot
  /// version 1. The seed is not referenced after Create returns.
  static Result<std::unique_ptr<TrustService>> Create(
      const Dataset& seed, const TrustServiceOptions& options = {});

  /// \brief Boots an empty service (version-1 snapshot over zero users).
  static Result<std::unique_ptr<TrustService>> CreateEmpty(
      const TrustServiceOptions& options = {});

  /// \brief Boots a service from durably persisted components (the
  /// instant-boot path: a storage segment instead of a raw-dataset
  /// derivation). \p dataset is the full staged dataset at segment-write
  /// time; it is adopted wholesale by the builder (ids are dense in
  /// column order already, per-row policy rules are re-checked, and the
  /// ingest dedup keys rebuild lazily on first mutation), while the
  /// expensive derived state — \p reputation, \p affiliation,
  /// \p postings — is adopted as published snapshot \p version without
  /// recomputation. The incremental engine is seeded so the next Commit()
  /// stays incremental and bit-identical to an uninterrupted service.
  /// \p postings may be empty (TopK falls back to dense derivation).
  static Result<std::unique_ptr<TrustService>> Restore(
      Dataset dataset, ReputationResult reputation, DenseMatrix affiliation,
      std::vector<ExpertisePostingPtr> postings, uint64_t version,
      const TrustServiceOptions& options = {});

  // --- Write path (append-only; serialized internally) -------------------

  UserId AddUser(std::string name) WOT_EXCLUDES(writer_mu_);
  CategoryId AddCategory(std::string name) WOT_EXCLUDES(writer_mu_);
  Result<ObjectId> AddObject(CategoryId category, std::string name)
      WOT_EXCLUDES(writer_mu_);
  Result<ReviewId> AddReview(UserId writer, ObjectId object)
      WOT_EXCLUDES(writer_mu_);
  Status AddRating(UserId rater, ReviewId review, double value)
      WOT_EXCLUDES(writer_mu_);

  // Ref-based ingest: resolves "name or decimal index" references against
  // the STAGED dataset (so an entity ingested moments ago is addressable
  // before any commit), validates ranges, and appends — all inside the
  // writer lock, so any number of concurrently ingesting frontends is
  // safe. Staged name lookups hit an incrementally maintained index, not
  // a scan. Queries are different: they resolve on the published
  // snapshot (TrustSnapshot::user_names) and never take this lock.
  Result<ObjectId> AddObjectByRef(std::string_view category_ref,
                                  std::string name)
      WOT_EXCLUDES(writer_mu_);
  Result<ReviewId> AddReviewByRef(std::string_view writer_ref,
                                  int64_t object) WOT_EXCLUDES(writer_mu_);
  Status AddRatingByRef(std::string_view rater_ref, int64_t review,
                        double value) WOT_EXCLUDES(writer_mu_);

  /// \brief Resolves a name-or-index user ref against the STAGED dataset
  /// (takes the writer lock). This is the ingest-side resolution the
  /// *ByRef methods use internally, exposed so a shard router can probe
  /// which shard stages a given name before fanning an ingest out.
  Result<UserId> ResolveStagedUserRef(std::string_view ref)
      WOT_EXCLUDES(writer_mu_);

  /// \brief Resolves a name-or-index category ref against the STAGED
  /// dataset without staging anything (takes the writer lock). This is
  /// exactly AddObjectByRef's validation, exposed so a shard router can
  /// obtain the canonical verdict BEFORE fanning an object ingest out to
  /// every shard — a rejection must stage nothing anywhere.
  Result<CategoryId> ResolveStagedCategoryRef(std::string_view ref)
      WOT_EXCLUDES(writer_mu_);

  /// \brief Derives the staged activity and publishes a new snapshot.
  /// No-op (published = false) when nothing derivable changed.
  Result<CommitStats> Commit() WOT_EXCLUDES(writer_mu_);

  /// \brief True when Commit() would derive and publish a new snapshot,
  /// false when it would take its no-op path (takes the writer lock).
  bool CommitWouldPublish() WOT_EXCLUDES(writer_mu_);

  // --- Read path (lock-free; safe concurrently with the write path) ------

  /// \brief The latest published snapshot (never null). Hold the returned
  /// shared_ptr for as long as a consistent view is needed.
  std::shared_ptr<const TrustSnapshot> Snapshot() const {
    return published_.load(std::memory_order_acquire);
  }

  /// Convenience single-query forms; each loads one snapshot. For multiple
  /// related queries, call Snapshot() once and query it directly.
  double Trust(size_t i, size_t j) const { return Snapshot()->Trust(i, j); }
  std::vector<ScoredUser> TopK(size_t i, size_t k) const {
    return Snapshot()->TopK(i, k);
  }
  TrustExplanation ExplainTrust(size_t i, size_t j) const {
    return Snapshot()->ExplainTrust(i, j);
  }

  /// \brief The number of reviews currently staged (committed or not).
  /// Takes the writer lock; safe from any thread. The shard router uses
  /// it to range-check wire review ids against the owning shard.
  size_t StagedReviewCount() const WOT_EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    return builder_.StagedView().num_reviews();
  }

  /// \brief The dataset under ingest (grows across Add* calls). Writer-side
  /// view: the returned reference outlives the internal lock, so do NOT
  /// read it concurrently with Add* calls from another thread; readers
  /// should query snapshots instead. (Taking the lock here still gives a
  /// caller that joined its writer threads a happens-before edge to every
  /// completed Add*.)
  const Dataset& staged_dataset() const WOT_EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    return builder_.StagedView();
  }

  // --- Durability ---------------------------------------------------------

  /// \brief Attaches \p log (not owned; may be null to detach). Every
  /// subsequently accepted mutation and commit is reported to it before
  /// the mutating call returns. Attach before serving traffic; the log
  /// must outlive the service or be detached first.
  void SetMutationLog(MutationLog* log) WOT_EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    mutation_log_ = log;
  }

  /// \brief Durability counters of the attached log (all zero when no log
  /// is attached). Takes the writer lock briefly; safe from any thread.
  DurabilityStats durability_stats() const WOT_EXCLUDES(writer_mu_) {
    MutexLock lock(writer_mu_);
    return mutation_log_ != nullptr ? mutation_log_->durability_stats()
                                    : DurabilityStats{};
  }

  // --- Telemetry ----------------------------------------------------------

  /// \brief The registry this service records its commit-stage timings
  /// into (service.commit_*; see docs/observability.md). Owned by the
  /// service; frontends register it as a scrape source.
  const std::shared_ptr<telemetry::MetricRegistry>& metrics_registry()
      const {
    return metrics_;
  }

 private:
  explicit TrustService(const TrustServiceOptions& options);

  /// Marks \p user as needing an affiliation-row refresh at next Commit.
  void MarkDirty(UserId user) WOT_REQUIRES(writer_mu_);

  /// Resolves a name-or-index user ref against the staged dataset
  /// (absorbs the staged tail into the name index).
  Result<UserId> ResolveStagedUserLocked(std::string_view ref)
      WOT_REQUIRES(writer_mu_);

  /// Resolves a name-or-index category ref against the staged dataset.
  Result<CategoryId> ResolveStagedCategoryLocked(std::string_view ref)
      WOT_REQUIRES(writer_mu_);

  /// Builds and atomically publishes the next snapshot.
  Result<CommitStats> CommitLocked() WOT_REQUIRES(writer_mu_);

  /// True when nothing derivable changed since the last publish (at most
  /// new reviewless objects), so a commit publishes nothing.
  bool StagedMatchesPublishedLocked() const WOT_REQUIRES(writer_mu_);

  TrustServiceOptions options_;

  // Telemetry: the registry outlives every resolved handle below. The
  // handles are written once, in the constructor, and recorded into only
  // under writer_mu_ (commit is serialized), so no further guarding.
  std::shared_ptr<telemetry::MetricRegistry> metrics_;
  telemetry::Counter* commits_;
  telemetry::LatencyHistogram* commit_ns_;
  telemetry::LatencyHistogram* commit_update_ns_;
  telemetry::LatencyHistogram* commit_affiliation_ns_;
  telemetry::LatencyHistogram* commit_postings_ns_;
  telemetry::LatencyHistogram* commit_publish_ns_;
  telemetry::LatencyHistogram* commit_dirty_categories_;

  // Writer state: guarded by writer_mu_. Readers never touch it.
  mutable Mutex writer_mu_;
  DatasetBuilder builder_ WOT_GUARDED_BY(writer_mu_);
  IncrementalReputationEngine engine_ WOT_GUARDED_BY(writer_mu_);
  // Indexed by user id.
  std::vector<bool> dirty_users_ WOT_GUARDED_BY(writer_mu_);
  // Staged-side name lookup for ref-based ingest; absorbs the appended
  // tail lazily (users are dense with immutable names, so entries never
  // change). emplace keeps the first id under a duplicated name.
  std::unordered_map<std::string, UserId> staged_name_index_
      WOT_GUARDED_BY(writer_mu_);
  size_t staged_indexed_users_ WOT_GUARDED_BY(writer_mu_) = 0;
  // Durability hook; not owned. Null until SetMutationLog.
  MutationLog* mutation_log_ WOT_GUARDED_BY(writer_mu_) = nullptr;
  uint64_t next_version_ WOT_GUARDED_BY(writer_mu_) = 1;
  // Entity counts the latest snapshot was derived from.
  size_t published_users_ WOT_GUARDED_BY(writer_mu_) = 0;
  size_t published_categories_ WOT_GUARDED_BY(writer_mu_) = 0;
  size_t published_reviews_ WOT_GUARDED_BY(writer_mu_) = 0;
  size_t published_ratings_ WOT_GUARDED_BY(writer_mu_) = 0;

  // The one reader/writer rendezvous: an atomically swapped shared_ptr.
  std::atomic<std::shared_ptr<const TrustSnapshot>> published_;
};

}  // namespace wot

#endif  // WOT_SERVICE_TRUST_SERVICE_H_
