// StorageManager: one TrustService's durable store — an append-only WAL
// plus rotating snapshot segments inside a single data directory.
//
// Directory layout (one directory per service; the sharded server gives
// every shard its own under DIR/shard-N/ — see durable_boot.h):
//
//   segment-<V>.seg   snapshot segment for published version V
//   wal-<E>.log       mutations accepted after segment-<E> was current
//
// Write path: every accepted mutation appends one WAL record (fsynced
// per FsyncPolicy) before the API acknowledges it. Commit() appends a
// commit record and forces a sync; when the commit published a new
// snapshot version V, the manager rotates — it opens wal-<V>.log FIRST
// (so the record chain never has a gap even if the segment write then
// fails) and queues segment-<V>.seg for its rotation thread, which
// writes it atomically and retires files outside the retention window
// (keep_segments newest segments plus every WAL at or past the oldest
// kept segment's epoch). Queued writes coalesce: a newer published
// version replaces a queued older one, and the WAL chain covers any
// skipped segment.
//
// Recovery (Boot): map the newest CRC-valid segment, Restore a service
// from it instantly (no reputation recomputation), then replay every
// wal-<E>.log with E >= that segment's version in ascending epoch
// order. The newest WAL may end in a torn tail — it is truncated and
// logged, not fatal; appending continues on that file. A torn tail on
// any OLDER wal, a CRC-valid-but-undecodable record, or a replayed
// commit landing on the wrong version is real corruption and fails the
// boot with a clean error.
//
// Failure policy while serving: a failed mutation append latches the
// error and stops the log (a hole would corrupt replay; a short log
// just loses the tail) — ingest keeps being acknowledged in-memory and
// the NEXT Commit() returns the latched error so the operator learns
// durability is gone. A failed segment write merely logs: the WAL chain
// still holds everything, so durability is preserved at slower-boot
// cost.
#ifndef WOT_STORAGE_STORAGE_MANAGER_H_
#define WOT_STORAGE_STORAGE_MANAGER_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "wot/service/mutation_log.h"
#include "wot/service/trust_service.h"
#include "wot/storage/wal.h"
#include "wot/telemetry/metric_registry.h"
#include "wot/util/result.h"
#include "wot/util/thread_annotations.h"

namespace wot {
namespace storage {

/// \brief Storage-layer knobs (service-level knobs travel separately).
struct StorageOptions {
  FsyncPolicy fsync = FsyncPolicy::kBatch;
  /// Newest segments kept on disk. Older segments — and the WALs that
  /// predate the oldest keeper — are deleted at rotation. Minimum 1.
  size_t keep_segments = 2;
};

/// \brief Durably backs one TrustService; attach via SetMutationLog.
class StorageManager : public MutationLog {
 public:
  /// \brief A booted service + its attached manager.
  struct BootResult {
    std::unique_ptr<TrustService> service;
    std::unique_ptr<StorageManager> manager;  ///< Already attached.
    uint64_t replayed_records = 0;  ///< WAL records replayed (0 = fresh).
    bool recovered = false;  ///< False when the directory was empty.
  };

  /// \brief Boots a durable service out of \p dir. An empty directory is
  /// a fresh boot: \p seed_provider is invoked for the initial dataset,
  /// segment-1 + wal-1 are written, and the service starts at version 1.
  /// A populated directory is a recovery: the seed provider is NOT
  /// called — the newest valid segment plus the WAL tail reproduce the
  /// pre-crash state exactly, including staged-but-uncommitted activity.
  static Result<BootResult> Boot(
      const std::string& dir,
      const std::function<Result<Dataset>()>& seed_provider,
      const TrustServiceOptions& service_options = {},
      const StorageOptions& storage_options = {});

  /// Drains any queued segment write, then joins the rotation thread.
  ~StorageManager() override;
  StorageManager(const StorageManager&) = delete;
  StorageManager& operator=(const StorageManager&) = delete;

  // MutationLog implementation (called under the service writer lock;
  // mu_ makes durability_stats() safe from any thread).
  void LogAddUser(std::string_view name) override WOT_EXCLUDES(mu_);
  void LogAddCategory(std::string_view name) override WOT_EXCLUDES(mu_);
  void LogAddObject(uint32_t category, std::string_view name) override
      WOT_EXCLUDES(mu_);
  void LogAddReview(uint32_t writer, uint32_t object) override
      WOT_EXCLUDES(mu_);
  void LogAddRating(uint32_t rater, uint32_t review, double value) override
      WOT_EXCLUDES(mu_);
  Status LogCommit(uint64_t version, bool published,
                   const std::shared_ptr<const TrustSnapshot>& snapshot,
                   const Dataset& staged) override
      WOT_EXCLUDES(mu_, rotation_mu_);
  DurabilityStats durability_stats() const override WOT_EXCLUDES(mu_);

  /// \brief Blocks until no segment write is queued or in flight. Call
  /// before inspecting segment files (tests) or before shipping "the
  /// newest segment" assumptions.
  void WaitForIdle() WOT_EXCLUDES(rotation_mu_);

  const std::string& dir() const { return dir_; }

  /// \brief The registry this manager records its durability timings
  /// into (storage.wal_*, storage.rotation_*; see
  /// docs/observability.md). Owned by the manager; the serving frontend
  /// registers it as a scrape source (durable_boot does the wiring).
  const std::shared_ptr<telemetry::MetricRegistry>& metrics_registry()
      const {
    return metrics_;
  }

 private:
  /// One queued background segment write (the newest published version
  /// wins).
  struct RotationJob {
    uint64_t version = 0;
    std::shared_ptr<const TrustSnapshot> snapshot;
    Dataset staged;
  };

  StorageManager(std::string dir, StorageOptions options,
                 std::unique_ptr<WalWriter> wal, uint64_t segment_epoch,
                 uint64_t segment_bytes, uint64_t replayed_records);

  /// Appends one mutation record, latching the first failure.
  void AppendMutation(const WalRecord& record) WOT_REQUIRES(mu_);

  /// Opens wal-<version> (the synchronous half of a rotation — the
  /// record chain must never gap) and hands segment-<version> to the
  /// rotation thread. Failures degrade gracefully (see file comment).
  void RotateLocked(uint64_t version,
                    const std::shared_ptr<const TrustSnapshot>& snapshot,
                    const Dataset& staged)
      WOT_REQUIRES(mu_) WOT_EXCLUDES(rotation_mu_);

  /// Writes segment-<version> and runs retention — pure file work, no
  /// locks held. Returns the segment's byte size.
  Result<uint64_t> WriteSegmentAndRetire(uint64_t version,
                                         const TrustSnapshot& snapshot,
                                         const Dataset& staged);

  /// Publishes a finished segment write into the durability counters.
  void FinishRotation(uint64_t version, uint64_t bytes)
      WOT_EXCLUDES(mu_);

  /// The rotation thread: drains queued jobs until stopped.
  void RotationLoop() WOT_EXCLUDES(rotation_mu_, mu_);

  const std::string dir_;
  const StorageOptions options_;

  // Telemetry: handles are written once at construction; the registry
  // outlives them. Recording happens under mu_ (the log serializes).
  std::shared_ptr<telemetry::MetricRegistry> metrics_;
  telemetry::LatencyHistogram* wal_append_ns_;
  telemetry::LatencyHistogram* wal_fsync_ns_;
  telemetry::LatencyHistogram* rotation_ns_;
  telemetry::LatencyHistogram* commit_batch_records_;
  telemetry::Counter* rotations_;
  telemetry::Counter* rotation_bytes_;

  telemetry::LatencyHistogram* segment_write_ns_;

  mutable Mutex mu_;
  std::unique_ptr<WalWriter> wal_ WOT_GUARDED_BY(mu_);
  /// Mutation records appended since the last LogCommit (the commit
  /// batch size recorded into storage.commit_batch_records).
  int64_t records_since_commit_ WOT_GUARDED_BY(mu_) = 0;
  /// First append failure; once non-OK the log stops growing and the
  /// next LogCommit surfaces it.
  Status degraded_ WOT_GUARDED_BY(mu_) = Status::OK();
  uint64_t segment_epoch_ WOT_GUARDED_BY(mu_) = 0;
  uint64_t segment_bytes_ WOT_GUARDED_BY(mu_) = 0;
  const uint64_t replayed_records_;

  // Background rotation. Lock ordering: mu_ before rotation_mu_ (the
  // commit path enqueues under both); the worker never holds both —
  // it releases rotation_mu_ before touching the counters under mu_.
  Mutex rotation_mu_;
  CondVar rotation_cv_;
  /// Single-slot queue: a newer published version replaces a queued
  /// older one (the WAL chain covers the skipped segment).
  std::unique_ptr<RotationJob> pending_rotation_ WOT_GUARDED_BY(rotation_mu_);
  bool rotation_in_flight_ WOT_GUARDED_BY(rotation_mu_) = false;
  bool rotation_stop_ WOT_GUARDED_BY(rotation_mu_) = false;
  std::thread rotation_thread_;
};

/// \brief Applies one decoded WAL record to \p service — the shared
/// replay step used by crash recovery and by replicas applying shipped
/// WAL deltas. Mutation records must stage cleanly (they were accepted
/// once; a reject means the record stream does not match the service
/// state) and a kCommit record must land exactly on its recorded
/// version; violations return Corruption.
Status ApplyWalRecord(TrustService& service, const WalRecord& record);

/// \brief "<dir>/segment-<version>.seg".
std::string SegmentPath(const std::string& dir, uint64_t version);
/// \brief "<dir>/wal-<epoch>.log".
std::string WalPath(const std::string& dir, uint64_t epoch);

/// \brief One data-directory entry recognized by the storage layer.
struct StorageFile {
  std::string path;
  uint64_t number = 0;  ///< Segment version / WAL epoch.
};

/// \brief Storage files in \p dir, split by kind, each sorted ascending
/// by number. Unrecognized names are ignored.
struct StorageFileSet {
  std::vector<StorageFile> segments;
  std::vector<StorageFile> wals;
};
Result<StorageFileSet> ListStorageFiles(const std::string& dir);

}  // namespace storage
}  // namespace wot

#endif  // WOT_STORAGE_STORAGE_MANAGER_H_
