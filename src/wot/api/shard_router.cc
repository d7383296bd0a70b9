#include "wot/api/shard_router.h"

#include <algorithm>
#include <optional>
#include <utility>
#include <variant>

#include "wot/telemetry/timed.h"
#include "wot/telemetry/trace.h"
#include "wot/util/check.h"
#include "wot/util/parallel_for.h"
#include "wot/util/string_util.h"

namespace wot {
namespace api {

Result<std::unique_ptr<ShardRouter>> ShardRouter::Create(
    const Dataset& seed, size_t num_shards,
    const TrustServiceOptions& options) {
  if (num_shards < 1) {
    return Status::InvalidArgument("num_shards must be >= 1, got " +
                                   std::to_string(num_shards));
  }
  WOT_ASSIGN_OR_RETURN(
      std::vector<Dataset> slices,
      SliceDatasetByUser(seed, num_shards, options.builder));
  std::unique_ptr<ShardRouter> router(new ShardRouter());
  router->shards_.reserve(num_shards);
  for (size_t s = 0; s < num_shards; ++s) {
    auto shard = std::make_unique<Shard>();
    WOT_ASSIGN_OR_RETURN(shard->service,
                         TrustService::Create(slices[s], options));
    shard->frontend =
        std::make_unique<ServiceFrontend>(shard->service.get());
    router->shards_.push_back(std::move(shard));
  }
  router->InitTelemetry();
  // The router is not visible to any other thread yet; the uncontended
  // lock keeps the guarded write provable.
  MutexLock lock(router->ingest_mu_);
  router->staged_global_users_ = static_cast<int64_t>(seed.num_users());
  return router;
}

Result<std::unique_ptr<ShardRouter>> ShardRouter::CreateFromServices(
    std::vector<std::unique_ptr<TrustService>> services) {
  if (services.empty()) {
    return Status::InvalidArgument(
        "CreateFromServices needs at least one service");
  }
  std::unique_ptr<ShardRouter> router(new ShardRouter());
  router->shards_.reserve(services.size());
  int64_t staged_users = 0;
  for (std::unique_ptr<TrustService>& service : services) {
    if (service == nullptr) {
      return Status::InvalidArgument(
          "CreateFromServices got a null service");
    }
    auto shard = std::make_unique<Shard>();
    shard->service = std::move(service);
    shard->frontend =
        std::make_unique<ServiceFrontend>(shard->service.get());
    staged_users +=
        static_cast<int64_t>(shard->service->staged_dataset().num_users());
    router->shards_.push_back(std::move(shard));
  }
  router->InitTelemetry();
  MutexLock lock(router->ingest_mu_);
  router->staged_global_users_ = staged_users;
  return router;
}

FrontendStats ShardRouter::stats() const {
  FrontendStats stats = Frontend::stats();
  stats.service_boots = static_cast<int64_t>(shards_.size());
  return stats;
}

void ShardRouter::InitTelemetry() {
  fanout_latency_ns_ =
      metrics_registry()->histogram("router.fanout_latency_ns");
  scatter_width_ = metrics_registry()->histogram("router.scatter_width");
  quorum_wait_ns_ =
      metrics_registry()->histogram("router.quorum_wait_ns");
  replica_reads_ = metrics_registry()->counter("router.replica_reads");
  for (const std::unique_ptr<Shard>& shard : shards_) {
    AddMetricsSource(shard->service->metrics_registry());
    shard->read_floor.store(shard->service->Snapshot()->version(),
                            std::memory_order_release);
  }
}

void ShardRouter::AddReplica(size_t shard,
                             std::shared_ptr<ReplicaHandle> handle) {
  WOT_CHECK(shard < shards_.size());
  auto slot = std::make_unique<ReplicaSlot>();
  slot->handle = std::move(handle);
  slot->applied_gauge = metrics_registry()->gauge(
      "replication.replica_applied.s" + std::to_string(shard) + ".r" +
      std::to_string(shards_[shard]->replicas.size()));
  shards_[shard]->replicas.push_back(std::move(slot));
  ReplicationHandler* prior = replication_handler();
  if (prior != nullptr && prior != this) fetch_delegate_ = prior;
  set_replication_handler(this);
}

ReplicaProbe ShardRouter::Probe(ReplicaSlot* slot) {
  ReplicaProbe probe = slot->handle->Poll();
  slot->applied.store(probe.applied_version, std::memory_order_release);
  slot->healthy.store(probe.healthy, std::memory_order_release);
  slot->applied_gauge->Set(
      static_cast<int64_t>(probe.applied_version));
  return probe;
}

ShardRouter::ReplicaSlot* ShardRouter::PickReplica(size_t shard) {
  Shard& s = *shards_[shard];
  if (s.replicas.empty()) return nullptr;
  const uint64_t floor = s.read_floor.load(std::memory_order_acquire);
  // Round-robin over {replicas..., primary}: position `size()` is the
  // primary's turn, so reads spread evenly across the whole set.
  const size_t width = s.replicas.size() + 1;
  const size_t start = static_cast<size_t>(
      s.next_read.fetch_add(1, std::memory_order_relaxed) % width);
  for (size_t probe = 0; probe < width; ++probe) {
    const size_t position = (start + probe) % width;
    if (position == s.replicas.size()) return nullptr;  // primary's turn
    ReplicaSlot* slot = s.replicas[position].get();
    if (!slot->healthy.load(std::memory_order_acquire)) continue;
    uint64_t applied = slot->applied.load(std::memory_order_acquire);
    if (applied < floor) {
      // The cache says "too stale" — refresh once; the replica may have
      // caught up since the last quorum wait polled it.
      ReplicaProbe fresh = Probe(slot);
      if (!fresh.healthy) continue;
      applied = fresh.applied_version;
    }
    if (applied >= floor) return slot;
  }
  return nullptr;
}

Response ShardRouter::DispatchShardRead(
    size_t shard, const Request& local,
    const ConnectionContext& connection) {
  ReplicaSlot* slot = PickReplica(shard);
  if (slot != nullptr) {
    std::optional<Response> forwarded = slot->handle->Forward(local);
    if (forwarded.has_value() && forwarded->status.ok()) {
      replica_reads_->Increment();
      return *std::move(forwarded);
    }
    if (!forwarded.has_value()) {
      // Transport death, not an application error: stop reading from
      // this replica until a Poll sees it again.
      slot->healthy.store(false, std::memory_order_release);
    }
    // Either way the primary serves the read — replicas are a capacity
    // optimization, never a correctness dependency.
  }
  return Touch(shard)->Dispatch(local, connection);
}

ApiStatus ShardRouter::AwaitWriteQuorum() {
  const int64_t quorum = write_quorum_.load(std::memory_order_relaxed);
  if (quorum <= 1) return ApiStatus::Ok();  // the primary satisfies it
  constexpr int64_t kTimeoutNanos = kQuorumTimeoutMillis * 1'000'000;
  telemetry::Timer timer;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Shard& shard = *shards_[s];
    const uint64_t target = shard.service->Snapshot()->version();
    while (true) {
      int64_t have = 1;  // the primary has, by definition, applied
      for (const std::unique_ptr<ReplicaSlot>& slot : shard.replicas) {
        ReplicaProbe probe = Probe(slot.get());
        if (probe.healthy && probe.applied_version >= target) ++have;
      }
      if (have >= quorum) break;
      if (timer.ElapsedNanos() >= kTimeoutNanos) {
        quorum_wait_ns_->Record(timer.ElapsedNanos());
        return ApiStatus::Internal(
            "write quorum " + std::to_string(quorum) +
            " not reached on shard " + std::to_string(s) + " (" +
            std::to_string(have) + " of " +
            std::to_string(1 + shard.replicas.size()) +
            " copies applied version " + std::to_string(target) + ")");
      }
      MutexLock lock(quorum_mu_);
      quorum_cv_.WaitForMillis(quorum_mu_, 5);
    }
  }
  quorum_wait_ns_->Record(timer.ElapsedNanos());
  return ApiStatus::Ok();
}

Response ShardRouter::HandleReplFetch(const ReplFetchRequest& request) {
  if (fetch_delegate_ != nullptr) {
    return fetch_delegate_->HandleReplFetch(request);
  }
  return ErrorResponse(ApiStatus::Unimplemented(
      "repl_fetch is served by shard primaries, not the router"));
}

Response ShardRouter::HandleReplStatus(const ReplStatusRequest&) {
  ReplStatusResult result;
  result.role = static_cast<int64_t>(ReplRole::kRouter);
  result.applied_version = epoch();
  result.source_version = epoch();
  for (size_t s = 0; s < shards_.size(); ++s) {
    for (const std::unique_ptr<ReplicaSlot>& slot :
         shards_[s]->replicas) {
      ReplReplicaInfo info;
      info.shard = static_cast<int64_t>(s);
      info.address = slot->handle->address();
      info.applied_version =
          slot->applied.load(std::memory_order_acquire);
      info.healthy =
          slot->healthy.load(std::memory_order_acquire) ? 1 : 0;
      result.replicas.push_back(std::move(info));
    }
  }
  Response response;
  response.payload = std::move(result);
  return response;
}

Response ShardRouter::HandleReplPromote(const ReplPromoteRequest&) {
  return ErrorResponse(ApiStatus::InvalidArgument(
      "promotion is requested on the replica process itself, not the "
      "router"));
}

ShardRouter::SnapshotSet ShardRouter::LoadSnapshots() const {
  SnapshotSet snapshots;
  snapshots.reserve(shards_.size());
  for (const std::unique_ptr<Shard>& shard : shards_) {
    snapshots.push_back(shard->service->Snapshot());
  }
  return snapshots;
}

ServiceFrontend* ShardRouter::Touch(size_t shard) {
  shards_[shard]->dispatches.fetch_add(1, std::memory_order_relaxed);
  return shards_[shard]->frontend.get();
}

template <class FindName>
Result<ShardRouter::ResolvedUser> ShardRouter::ResolveUser(
    std::string_view ref, size_t total_users,
    const FindName& find_name) const {
  if (ref.empty()) {
    return Status::InvalidArgument(kEmptyUserRefMessage);
  }
  Result<int64_t> as_index = ParseInt64(ref);
  if (as_index.ok()) {
    const int64_t global = as_index.ValueOrDie();
    if (global < 0 || static_cast<uint64_t>(global) >= total_users) {
      return Status::NotFound(UserIndexOutOfRangeMessage(ref, total_users));
    }
    const auto g = static_cast<uint64_t>(global);
    return ResolvedUser{ShardOfUser(g, shards_.size()),
                        ShardLocalUser(g, shards_.size()), true};
  }
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (std::optional<uint32_t> local = find_name(s)) {
      return ResolvedUser{s, *local, false};
    }
  }
  return Status::NotFound(NoUserNamedMessage(ref));
}

Result<ShardRouter::ResolvedUser> ShardRouter::ResolvePublished(
    const SnapshotSet& snapshots, std::string_view ref) const {
  size_t total = 0;
  for (const std::shared_ptr<const TrustSnapshot>& snapshot : snapshots) {
    total += snapshot->num_users();
  }
  WOT_ASSIGN_OR_RETURN(
      ResolvedUser resolved,
      ResolveUser(ref, total, [&](size_t s) {
        return snapshots[s]->user_names().Find(ref);
      }));
  // The snapshots were loaded shard by shard, so a commit fan-out racing
  // this read can make the SUM admit an index whose own shard's snapshot
  // (as loaded) does not carry it yet. Queries on that shard would treat
  // the local index as out of range — but the name lookups behind
  // source_name/trustee names hard-check, so gate here. A name hit is
  // always in range, and with one shard total == that snapshot's count,
  // so this never fires spuriously (bit-identity preserved).
  if (resolved.local >= snapshots[resolved.shard]->num_users()) {
    return Status::NotFound("user index " + std::string(ref) +
                            " is not published on its shard yet");
  }
  return resolved;
}

Result<ShardRouter::ResolvedUser> ShardRouter::ResolveStagedLocked(
    std::string_view ref) {
  return ResolveUser(
      ref, static_cast<size_t>(staged_global_users_),
      [&](size_t s) -> std::optional<uint32_t> {
        Result<UserId> id = shards_[s]->service->ResolveStagedUserRef(ref);
        if (!id.ok()) return std::nullopt;
        return id.ValueOrDie().value();
      });
}

Response ShardRouter::RouteTrustLike(const Request& request,
                                     const ConnectionContext& connection,
                                     std::string_view source_ref,
                                     std::string_view target_ref) {
  // Router-level version space: with 2+ shards every response surface
  // reports the router epoch, never a shard-local snapshot version (the
  // two number spaces drift apart as soon as one shard publishes a
  // no-op commit). Read the epoch BEFORE loading the snapshots so it is
  // a consistent lower bound for the data answered from. One shard
  // keeps the shard's own version — bit-identity with a bare frontend.
  const bool sharded = shards_.size() >= 2;
  const uint64_t epoch = epoch_.load(std::memory_order_acquire);
  SnapshotSet snapshots = LoadSnapshots();
  Result<ResolvedUser> source = ResolvePublished(snapshots, source_ref);
  if (!source.ok()) {
    return ErrorResponse(ApiStatus::FromStatus(source.status()));
  }
  Result<ResolvedUser> target = ResolvePublished(snapshots, target_ref);
  if (!target.ok()) {
    return ErrorResponse(ApiStatus::FromStatus(target.status()));
  }
  const ResolvedUser& s = source.ValueOrDie();
  const ResolvedUser& t = target.ValueOrDie();
  if (s.shard != t.shard) {
    // Unreachable with one shard, so the bit-identity property survives.
    return ErrorResponse(ApiStatus::NotFound(
        "users '" + std::string(source_ref) + "' and '" +
        std::string(target_ref) + "' live on different shards (" +
        std::to_string(s.shard) + " and " + std::to_string(t.shard) +
        "); v1 derives trust within one shard's user slice"));
  }
  // Rewrite the refs to the owning shard's local indices and let that
  // shard's frontend build the response — names, category ids and
  // snapshot_version all come from shard-owned state, so the frame needs
  // no further translation.
  Request local = request;
  if (TrustQuery* trust = std::get_if<TrustQuery>(&local.payload)) {
    trust->source = std::to_string(s.local);
    trust->target = std::to_string(t.local);
  } else if (ExplainQuery* explain =
                 std::get_if<ExplainQuery>(&local.payload)) {
    explain->source = std::to_string(s.local);
    explain->target = std::to_string(t.local);
  }
  Response response;
  {
    WOT_TIMED(fanout_latency_ns_);
    response = DispatchShardRead(s.shard, local, connection);
  }
  // After the shard read: the shard frontend's (or an in-process
  // replica's) Dispatch clears the annotation on entry.
  telemetry::SetDispatchShard(static_cast<int64_t>(s.shard));
  if (sharded && response.status.ok()) {
    if (TrustResult* trust = std::get_if<TrustResult>(&response.payload)) {
      trust->snapshot_version = epoch;
    } else if (ExplainResult* explain =
                   std::get_if<ExplainResult>(&response.payload)) {
      explain->snapshot_version = epoch;
    }
  }
  return response;
}

Response ShardRouter::DispatchPayload(const Request& request,
                                      const ConnectionContext& connection) {
  struct Visitor {
    ShardRouter& router;
    const Request& request;
    const ConnectionContext& connection;

    Response operator()(const TrustQuery& q) {
      return router.RouteTrustLike(request, connection, q.source,
                                   q.target);
    }

    Response operator()(const ExplainQuery& q) {
      return router.RouteTrustLike(request, connection, q.source,
                                   q.target);
    }

    Response operator()(const TopKQuery& q) {
      if (q.k <= 0) {
        return ErrorResponse(
            ApiStatus::InvalidArgument("'k' must be positive"));
      }
      const size_t num_shards = router.shards_.size();
      // See RouteTrustLike: epoch read precedes the snapshot loads.
      const uint64_t epoch =
          router.epoch_.load(std::memory_order_acquire);
      SnapshotSet snapshots = router.LoadSnapshots();
      Result<ResolvedUser> source =
          router.ResolvePublished(snapshots, q.source);
      if (!source.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(source.status()));
      }
      // A name staged on several shards has a pinned deterministic
      // owner: the LOWEST shard id holding it (ResolvePublished probes
      // shards in ascending order). source_name always comes from the
      // owner, so repeated queries never flap between shards' spellings
      // of the same name.
      const ResolvedUser& home = source.ValueOrDie();
      TopKResult result;
      result.source_name =
          snapshots[home.shard]->user_names().name(home.local);
      result.snapshot_version =
          num_shards >= 2 ? epoch : snapshots[home.shard]->version();
      // Scatter, on this thread: every shard hosting the source
      // contributes its local top-k through DispatchShardRead (an index
      // ref lives on exactly one shard; a name may be staged on several).
      // Shards without the source — empty shards included — contribute
      // nothing. Legs run in shard order, so the merge input is
      // deterministic.
      std::vector<ScoredUserEntry>& merged = result.trustees;
      int64_t scatter_width = 0;
      {
        WOT_TIMED(router.fanout_latency_ns_);
        for (size_t s = 0; s < num_shards; ++s) {
          std::optional<uint32_t> local;
          if (!home.by_index) {
            local = snapshots[s]->user_names().Find(q.source);
          } else if (s == home.shard) {
            local = home.local;
          }
          if (!local.has_value()) continue;
          ++scatter_width;
          Request leg = request;
          leg.payload = TopKQuery{std::to_string(*local), q.k};
          Response answer = router.DispatchShardRead(s, leg, connection);
          TopKResult* part = std::get_if<TopKResult>(&answer.payload);
          if (part == nullptr) {
            if (!answer.status.ok()) return answer;
            return ErrorResponse(ApiStatus::Internal(
                "topk leg on shard " + std::to_string(s) +
                " answered without a topk result"));
          }
          for (ScoredUserEntry& entry : part->trustees) {
            entry.user = static_cast<uint32_t>(
                GlobalUserOfShard(entry.user, s, num_shards));
            merged.push_back(std::move(entry));
          }
        }
      }
      router.scatter_width_->Record(scatter_width);
      telemetry::SetDispatchShard(static_cast<int64_t>(home.shard));
      // Gather: per-shard lists arrive in TopK order (score desc, local
      // id asc); the global merge keeps the same total order, so one
      // shard degenerates to the bare frontend's list exactly.
      std::sort(merged.begin(), merged.end(),
                [](const ScoredUserEntry& a, const ScoredUserEntry& b) {
                  if (a.score != b.score) return a.score > b.score;
                  return a.user < b.user;
                });
      if (merged.size() > static_cast<size_t>(q.k)) {
        merged.resize(static_cast<size_t>(q.k));
      }
      Response response;
      response.payload = std::move(result);
      return response;
    }

    Response operator()(const IngestUser& q) {
      if (q.name.empty()) {
        return ErrorResponse(
            ApiStatus::InvalidArgument("user name must not be empty"));
      }
      MutexLock lock(router.ingest_mu_);
      const size_t num_shards = router.shards_.size();
      int64_t global = router.staged_global_users_;
      size_t shard =
          ShardOfUser(static_cast<uint64_t>(global), num_shards);
      telemetry::SetDispatchShard(static_cast<int64_t>(shard));
      router.Touch(shard);
      UserId local = router.shards_[shard]->service->AddUser(q.name);
      (void)local;
      WOT_DCHECK(local.value() ==
                 ShardLocalUser(static_cast<uint64_t>(global),
                                num_shards));
      ++router.staged_global_users_;
      Response response;
      response.payload = IngestResult{global};
      return response;
    }

    Response operator()(const IngestCategory& q) {
      if (q.name.empty()) {
        return ErrorResponse(ApiStatus::InvalidArgument(
            "category name must not be empty"));
      }
      MutexLock lock(router.ingest_mu_);
      // Categories are replicated context: fan out so every shard's id
      // space stays aligned (slicing replays them in the same order).
      int64_t assigned = -1;
      for (size_t s = 0; s < router.shards_.size(); ++s) {
        router.Touch(s);
        CategoryId id =
            router.shards_[s]->service->AddCategory(q.name);
        if (s == 0) {
          assigned = static_cast<int64_t>(id.value());
        } else if (static_cast<int64_t>(id.value()) != assigned) {
          return ErrorResponse(ApiStatus::Internal(
              "category id spaces diverged across shards"));
        }
      }
      Response response;
      response.payload = IngestResult{assigned};
      return response;
    }

    Response operator()(const IngestObject& q) {
      if (q.name.empty()) {
        return ErrorResponse(
            ApiStatus::InvalidArgument("object name must not be empty"));
      }
      MutexLock lock(router.ingest_mu_);
      // Dry-run the category resolution against shard 0 (every shard
      // replicates the same category space, so its verdict is
      // canonical) BEFORE staging anywhere: a rejected ingest must
      // leave every shard's staged state untouched. Staging first and
      // surfacing a later shard's rejection would leave the earlier
      // shards' object spaces permanently diverged.
      Result<CategoryId> category =
          router.shards_[0]->service->ResolveStagedCategoryRef(
              q.category);
      if (!category.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(category.status()));
      }
      int64_t assigned = -1;
      for (size_t s = 0; s < router.shards_.size(); ++s) {
        router.Touch(s);
        Result<ObjectId> id =
            router.shards_[s]->service->AddObjectByRef(q.category,
                                                       q.name);
        if (!id.ok()) {
          // Unreachable after the dry-run above passed; any failure now
          // is a broken replication invariant, not a client error.
          return ErrorResponse(ApiStatus::Internal(
              "object ingest diverged across shards: " +
              id.status().ToString()));
        }
        if (s == 0) {
          assigned = static_cast<int64_t>(id.ValueOrDie().value());
        } else if (static_cast<int64_t>(id.ValueOrDie().value()) !=
                   assigned) {
          return ErrorResponse(ApiStatus::Internal(
              "object id spaces diverged across shards"));
        }
      }
      Response response;
      response.payload = IngestResult{assigned};
      return response;
    }

    Response operator()(const IngestReview& q) {
      MutexLock lock(router.ingest_mu_);
      Result<ResolvedUser> writer = router.ResolveStagedLocked(q.writer);
      if (!writer.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(writer.status()));
      }
      const ResolvedUser& w = writer.ValueOrDie();
      telemetry::SetDispatchShard(static_cast<int64_t>(w.shard));
      router.Touch(w.shard);
      // Object ids are replicated (global == local), so q.object passes
      // through; the shard validates its range and policy.
      Result<ReviewId> id =
          router.shards_[w.shard]->service->AddReviewByRef(
              std::to_string(w.local), q.object);
      if (!id.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(id.status()));
      }
      // Wire review id: local * N + shard (dense per shard, globally
      // unique, identity for one shard).
      Response response;
      response.payload = IngestResult{
          static_cast<int64_t>(id.ValueOrDie().value()) *
              static_cast<int64_t>(router.shards_.size()) +
          static_cast<int64_t>(w.shard)};
      return response;
    }

    Response operator()(const IngestRating& q) {
      MutexLock lock(router.ingest_mu_);
      Result<ResolvedUser> rater = router.ResolveStagedLocked(q.rater);
      if (!rater.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(rater.status()));
      }
      const ResolvedUser& r = rater.ValueOrDie();
      const int64_t num_shards =
          static_cast<int64_t>(router.shards_.size());
      // Range-check HERE, in wire-id terms, so the error names the id
      // the client sent, never a shard-local translation. Checked
      // against the owner shard for a positive id, the rater's shard
      // for a negative one.
      size_t owner = q.review >= 0
                         ? static_cast<size_t>(q.review % num_shards)
                         : r.shard;
      int64_t local = q.review >= 0 ? q.review / num_shards : q.review;
      // StagedReviewCount takes the owner shard's writer lock: the count
      // must not be read through the bare staged view while that shard
      // could be staging (all ingest funnels through ingest_mu_ today,
      // but the service's contract is its own lock, not the router's).
      int64_t owner_reviews = static_cast<int64_t>(
          router.shards_[owner]->service->StagedReviewCount());
      if (local < 0 || local >= owner_reviews) {
        if (num_shards == 1) {
          // One shard: wire ids ARE the review-count range, and the
          // message must match the bare frontend byte for byte.
          return ErrorResponse(ApiStatus::NotFound(
              ReviewIdOutOfRangeMessage(q.review, owner_reviews)));
        }
        // Sharded wire ids interleave per residue class, so no "[0, X)"
        // claim is truthful — name the shard instead.
        return ErrorResponse(ApiStatus::NotFound(
            "no review with id " + std::to_string(q.review) +
            " (its shard " + std::to_string(owner) + " holds " +
            std::to_string(owner_reviews) + " reviews)"));
      }
      if (owner != r.shard) {
        // The review exists (checked above) but on another shard.
        // Unreachable with one shard (owner is always shard 0).
        return ErrorResponse(ApiStatus::NotFound(
            "review id " + std::to_string(q.review) +
            " lives on shard " + std::to_string(owner) +
            " but rater '" + q.rater + "' lives on shard " +
            std::to_string(r.shard) +
            "; v1 ratings stay within one shard"));
      }
      int64_t local_review = local;
      telemetry::SetDispatchShard(static_cast<int64_t>(r.shard));
      router.Touch(r.shard);
      Status status = router.shards_[r.shard]->service->AddRatingByRef(
          std::to_string(r.local), local_review, q.value);
      if (!status.ok()) {
        return ErrorResponse(ApiStatus::FromStatus(status));
      }
      Response response;
      response.payload = IngestResult{-1};
      return response;
    }

    Response operator()(const CommitRequest&) {
      MutexLock lock(router.ingest_mu_);
      const size_t num_shards = router.shards_.size();
      // Shards with derivable staged work commit concurrently, one
      // thread each (the recompute is the expensive leg; shard services
      // are independent). No-op shard commits, and a commit with work on
      // one shard only, run on this thread: a fresh thread buys them no
      // overlap, and on glibc each fresh thread allocates from another
      // malloc arena, which grows peak RSS (by about a quarter on the
      // benchmark's replicated_mix workload). Outcomes land in indexed
      // slots; the first failing shard BY INDEX is reported, so the
      // error is deterministic regardless of completion order.
      std::vector<TrustService::CommitStats> stats(num_shards);
      std::vector<Status> outcomes(num_shards, Status::OK());
      auto commit_shard = [&](size_t s) {
        router.Touch(s);
        Result<TrustService::CommitStats> shard_stats =
            router.shards_[s]->service->Commit();
        if (shard_stats.ok()) {
          stats[s] = shard_stats.ValueOrDie();
        } else {
          outcomes[s] = shard_stats.status();
        }
      };
      {
        WOT_TIMED(router.fanout_latency_ns_);
        std::vector<size_t> publishing;
        for (size_t s = 0; s < num_shards; ++s) {
          if (router.shards_[s]->service->CommitWouldPublish()) {
            publishing.push_back(s);
          } else {
            commit_shard(s);
          }
        }
        ParallelFor(
            publishing.size(),
            [&](size_t i) { commit_shard(publishing[i]); },
            publishing.size());
      }
      CommitResult result;
      bool any_published = false;
      for (size_t s = 0; s < num_shards; ++s) {
        if (!outcomes[s].ok()) {
          // The epoch is NOT advanced: a torn fan-out never becomes a
          // visible router-level commit.
          return ErrorResponse(ApiStatus::FromStatus(outcomes[s]));
        }
        any_published |= stats[s].published;
        result.categories_recomputed +=
            static_cast<int64_t>(stats[s].categories_recomputed);
        result.affiliation_rows_recomputed +=
            static_cast<int64_t>(stats[s].affiliation_rows_recomputed);
        result.postings_rebuilt +=
            static_cast<int64_t>(stats[s].postings_rebuilt);
      }
      router.scatter_width_->Record(static_cast<int64_t>(num_shards));
      // Publish the router-level epoch only after EVERY shard swapped:
      // an epoch reader never observes a cross-shard commit half done.
      uint64_t epoch = router.epoch_.load(std::memory_order_relaxed);
      if (any_published) {
        // Quorum gate: the epoch bump that makes this commit visible
        // waits until write_quorum copies of every shard (primary +
        // replicas) have applied it. Quorum 1 short-circuits — the
        // primary already applied — which is the bit-identity baseline.
        ApiStatus quorum = router.AwaitWriteQuorum();
        if (!quorum.ok()) {
          return ErrorResponse(std::move(quorum));
        }
        // Advance the read floors to the just-committed shard versions:
        // replicas below them are no longer eligible to serve reads
        // (commit-visibility gate).
        for (size_t s = 0; s < num_shards; ++s) {
          router.shards_[s]->read_floor.store(
              router.shards_[s]->service->Snapshot()->version(),
              std::memory_order_release);
        }
        ++epoch;
        router.epoch_.store(epoch, std::memory_order_release);
        if (router.epoch_callback_) {
          router.epoch_callback_(epoch);
        }
      }
      result.snapshot_version = epoch;
      result.published = any_published;
      Response response;
      response.payload = result;
      return response;
    }

    Response operator()(const StatsRequest&) {
      SnapshotSet snapshots = router.LoadSnapshots();
      const size_t num_shards = router.shards_.size();
      StatsResult result;
      result.snapshot_version =
          router.epoch_.load(std::memory_order_acquire);
      for (const std::shared_ptr<const TrustSnapshot>& snapshot :
           snapshots) {
        result.users += static_cast<int64_t>(snapshot->num_users());
        result.reviews += static_cast<int64_t>(snapshot->num_reviews());
        result.ratings += static_cast<int64_t>(snapshot->num_ratings());
      }
      // Categories are replicated, not partitioned: report the (shared)
      // space once instead of a meaningless N-fold sum.
      result.categories =
          static_cast<int64_t>(snapshots[0]->num_categories());
      result.service_boots = static_cast<int64_t>(num_shards);
      result.requests_served = router.requests_served_->Value();
      result.connections_active = connection.connections_active;
      result.connections_accepted = connection.connections_accepted;
      result.connection_requests_served =
          connection.connection_requests_served;
      if (num_shards >= 2) {
        result.shards = static_cast<int64_t>(num_shards);
        for (size_t s = 0; s < num_shards; ++s) {
          result.shard_service_boots.push_back(1);
          result.shard_requests_served.push_back(
              router.shards_[s]->dispatches.load(
                  std::memory_order_relaxed));
        }
      }
      // Durability aggregation: counters sum across shards; the epoch is
      // the MINIMUM (the weakest shard bounds how far the whole router
      // is durably snapshotted). All-zero when shards run non-durable —
      // one durable shard out of N still reports, honestly, epoch 0.
      int64_t min_epoch = 0;
      for (size_t s = 0; s < num_shards; ++s) {
        DurabilityStats durability =
            router.shards_[s]->service->durability_stats();
        result.wal_records += durability.wal_records;
        result.wal_bytes += durability.wal_bytes;
        result.segment_bytes += durability.segment_bytes;
        result.recovered_replayed_records +=
            durability.recovered_replayed_records;
        if (s == 0 || durability.segment_epoch < min_epoch) {
          min_epoch = durability.segment_epoch;
        }
      }
      result.segment_epoch = min_epoch;
      if (result.segment_epoch == 0) {
        // Honest zeroes: without a full durable fleet the additive
        // fields stay absent on the NDJSON wire (the one-shard
        // bit-identity property depends on it).
        result.wal_records = 0;
        result.wal_bytes = 0;
        result.segment_bytes = 0;
        result.recovered_replayed_records = 0;
      }
      Response response;
      response.payload = std::move(result);
      return response;
    }

    Response operator()(const MetricsRequest&) {
      // Unreachable: the base envelope answers metrics before
      // DispatchPayload. Kept for variant exhaustiveness.
      return ErrorResponse(ApiStatus::Internal(
          "metrics request reached DispatchPayload"));
    }

    Response operator()(const ReplFetchRequest&) {
      // Unreachable: the base envelope routes replication methods to the
      // attached ReplicationHandler. Kept for variant exhaustiveness.
      return ErrorResponse(ApiStatus::Internal(
          "repl_fetch request reached DispatchPayload"));
    }

    Response operator()(const ReplStatusRequest&) {
      return ErrorResponse(ApiStatus::Internal(
          "repl_status request reached DispatchPayload"));
    }

    Response operator()(const ReplPromoteRequest&) {
      return ErrorResponse(ApiStatus::Internal(
          "repl_promote request reached DispatchPayload"));
    }
  };

  return std::visit(Visitor{*this, request, connection}, request.payload);
}

}  // namespace api
}  // namespace wot
