#include "wot/service/trust_service.h"

#include <algorithm>
#include <utility>

#include "wot/core/affiliation.h"
#include "wot/telemetry/timed.h"
#include "wot/util/logging.h"
#include "wot/util/string_util.h"

namespace wot {

std::string UserIndexOutOfRangeMessage(std::string_view ref,
                                       size_t num_users) {
  return "user index " + std::string(ref) + " out of range [0, " +
         std::to_string(num_users) + ")";
}

std::string NoUserNamedMessage(std::string_view ref) {
  return "no user named '" + std::string(ref) + "'";
}

std::string ReviewIdOutOfRangeMessage(int64_t review, int64_t bound) {
  return "review id " + std::to_string(review) + " out of range [0, " +
         std::to_string(bound) + ")";
}

TrustService::TrustService(const TrustServiceOptions& options)
    : options_(options),
      metrics_(std::make_shared<telemetry::MetricRegistry>()),
      commits_(metrics_->counter("service.commits")),
      commit_ns_(metrics_->histogram("service.commit_ns")),
      commit_update_ns_(metrics_->histogram("service.commit_update_ns")),
      commit_affiliation_ns_(
          metrics_->histogram("service.commit_affiliation_ns")),
      commit_postings_ns_(
          metrics_->histogram("service.commit_postings_ns")),
      commit_publish_ns_(metrics_->histogram("service.commit_publish_ns")),
      commit_dirty_categories_(
          metrics_->histogram("service.commit_dirty_categories")),
      builder_(options.builder),
      engine_(options.reputation) {}

Result<std::unique_ptr<TrustService>> TrustService::Create(
    const Dataset& seed, const TrustServiceOptions& options) {
  std::unique_ptr<TrustService> service(new TrustService(options));
  // No other thread can reference the service yet, but the replay writes
  // builder_ state, so take the writer lock for the whole boot — it is
  // uncontended, and the analysis then proves the accesses like any
  // other write path.
  MutexLock lock(service->writer_mu_);
  // Replay the seed in storage order: the builder assigns ids densely in
  // insertion order, so every id of the seed stays valid in the service.
  for (const auto& category : seed.categories()) {
    service->builder_.AddCategory(category.name);
  }
  for (const auto& user : seed.users()) {
    service->builder_.AddUser(user.name);
  }
  for (const auto& object : seed.objects()) {
    Result<ObjectId> id =
        service->builder_.AddObject(object.category, object.name);
    if (!id.ok()) return id.status();
  }
  for (const auto& review : seed.reviews()) {
    Result<ReviewId> id =
        service->builder_.AddReview(review.writer, review.object);
    if (!id.ok()) return id.status();
  }
  for (const auto& rating : seed.ratings()) {
    WOT_RETURN_IF_ERROR(
        service->builder_.AddRating(rating.rater, rating.review,
                                    rating.value));
  }
  for (const auto& statement : seed.trust_statements()) {
    WOT_RETURN_IF_ERROR(
        service->builder_.AddTrust(statement.source, statement.target));
  }

  WOT_ASSIGN_OR_RETURN(CommitStats stats, service->CommitLocked());
  (void)stats;
  return service;
}

Result<std::unique_ptr<TrustService>> TrustService::CreateEmpty(
    const TrustServiceOptions& options) {
  return Create(Dataset(), options);
}

Result<std::unique_ptr<TrustService>> TrustService::Restore(
    Dataset dataset, ReputationResult reputation, DenseMatrix affiliation,
    std::vector<ExpertisePostingPtr> postings, uint64_t version,
    const TrustServiceOptions& options) {
  if (version == 0) {
    return Status::InvalidArgument("snapshot version must be >= 1");
  }
  std::unique_ptr<TrustService> service(new TrustService(options));
  MutexLock lock(service->writer_mu_);
  // Adopt the persisted dataset wholesale instead of replaying it
  // through the per-entity ingest path: ids are already dense in column
  // order (the segment loader went through FromValidatedColumns), the
  // per-row policy rules are re-checked inside AdoptValidated, and the
  // ingest dedup keys are rebuilt lazily on the first mutation. This is
  // what makes durable boot O(load) instead of O(rebuild).
  WOT_RETURN_IF_ERROR(service->builder_.AdoptValidated(std::move(dataset)));

  const Dataset& staged = service->builder_.StagedView();
  if (affiliation.rows() != staged.num_users() ||
      affiliation.cols() != staged.num_categories()) {
    return Status::InvalidArgument(
        "affiliation shape does not match the restored dataset");
  }
  if (!postings.empty() && postings.size() != staged.num_categories()) {
    return Status::InvalidArgument(
        "postings do not cover the restored categories");
  }
  for (const ExpertisePostingPtr& posting : postings) {
    if (posting == nullptr) {
      return Status::InvalidArgument("null expertise posting");
    }
  }
  // Seed the incremental engine with the persisted converged state (it
  // validates the reputation shapes) so the next Commit() recomputes only
  // categories dirtied after this restore point. The index-free overload
  // counts the activity fingerprints off the columns directly.
  WOT_RETURN_IF_ERROR(service->engine_.Seed(staged, reputation));

  // Rebuilding the name directory as one chunk preserves lookup
  // semantics exactly (first id wins under duplicate names either way).
  std::shared_ptr<const NameIndex> user_names =
      NameIndex::Extend(NameIndex::Empty(), staged.users());
  auto category_names = std::make_shared<std::vector<std::string>>();
  category_names->reserve(staged.num_categories());
  for (const Category& category : staged.categories()) {
    category_names->push_back(category.name);
  }

  std::shared_ptr<const TrustSnapshot> snapshot = TrustSnapshot::Assemble(
      std::move(reputation), std::move(affiliation), std::move(postings),
      std::move(user_names), std::move(category_names), version,
      staged.num_reviews(), staged.num_ratings());
  service->published_.store(snapshot, std::memory_order_release);
  service->published_users_ = staged.num_users();
  service->published_categories_ = staged.num_categories();
  service->published_reviews_ = staged.num_reviews();
  service->published_ratings_ = staged.num_ratings();
  service->next_version_ = version + 1;
  return service;
}

UserId TrustService::AddUser(std::string name) {
  MutexLock lock(writer_mu_);
  UserId id = builder_.AddUser(std::move(name));
  if (mutation_log_ != nullptr) {
    mutation_log_->LogAddUser(builder_.StagedView().users().back().name);
  }
  return id;
}

CategoryId TrustService::AddCategory(std::string name) {
  MutexLock lock(writer_mu_);
  CategoryId id = builder_.AddCategory(std::move(name));
  if (mutation_log_ != nullptr) {
    mutation_log_->LogAddCategory(
        builder_.StagedView().categories().back().name);
  }
  return id;
}

Result<ObjectId> TrustService::AddObject(CategoryId category,
                                         std::string name) {
  MutexLock lock(writer_mu_);
  Result<ObjectId> id = builder_.AddObject(category, std::move(name));
  if (id.ok() && mutation_log_ != nullptr) {
    mutation_log_->LogAddObject(category.value(),
                                builder_.StagedView().objects().back().name);
  }
  return id;
}

Result<ReviewId> TrustService::AddReview(UserId writer, ObjectId object) {
  MutexLock lock(writer_mu_);
  Result<ReviewId> id = builder_.AddReview(writer, object);
  if (id.ok()) {
    MarkDirty(writer);
    if (mutation_log_ != nullptr) {
      mutation_log_->LogAddReview(writer.value(), object.value());
    }
  }
  return id;
}

Status TrustService::AddRating(UserId rater, ReviewId review, double value) {
  MutexLock lock(writer_mu_);
  Status status = builder_.AddRating(rater, review, value);
  if (status.ok()) {
    MarkDirty(rater);
    if (mutation_log_ != nullptr) {
      mutation_log_->LogAddRating(rater.value(), review.value(), value);
    }
  }
  return status;
}

Result<UserId> TrustService::ResolveStagedUserRef(std::string_view ref) {
  MutexLock lock(writer_mu_);
  return ResolveStagedUserLocked(ref);
}

Result<UserId> TrustService::ResolveStagedUserLocked(std::string_view ref) {
  const Dataset& staged = builder_.StagedView();
  if (ref.empty()) {
    return Status::InvalidArgument(kEmptyUserRefMessage);
  }
  Result<int64_t> as_index = ParseInt64(ref);
  if (as_index.ok()) {
    int64_t index = as_index.ValueOrDie();
    if (index < 0 || static_cast<size_t>(index) >= staged.num_users()) {
      return Status::NotFound(
          UserIndexOutOfRangeMessage(ref, staged.num_users()));
    }
    return UserId(static_cast<uint32_t>(index));
  }
  const std::vector<User>& users = staged.users();
  for (; staged_indexed_users_ < users.size(); ++staged_indexed_users_) {
    staged_name_index_.emplace(users[staged_indexed_users_].name,
                               users[staged_indexed_users_].id);
  }
  auto it = staged_name_index_.find(std::string(ref));
  if (it == staged_name_index_.end()) {
    return Status::NotFound(NoUserNamedMessage(ref));
  }
  return it->second;
}

Result<CategoryId> TrustService::ResolveStagedCategoryLocked(
    std::string_view ref) {
  const Dataset& staged = builder_.StagedView();
  if (ref.empty()) {
    return Status::InvalidArgument("empty category reference");
  }
  Result<int64_t> as_index = ParseInt64(ref);
  if (as_index.ok()) {
    int64_t index = as_index.ValueOrDie();
    if (index < 0 ||
        static_cast<size_t>(index) >= staged.num_categories()) {
      return Status::NotFound(
          "category index " + std::string(ref) + " out of range [0, " +
          std::to_string(staged.num_categories()) + ")");
    }
    return CategoryId(static_cast<uint32_t>(index));
  }
  return staged.FindCategory(std::string(ref));
}

Result<CategoryId> TrustService::ResolveStagedCategoryRef(
    std::string_view ref) {
  MutexLock lock(writer_mu_);
  return ResolveStagedCategoryLocked(ref);
}

Result<ObjectId> TrustService::AddObjectByRef(std::string_view category_ref,
                                              std::string name) {
  MutexLock lock(writer_mu_);
  WOT_ASSIGN_OR_RETURN(CategoryId category,
                       ResolveStagedCategoryLocked(category_ref));
  Result<ObjectId> id = builder_.AddObject(category, std::move(name));
  if (id.ok() && mutation_log_ != nullptr) {
    mutation_log_->LogAddObject(category.value(),
                                builder_.StagedView().objects().back().name);
  }
  return id;
}

Result<ReviewId> TrustService::AddReviewByRef(std::string_view writer_ref,
                                              int64_t object) {
  MutexLock lock(writer_mu_);
  WOT_ASSIGN_OR_RETURN(UserId writer, ResolveStagedUserLocked(writer_ref));
  if (object < 0 || static_cast<uint64_t>(object) >=
                        builder_.StagedView().num_objects()) {
    return Status::NotFound(
        "object id " + std::to_string(object) + " out of range [0, " +
        std::to_string(builder_.StagedView().num_objects()) + ")");
  }
  Result<ReviewId> id =
      builder_.AddReview(writer, ObjectId(static_cast<uint32_t>(object)));
  if (id.ok()) {
    MarkDirty(writer);
    if (mutation_log_ != nullptr) {
      mutation_log_->LogAddReview(writer.value(),
                                  static_cast<uint32_t>(object));
    }
  }
  return id;
}

Status TrustService::AddRatingByRef(std::string_view rater_ref,
                                    int64_t review, double value) {
  MutexLock lock(writer_mu_);
  WOT_ASSIGN_OR_RETURN(UserId rater, ResolveStagedUserLocked(rater_ref));
  if (review < 0 || static_cast<uint64_t>(review) >=
                        builder_.StagedView().num_reviews()) {
    return Status::NotFound(ReviewIdOutOfRangeMessage(
        review,
        static_cast<int64_t>(builder_.StagedView().num_reviews())));
  }
  Status status = builder_.AddRating(
      rater, ReviewId(static_cast<uint32_t>(review)), value);
  if (status.ok()) {
    MarkDirty(rater);
    if (mutation_log_ != nullptr) {
      mutation_log_->LogAddRating(rater.value(),
                                  static_cast<uint32_t>(review), value);
    }
  }
  return status;
}

void TrustService::MarkDirty(UserId user) {
  if (user.index() >= dirty_users_.size()) {
    dirty_users_.resize(user.index() + 1, false);
  }
  dirty_users_[user.index()] = true;
}

Result<TrustService::CommitStats> TrustService::Commit() {
  MutexLock lock(writer_mu_);
  return CommitLocked();
}

bool TrustService::CommitWouldPublish() {
  MutexLock lock(writer_mu_);
  return !StagedMatchesPublishedLocked();
}

bool TrustService::StagedMatchesPublishedLocked() const {
  const Dataset& staged = builder_.StagedView();
  return published_.load(std::memory_order_acquire) != nullptr &&
         staged.num_users() == published_users_ &&
         staged.num_categories() == published_categories_ &&
         staged.num_reviews() == published_reviews_ &&
         staged.num_ratings() == published_ratings_;
}

Result<TrustService::CommitStats> TrustService::CommitLocked() {
  telemetry::Timer timer;
  CommitStats stats;
  const Dataset& staged = builder_.StagedView();
  std::shared_ptr<const TrustSnapshot> prev =
      published_.load(std::memory_order_acquire);

  if (StagedMatchesPublishedLocked()) {
    // Nothing derivable changed (at most new reviewless objects): the
    // serving snapshot stays as is. The log still sees the commit so a
    // batched-fsync WAL flushes before the ack.
    stats.version = prev->version();
    stats.elapsed_millis = timer.ElapsedMillis();
    if (mutation_log_ != nullptr) {
      WOT_RETURN_IF_ERROR(mutation_log_->LogCommit(
          stats.version, /*published=*/false, prev, staged));
    }
    return stats;
  }

  DatasetIndices indices(staged);

  // Step 1: dirty categories only.
  {
    WOT_TIMED(commit_update_ns_);
    WOT_RETURN_IF_ERROR(engine_.Update(staged, indices));
  }
  const std::vector<size_t>& dirty_categories =
      engine_.last_recomputed_categories();
  stats.categories_recomputed = dirty_categories.size();
  commit_dirty_categories_->Record(
      static_cast<int64_t>(dirty_categories.size()));
  // The snapshot owns an independent copy so later Updates cannot mutate
  // published state behind readers' backs.
  ReputationResult reputation = engine_.result();

  // Step 2: refresh only the affiliation rows of users whose own activity
  // changed; everyone else keeps their previous row (zero-padded for new
  // categories, where their counts are still zero).
  const size_t num_users = staged.num_users();
  const size_t num_categories = staged.num_categories();
  const size_t prev_users = prev != nullptr ? prev->num_users() : 0;
  DenseMatrix affiliation(num_users, num_categories, 0.0);
  {
    WOT_TIMED(commit_affiliation_ns_);
    for (size_t u = 0; u < num_users; ++u) {
      const bool dirty =
          u >= prev_users || (u < dirty_users_.size() && dirty_users_[u]);
      if (dirty) {
        ComputeAffiliationRow(staged, indices,
                              UserId(static_cast<uint32_t>(u)),
                              affiliation.Row(u));
        ++stats.affiliation_rows_recomputed;
      } else {
        auto src = prev->affiliation().Row(u);
        std::copy(src.begin(), src.end(), affiliation.Row(u).begin());
      }
    }
  }

  // Step 3 inputs: rebuild postings for dirty categories; clean categories
  // share the previous snapshot's postings (their expertise column is
  // unchanged — new users carry zero expertise there and postings omit
  // zeros).
  std::vector<ExpertisePostingPtr> postings;
  if (options_.build_postings) {
    WOT_TIMED(commit_postings_ns_);
    postings.resize(num_categories);
    std::vector<bool> category_dirty(num_categories, false);
    for (size_t c : dirty_categories) {
      category_dirty[c] = true;
    }
    static const std::vector<ExpertisePostingPtr> kNoPostings;
    const std::vector<ExpertisePostingPtr>& prev_postings =
        prev != nullptr ? prev->deriver().postings() : kNoPostings;
    for (size_t c = 0; c < num_categories; ++c) {
      if (!category_dirty[c] && c < prev_postings.size()) {
        postings[c] = prev_postings[c];
      } else {
        postings[c] =
            TrustDeriver::BuildCategoryPosting(reputation.expertise, c);
        ++stats.postings_rebuilt;
      }
    }
  }

  // Name directory: extend the previous snapshot's persistent index with
  // the appended user tail (shared wholesale when no users were added),
  // and reshare category names unless categories grew.
  std::shared_ptr<const NameIndex> user_names = NameIndex::Extend(
      prev != nullptr ? prev->shared_user_names() : NameIndex::Empty(),
      staged.users());
  std::shared_ptr<const std::vector<std::string>> category_names;
  if (prev != nullptr &&
      prev->category_names().size() == staged.num_categories()) {
    category_names = prev->shared_category_names();
  } else {
    auto names = std::make_shared<std::vector<std::string>>();
    names->reserve(staged.num_categories());
    for (const Category& category : staged.categories()) {
      names->push_back(category.name);
    }
    category_names = std::move(names);
  }

  std::shared_ptr<const TrustSnapshot> snapshot;
  {
    WOT_TIMED(commit_publish_ns_);
    snapshot = TrustSnapshot::Assemble(
        std::move(reputation), std::move(affiliation), std::move(postings),
        std::move(user_names), std::move(category_names), next_version_++,
        staged.num_reviews(), staged.num_ratings());
    published_.store(snapshot, std::memory_order_release);
  }

  published_users_ = staged.num_users();
  published_categories_ = staged.num_categories();
  published_reviews_ = staged.num_reviews();
  published_ratings_ = staged.num_ratings();
  std::fill(dirty_users_.begin(), dirty_users_.end(), false);

  stats.version = snapshot->version();
  stats.published = true;
  commits_->Increment();
  stats.elapsed_millis = timer.RecordInto(commit_ns_) / 1e6;
  WOT_LOG(Info) << "published trust snapshot v" << stats.version << " ("
                << stats.categories_recomputed << " categories, "
                << stats.affiliation_rows_recomputed
                << " affiliation rows, " << stats.postings_rebuilt
                << " postings recomputed) in " << stats.elapsed_millis
                << " ms";
  if (mutation_log_ != nullptr) {
    WOT_RETURN_IF_ERROR(mutation_log_->LogCommit(
        stats.version, /*published=*/true, snapshot, staged));
  }
  return stats;
}

}  // namespace wot
