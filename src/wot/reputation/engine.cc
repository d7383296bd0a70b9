#include "wot/reputation/engine.h"

#include <numeric>

#include "wot/reputation/riggs.h"
#include "wot/reputation/writer_reputation.h"
#include "wot/util/parallel_for.h"

namespace wot {

Status RecomputeCategories(const Dataset& dataset,
                           const DatasetIndices& indices,
                           const std::vector<size_t>& categories,
                           const ReputationOptions& options,
                           ReputationResult* result) {
  if (options.tolerance <= 0.0) {
    return Status::InvalidArgument("tolerance must be positive");
  }
  if (options.max_iterations == 0) {
    return Status::InvalidArgument("max_iterations must be positive");
  }
  const size_t num_users = dataset.num_users();
  WOT_DCHECK(result->expertise.rows() == num_users &&
             result->expertise.cols() == dataset.num_categories() &&
             result->rater_reputation.rows() == num_users &&
             result->rater_reputation.cols() == dataset.num_categories() &&
             result->review_quality.size() == dataset.num_reviews() &&
             result->convergence.size() == dataset.num_categories());

  // Each worker writes to disjoint columns (its own category) and to the
  // review-quality slots of its own category's reviews, so no locking is
  // needed and results are independent of scheduling.
  ParallelFor(
      categories.size(),
      [&](size_t k) {
        const size_t c = categories[k];
        CategoryView view(dataset, indices,
                          CategoryId(static_cast<uint32_t>(c)));
        RiggsResult riggs = RiggsFixedPoint(view, options);
        std::vector<double> writer_rep =
            ComputeWriterReputations(view, riggs.review_quality, options);

        for (size_t u = 0; u < num_users; ++u) {
          result->expertise.At(u, c) = 0.0;
          result->rater_reputation.At(u, c) = 0.0;
        }
        for (size_t lw = 0; lw < view.num_writers(); ++lw) {
          result->expertise.At(view.writer_id(lw).index(), c) =
              writer_rep[lw];
        }
        for (size_t lx = 0; lx < view.num_raters(); ++lx) {
          result->rater_reputation.At(view.rater_id(lx).index(), c) =
              riggs.rater_reputation[lx];
        }
        for (size_t lr = 0; lr < view.num_reviews(); ++lr) {
          result->review_quality[view.review_id(lr).index()] =
              riggs.review_quality[lr];
        }
        result->convergence[c] = riggs.convergence;
      },
      options.num_threads);
  return Status::OK();
}

Result<ReputationResult> ComputeReputations(
    const Dataset& dataset, const DatasetIndices& indices,
    const ReputationOptions& options) {
  const size_t num_users = dataset.num_users();
  const size_t num_categories = dataset.num_categories();

  ReputationResult result;
  result.expertise = DenseMatrix(num_users, num_categories, 0.0);
  result.rater_reputation = DenseMatrix(num_users, num_categories, 0.0);
  result.review_quality.assign(dataset.num_reviews(), 0.0);
  result.convergence.assign(num_categories, ConvergenceInfo{});

  std::vector<size_t> all(num_categories);
  std::iota(all.begin(), all.end(), size_t{0});
  WOT_RETURN_IF_ERROR(
      RecomputeCategories(dataset, indices, all, options, &result));
  return result;
}

}  // namespace wot
