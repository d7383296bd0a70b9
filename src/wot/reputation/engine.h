// The multi-category reputation engine: runs the Riggs fixed point and
// writer aggregation in every category (in parallel) and assembles the
// Users_Category matrices the trust derivation consumes.
//
// Output matrices are U x C:
//   expertise  E[i][c] = writer reputation of user i in category c (eq. 3);
//                        the paper's Users_Category Expertise matrix.
//   rater_reputation[i][c] = rater reputation of user i in category c
//                        (eq. 2); used by the Table-2 experiment.
// Entries for users with no activity in a category are 0.
#ifndef WOT_REPUTATION_ENGINE_H_
#define WOT_REPUTATION_ENGINE_H_

#include <vector>

#include "wot/community/dataset.h"
#include "wot/community/indices.h"
#include "wot/linalg/dense_matrix.h"
#include "wot/reputation/options.h"
#include "wot/util/result.h"

namespace wot {

/// \brief Everything Step 1 produces.
struct ReputationResult {
  /// E: U x C writer expertise (eq. 3).
  DenseMatrix expertise;
  /// U x C rater reputation (eq. 2).
  DenseMatrix rater_reputation;
  /// quality[review] in [0, 1] for every review (eq. 1), converged.
  std::vector<double> review_quality;
  /// Per-category convergence diagnostics (indexed by category).
  std::vector<ConvergenceInfo> convergence;
};

/// \brief Re-solves Step 1 for the listed \p categories of \p dataset into
/// \p result, resetting each listed category's expertise and rater
/// columns first; every other entry of \p result is left as it is.
///
/// \p result must already have the dataset's shape (U x C matrices, one
/// quality slot per review, one convergence entry per category).
/// Categories are independent in the Riggs model, so re-solving exactly the
/// categories whose reviews or ratings changed gives the same bits as a
/// full run. They are processed concurrently on options.num_threads
/// workers; deterministic regardless of thread count.
Status RecomputeCategories(const Dataset& dataset,
                           const DatasetIndices& indices,
                           const std::vector<size_t>& categories,
                           const ReputationOptions& options,
                           ReputationResult* result);

/// \brief Runs Step 1 over all categories of \p dataset: RecomputeCategories
/// over every category on a zeroed result.
Result<ReputationResult> ComputeReputations(const Dataset& dataset,
                                            const DatasetIndices& indices,
                                            const ReputationOptions& options);

}  // namespace wot

#endif  // WOT_REPUTATION_ENGINE_H_
