// The benchmark's input community: the synthetic Epinions-shaped
// community every workload serves, generated from a seed at a fixed user
// count and cached as a wot binary dataset so repeated runs in one
// checkout skip the generator.
#ifndef PERFBENCH_COMMUNITY_H_
#define PERFBENCH_COMMUNITY_H_

#include <cstdint>
#include <string>

#include "wot/community/dataset.h"
#include "wot/util/result.h"

namespace perfbench {

/// Generates (or loads from \p cache_dir, when non-empty) the synthetic
/// community of \p users users and generator seed \p seed, shaped as the
/// experiment drivers' paper workload (bench::PaperScaleConfig).
wot::Result<wot::Dataset> LoadCommunity(size_t users, uint64_t seed,
                                        const std::string& cache_dir);

}  // namespace perfbench

#endif  // PERFBENCH_COMMUNITY_H_
