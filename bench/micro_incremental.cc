// Microbenchmark of incremental Step 1: re-solving the one category an
// appended rating dirties vs re-solving every category. Both run the same
// RecomputeCategories body that TrustService::Commit runs, on pre-built
// indices, so the comparison isolates the reputation compute itself.
#include <map>
#include <vector>

#include <benchmark/benchmark.h>

#include "bench_util.h"
#include "wot/reputation/engine.h"

namespace wot {
namespace {

struct Solved {
  Dataset dataset;
  DatasetIndices indices;
  ReputationResult result;
};

const Solved& SolvedOfSize(size_t users) {
  static std::map<size_t, Solved>* cache = new std::map<size_t, Solved>();
  auto it = cache->find(users);
  if (it != cache->end()) {
    return it->second;
  }
  Dataset dataset =
      GenerateCommunity(bench::PaperScaleConfig(users, 42)).ValueOrDie()
          .dataset;
  DatasetIndices indices(dataset);
  ReputationResult result =
      ComputeReputations(dataset, indices, ReputationOptions{}).ValueOrDie();
  return cache
      ->emplace(users, Solved{std::move(dataset), std::move(indices),
                              std::move(result)})
      .first->second;
}

void BM_AllCategories(benchmark::State& state) {
  const Solved& solved = SolvedOfSize(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    ReputationResult result =
        ComputeReputations(solved.dataset, solved.indices,
                           ReputationOptions{})
            .ValueOrDie();
    benchmark::DoNotOptimize(result.expertise.data().data());
  }
  state.counters["categories"] =
      static_cast<double>(solved.dataset.num_categories());
}
BENCHMARK(BM_AllCategories)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

void BM_OneDirtyCategory(benchmark::State& state) {
  const Solved& solved = SolvedOfSize(static_cast<size_t>(state.range(0)));
  // Re-solving a category in place is idempotent, so every iteration has
  // exactly one dirty category to recompute.
  ReputationResult result = solved.result;
  const std::vector<size_t> dirty = {0};
  for (auto _ : state) {
    WOT_CHECK_OK(RecomputeCategories(solved.dataset, solved.indices, dirty,
                                     ReputationOptions{}, &result));
    benchmark::DoNotOptimize(result.expertise.data().data());
    benchmark::ClobberMemory();
  }
  state.counters["categories"] = static_cast<double>(dirty.size());
}
BENCHMARK(BM_OneDirtyCategory)
    ->Arg(1000)
    ->Arg(4000)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace wot
