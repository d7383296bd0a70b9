#include "community.h"

#include <unistd.h>

#include <filesystem>

#include "bench_util.h"
#include "wot/io/binary_format.h"
#include "wot/synth/generator.h"

namespace perfbench {

wot::Result<wot::Dataset> LoadCommunity(size_t users, uint64_t seed,
                                        const std::string& cache_dir) {
  std::string path;
  if (!cache_dir.empty()) {
    path = cache_dir + "/community-" + std::to_string(users) + "-" +
           std::to_string(seed) + ".wotb";
    if (std::filesystem::exists(path)) {
      wot::Result<wot::Dataset> cached = wot::LoadDatasetBinary(path);
      if (cached.ok()) return cached;
    }
  }
  WOT_ASSIGN_OR_RETURN(
      wot::SynthCommunity community,
      wot::GenerateCommunity(wot::bench::PaperScaleConfig(users, seed)));
  if (!path.empty()) {
    std::error_code ignored;
    std::filesystem::create_directories(cache_dir, ignored);
    // Write-then-rename so a concurrent or interrupted run never reads a
    // torn cache file.
    const std::string partial = path + ".tmp" + std::to_string(::getpid());
    if (wot::SaveDatasetBinary(community.dataset, partial).ok()) {
      std::filesystem::rename(partial, path, ignored);
    }
    std::filesystem::remove(partial, ignored);
  }
  return std::move(community.dataset);
}

}  // namespace perfbench
