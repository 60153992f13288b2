#include "core/cache.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/obs.h"
#include "sitest/io.h"
#include "util/log.h"
#include "util/rng.h"

namespace sitam {

namespace {

std::filesystem::path group_file(const std::string& directory,
                                 const std::string& key, int parts) {
  return std::filesystem::path(directory) /
         (key + "_g" + std::to_string(parts) + ".sitest");
}

}  // namespace

std::uint64_t workload_config_hash(const Soc& soc,
                                   const SiWorkloadConfig& config) {
  // Hash the generator parameters so any change invalidates the key.
  std::uint64_t h = config.seed;
  const auto mix = [&h](std::uint64_t value) { hash_mix(h, value); };
  mix(static_cast<std::uint64_t>(config.pattern_count));
  mix(static_cast<std::uint64_t>(config.patterns.min_aggressors));
  mix(static_cast<std::uint64_t>(config.patterns.max_aggressors));
  mix(static_cast<std::uint64_t>(config.patterns.min_external_aggressors));
  mix(static_cast<std::uint64_t>(config.patterns.max_external_aggressors));
  mix(static_cast<std::uint64_t>(config.patterns.locality_window));
  mix(static_cast<std::uint64_t>(config.patterns.external_core_ring));
  mix(config.patterns.quiet_neighbors ? 1 : 0);
  mix(static_cast<std::uint64_t>(config.patterns.bus_width));
  mix(static_cast<std::uint64_t>(config.patterns.bus_use_probability *
                                 1e6));
  // The groupings and the grouping/partition knobs change the compacted
  // test sets, so SitamContext's workload tier must not serve a workload
  // prepared under different ones (the disk tier keys groupings into the
  // filename, the context keys its tier by this hash alone).
  mix(config.groupings.size());
  for (const int parts : config.groupings) {
    mix(static_cast<std::uint64_t>(parts));
  }
  mix(static_cast<std::uint64_t>(config.grouping.bus_width));
  mix(static_cast<std::uint64_t>(config.grouping.partition.epsilon * 1e6));
  mix(static_cast<std::uint64_t>(config.grouping.partition.random_starts));
  mix(static_cast<std::uint64_t>(config.grouping.partition.max_fm_passes));
  mix(static_cast<std::uint64_t>(config.grouping.partition.coarsen_limit));
  mix(config.grouping.partition.seed);
  // Include the SOC's structure, not just its name.
  mix(soc_structure_hash(soc));
  return h;
}

std::string workload_cache_key(const Soc& soc,
                               const SiWorkloadConfig& config) {
  std::ostringstream os;
  os << soc.name << "_nr" << config.pattern_count << "_s" << std::hex
     << workload_config_hash(soc, config);
  return os.str();
}

void save_workload(const SiWorkload& workload, const std::string& directory) {
  std::filesystem::create_directories(directory);
  const std::string key =
      workload_cache_key(workload.soc(), workload.config());
  for (const int parts : workload.groupings()) {
    const auto path = group_file(directory, key, parts);
    std::ofstream out(path);
    if (!out) {
      throw std::runtime_error("cache: cannot write " + path.string());
    }
    out << test_set_to_text(workload.tests(parts));
    if (!out) {
      throw std::runtime_error("cache: write failed for " + path.string());
    }
  }
}

std::optional<SiWorkload> load_workload(const Soc& soc,
                                        const SiWorkloadConfig& config,
                                        const std::string& directory) {
  const std::string key = workload_cache_key(soc, config);
  std::vector<SiTestSet> test_sets;
  test_sets.reserve(config.groupings.size());
  for (const int parts : config.groupings) {
    const auto path = group_file(directory, key, parts);
    std::ifstream in(path);
    if (!in) {
      SITAM_COUNTER("core.cache.workload_misses", 1);
      return std::nullopt;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    test_sets.push_back(test_set_from_text(buffer.str()));
  }
  SITAM_INFO << "cache hit: " << key << " from " << directory;
  SITAM_COUNTER("core.cache.workload_hits", 1);
  return SiWorkload::from_prepared(soc, config, std::move(test_sets));
}

SiWorkload prepare_cached(const Soc& soc, const SiWorkloadConfig& config,
                          const std::string& directory,
                          const CancelToken* cancel) {
  if (auto cached = load_workload(soc, config, directory)) {
    return std::move(*cached);
  }
  SiWorkload workload = SiWorkload::prepare(soc, config, cancel);
  save_workload(workload, directory);
  return workload;
}

}  // namespace sitam
