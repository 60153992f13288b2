// Workload cache: persists the compacted SI test sets of a prepared
// workload to a directory and reloads them on the next run.
//
// Generating and two-dimensionally compacting an N_r = 100k workload takes
// tens of seconds; the resulting SiTestSets are a few hundred bytes. The
// cache key encodes everything the test sets depend on (SOC name, pattern
// count, seed, groupings and the generator parameters), so a stale entry
// can only be hit deliberately.
#pragma once

#include <cstdint>
#include <optional>
#include <string>

#include "core/flow.h"

namespace sitam {

/// 64-bit hash of everything a prepared workload depends on: the SOC
/// structure and every result-affecting SiWorkloadConfig field (generator
/// knobs, groupings, grouping/partition parameters, seed). Excludes the
/// bit-identical throughput switches (parallel_prepare, compaction
/// threads). Shared by the disk cache key and SitamContext request keys.
[[nodiscard]] std::uint64_t workload_config_hash(const Soc& soc,
                                                const SiWorkloadConfig& config);

/// Deterministic cache key (filesystem-safe), derived from
/// workload_config_hash.
[[nodiscard]] std::string workload_cache_key(const Soc& soc,
                                             const SiWorkloadConfig& config);

/// Writes one `.sitest` file per grouping under `directory` (created if
/// absent). Throws std::runtime_error on I/O failure.
void save_workload(const SiWorkload& workload, const std::string& directory);

/// Loads a previously saved workload; returns nullopt when any grouping's
/// file is missing. Throws std::runtime_error on corrupt files.
[[nodiscard]] std::optional<SiWorkload> load_workload(
    const Soc& soc, const SiWorkloadConfig& config,
    const std::string& directory);

/// prepare() with the disk cache in front: load if present, else prepare +
/// save. SitamContext runs it as its workload tier's compute when a cache
/// directory is configured. `cancel` is forwarded to SiWorkload::prepare
/// (nullptr = never cancelled); a cancelled prepare unwinds before
/// anything is saved.
[[nodiscard]] SiWorkload prepare_cached(const Soc& soc,
                                        const SiWorkloadConfig& config,
                                        const std::string& directory,
                                        const CancelToken* cancel = nullptr);

}  // namespace sitam
