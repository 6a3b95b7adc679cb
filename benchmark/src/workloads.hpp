// The benchmark's workloads.  Each one builds an Elkin-Matar spanner of a
// generated graph and serves distances from it over loopback TCP through an
// in-process nas_served-style server (1 shard, 1 replica, 2 serve threads),
// loaded by 2 closed-loop client connections.  What differs is what a run
// measures:
//
//   build-dense       the spanner build on a dense random graph; a short
//                     cache-hot serving tail supplies the serving metrics.
//   serve-hot-q       single Q lines, zipf sources, every source cached.
//   serve-cold-batch  BATCH 32, uniform sources, the cache holds 1/16 of them.
//
// benchmark/README.md gives the reasons and the layer-to-metric table.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.hpp"

namespace nasbench {

struct RunOptions {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny graphs and request counts, for the harness's smoke test.
  bool tiny = false;
  /// Scratch directory for snapshots and span logs (created if missing).
  std::string work_dir = ".bench_build/work";
};

[[nodiscard]] const std::vector<std::string>& workload_names();

/// Runs one workload and fills `report` (end-to-end metrics untraced,
/// per-layer metrics traced).  Returns true when every correctness check
/// passed; failed operations are counted in report.failures().
bool run_workload(const RunOptions& options, Report& report);

}  // namespace nasbench
