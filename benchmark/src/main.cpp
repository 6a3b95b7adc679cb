// nas_benchmark — runs one benchmark workload and prints its metrics.
//
//   nas_benchmark --workload serve-hot-q --seed 7 --seconds 10 --trace 0
//
// Every metric is printed as a "name value unit" line, then the last line
// of stdout is the one-line JSON result:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones
// (see benchmark/README.md).  Failed operations are counted, not fatal; an
// error that stops the run exits 1 without a result line.
#include <cstdio>
#include <exception>
#include <iostream>
#include <string>

#include "harness.hpp"
#include "util/flags.hpp"
#include "workloads.hpp"

int main(int argc, char** argv) {
  try {
    const nas::util::Flags flags(argc, argv);
    nasbench::RunOptions o;
    o.workload = flags.str("workload", "", "build-dense | serve-hot-q | serve-cold-batch");
    o.seed = static_cast<std::uint64_t>(flags.integer("seed", 1, "graph and request seed"));
    o.seconds = flags.real("seconds", 10.0, "measured time per run");
    o.trace = flags.integer("trace", 0, "1: replay the workload layer by layer") != 0;
    o.tiny = flags.boolean("tiny", false, "tiny graphs (smoke test)");
    o.work_dir = flags.str("work-dir", o.work_dir, "snapshots and span logs");
    if (flags.handle_help("nas_benchmark — the repository benchmark")) return 0;
    flags.reject_unknown();
    if (o.seconds <= 0.0) throw std::invalid_argument("--seconds must be > 0");

    nasbench::Report report;
    const bool checks_passed = nasbench::run_workload(o, report);
    const auto& f = report.failures();
    for (const auto& m : report.metrics()) {
      std::printf("%s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    }
    std::printf("# fail_ratio %.6g (%llu failed of %llu attempted)\n",
                f.attempted() == 0 ? 0.0
                                   : static_cast<double>(f.failed()) /
                                         static_cast<double>(f.attempted()),
                static_cast<unsigned long long>(f.failed()),
                static_cast<unsigned long long>(f.attempted()));
    for (const auto& r : f.reasons()) std::printf("# failure: %s\n", r.c_str());
    for (const auto& w : report.warnings()) std::printf("# warning: %s\n", w.c_str());
    const bool correct = checks_passed && f.attempted() > 0;
    std::printf("%s\n", report.render_json(correct).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::cerr << "nas_benchmark: " << e.what() << "\n";
    return 1;
  }
}
