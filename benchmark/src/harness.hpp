// The benchmark harness's own logic, kept apart from the workloads so the
// tests in benchmark/tests can pin it down without running a workload:
//
//   * sample statistics: the nearest-rank percentile, the rule that a tail
//     percentile is only reported with at least ten samples beyond it, and
//     latency figures as medians over windows of a pass;
//   * self time by subtraction between adjacent layers, which reports a
//     negative difference loudly instead of clamping it away;
//   * the failure counter behind `failed`/`attempted`, and the answer checks
//     that feed it;
//   * the in-memory span log of a traced run;
//   * the report: metrics by name and unit, rendered as the one-line JSON
//     result the benchmark contract asks for.
//
// Every clock reading goes through util::Timer.
#pragma once

#include <cstddef>
#include <cstdint>
#include <initializer_list>
#include <map>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.hpp"
#include "util/timer.hpp"

namespace nasbench {

// --- sample statistics -------------------------------------------------------

/// Nearest-rank percentile of an ascending-sorted, non-empty sample: the
/// value at 1-based rank ceil(q·n).  q in (0, 1].
[[nodiscard]] double percentile(std::span<const double> sorted, double q);

/// Median of an unsorted sample (mean of the middle two for even sizes).
[[nodiscard]] double median(std::vector<double> values);

/// Samples strictly beyond the nearest-rank q-percentile of n samples:
/// n − ceil(q·n).
[[nodiscard]] std::uint64_t samples_beyond(std::uint64_t n, double q);

/// Smallest sample count with at least `want` samples beyond the
/// q-percentile (1000 for q = 0.99, want = 10).
[[nodiscard]] std::uint64_t samples_needed(double q, std::uint64_t want);

/// The tail rule: a q-percentile is reported only when at least this many
/// samples lie beyond it.
inline constexpr std::uint64_t kTailSamples = 10;

/// One completed request of a client pass.
struct Completion {
  double end_s = 0.0;  ///< completion time on the pass clock
  double rtt_s = 0.0;
};

/// Latency and throughput of a pass as medians over consecutive windows.
struct WindowedLatency {
  double qps = 0.0;     ///< median over windows of queries / window length
  double p50_s = 0.0;   ///< median over windows of the window's median RTT
  double tail_s = 0.0;  ///< median over windows of the window's q-percentile
  std::size_t windows = 0;
  std::size_t samples_per_window = 0;  ///< the smallest window's count
  /// The per-window figures behind the medians, in time order.
  std::vector<double> window_qps, window_p50_s, window_tail_s;
};

/// Splits the completions, in completion order, into
/// K = clamp(n / samples_needed(q, kTailSamples), 1, max_windows) windows of
/// (nearly) equal counts, so every window meets the tail rule, and reports
/// the medians of the per-window figures.  A window runs from the previous
/// window's last completion (the first from `start_s`) to its own last one;
/// each completion carries `queries_per_request` queries.  A burst of
/// interference that slows one window moves the medians far less than it
/// moves whole-pass figures.  Throws when n is below the tail rule's need.
[[nodiscard]] WindowedLatency windowed_latency(
    std::vector<Completion> completions, double start_s,
    std::uint64_t queries_per_request, double q, std::size_t max_windows);

// --- failures ----------------------------------------------------------------

/// Counts attempted and failed operations.  Keeps the first few failure
/// reasons for the log; the counts are what the result reports.
class FailureCounter {
 public:
  void attempt(std::uint64_t n = 1) { attempted_ += n; }
  void fail(const std::string& reason);

  [[nodiscard]] std::uint64_t attempted() const { return attempted_; }
  [[nodiscard]] std::uint64_t failed() const { return failed_; }
  [[nodiscard]] const std::vector<std::string>& reasons() const {
    return reasons_;
  }

 private:
  static constexpr std::size_t kKeptReasons = 8;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> reasons_;
};

/// Compares served answers with the in-process reference answers, request
/// by request (`sizes[i]` answers belong to request i).  Each request with a
/// differing or missing answer is one failure.  Returns the failures added.
std::uint64_t check_answers_match(std::span<const std::uint32_t> served,
                                  std::span<const std::uint32_t> reference,
                                  std::span<const std::uint32_t> sizes,
                                  FailureCounter& failures);

/// The spanner guarantee for one answer: d_G ≤ d ≤ mult·d_G + add, and an
/// unreachable pair (d_G = kInfDist) must be answered kInfDist.
[[nodiscard]] bool within_guarantee(std::uint32_t answer, std::uint32_t d_g,
                                    double mult, double add);

// --- spans -------------------------------------------------------------------

/// In-memory span recorder for the traced run.  Every span adds to its
/// name's total and count; the first `max_kept` spans are also kept whole
/// (name, start, end, parent, request id) and written out at exit.
class SpanLog {
 public:
  using Id = std::uint64_t;
  static constexpr Id kNoParent = 0;

  struct Open {
    std::uint32_t name = 0;
    Id id = kNoParent;
    Id parent = kNoParent;
    std::uint64_t request = 0;
    double start_s = 0.0;
  };

  explicit SpanLog(std::size_t max_kept = std::size_t{1} << 18)
      : max_kept_(max_kept) {}

  /// Registers a span name once; hot loops pass the returned index.
  [[nodiscard]] std::uint32_t name(std::string_view text);

  [[nodiscard]] Open begin(std::uint32_t name, Id parent = kNoParent,
                           std::uint64_t request = 0);
  /// Closes the span and returns its duration in seconds.
  double end(const Open& span);

  /// Seconds on the log's clock; safe to read from any thread.
  [[nodiscard]] double now() const { return clock_.seconds(); }
  /// Records a span timed elsewhere against now() (a client thread's
  /// request), from the owning thread.
  void add(std::uint32_t name, double start_s, double end_s,
           Id parent = kNoParent, std::uint64_t request = 0);

  [[nodiscard]] double total_s(std::string_view name) const;
  [[nodiscard]] std::uint64_t count(std::string_view name) const;
  [[nodiscard]] std::size_t kept() const { return spans_.size(); }
  [[nodiscard]] std::uint64_t recorded() const { return next_id_ - 1; }

  /// One JSON object per line: id, name, start_s, end_s, parent, request.
  void write_jsonl(const std::string& path) const;

 private:
  struct Closed {
    Id id;
    Id parent;
    std::uint64_t request;
    double start_s;
    double end_s;
    std::uint32_t name;
  };
  struct Totals {
    double seconds = 0.0;
    std::uint64_t count = 0;
  };

  void record(std::uint32_t name, Id id, Id parent, std::uint64_t request,
              double start_s, double end_s);

  nas::util::Timer clock_;
  std::size_t max_kept_;
  Id next_id_ = 1;
  std::vector<std::string> names_;
  std::map<std::string, std::uint32_t, std::less<>> index_;
  std::vector<Totals> totals_;
  std::vector<Closed> spans_;
};

/// Closes its span on scope exit.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog& log, std::uint32_t name,
             SpanLog::Id parent = SpanLog::kNoParent, std::uint64_t request = 0)
      : log_(log), open_(log.begin(name, parent, request)) {}
  ~ScopedSpan() { log_.end(open_); }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] SpanLog::Id id() const { return open_.id; }

 private:
  SpanLog& log_;
  SpanLog::Open open_;
};

// --- report ------------------------------------------------------------------

/// The metrics of one run, in insertion order, plus its failure counter.
class Report {
 public:
  struct Metric {
    std::string name;
    double value = 0.0;
    std::string unit;
  };

  /// Sets (or overwrites) a metric.
  void set(const std::string& name, double value, const std::string& unit);

  /// Sets `name` to total − Σ children, in seconds.  A negative difference
  /// is kept as measured, counted, and logged as a warning — never clamped.
  double set_self_time(const std::string& name, double total,
                       std::initializer_list<double> children);
  [[nodiscard]] std::uint64_t negative_self_times() const {
    return negative_self_times_;
  }
  [[nodiscard]] const std::vector<std::string>& warnings() const {
    return warnings_;
  }

  [[nodiscard]] const std::vector<Metric>& metrics() const { return metrics_; }
  [[nodiscard]] const Metric* find(std::string_view name) const;

  FailureCounter& failures() { return failures_; }
  [[nodiscard]] const FailureCounter& failures() const { return failures_; }

  /// The contract's last stdout line: {"correct", "attempted", "failed",
  /// "metrics": {name: {"value", "unit"}}}.  Values carry all 17
  /// significant digits.
  [[nodiscard]] std::string render_json(bool correct) const;

 private:
  std::vector<Metric> metrics_;
  FailureCounter failures_;
  std::uint64_t negative_self_times_ = 0;
  std::vector<std::string> warnings_;
};

/// Peak resident set of this process in MiB (getrusage ru_maxrss).
[[nodiscard]] double peak_rss_mb();

/// Order-sensitive digest of a graph's edge list, for comparing two builds.
[[nodiscard]] std::uint64_t digest_edges(
    std::span<const nas::graph::Edge> edges);

}  // namespace nasbench
