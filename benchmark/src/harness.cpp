#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "util/json.hpp"
#include "util/rng.hpp"

namespace nasbench {

namespace {

/// ceil(q·n) with a guard against q·n landing a hair above an integer
/// (0.99 · 1000 is 990.0000000000001 in binary floating point).
std::uint64_t nearest_rank(std::uint64_t n, double q) {
  const double exact = q * static_cast<double>(n);
  const auto rank = static_cast<std::uint64_t>(std::ceil(exact - 1e-9));
  return std::clamp<std::uint64_t>(rank, 1, std::max<std::uint64_t>(n, 1));
}

std::string number_literal(double v) {
  if (!std::isfinite(v)) {
    throw std::logic_error("metric value is not finite");
  }
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

double percentile(std::span<const double> sorted, double q) {
  if (sorted.empty()) throw std::invalid_argument("percentile of no samples");
  if (!(q > 0.0 && q <= 1.0)) throw std::invalid_argument("percentile q");
  return sorted[nearest_rank(sorted.size(), q) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) throw std::invalid_argument("median of no samples");
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  if (values.size() % 2 == 1) return values[mid];
  return (values[mid - 1] + values[mid]) / 2.0;
}

std::uint64_t samples_beyond(std::uint64_t n, double q) {
  if (n == 0) return 0;
  return n - nearest_rank(n, q);
}

std::uint64_t samples_needed(double q, std::uint64_t want) {
  if (!(q > 0.0 && q < 1.0)) throw std::invalid_argument("samples_needed q");
  auto n = static_cast<std::uint64_t>(
      std::floor(static_cast<double>(want) / (1.0 - q)));
  n = n > 2 ? n - 2 : 1;  // start just below the estimate, walk up
  while (samples_beyond(n, q) < want) ++n;
  return n;
}

WindowedLatency windowed_latency(std::vector<Completion> completions,
                                 double start_s,
                                 std::uint64_t queries_per_request, double q,
                                 std::size_t max_windows) {
  const std::uint64_t need = samples_needed(q, kTailSamples);
  const std::size_t n = completions.size();
  if (n < need) {
    throw std::invalid_argument(
        "windowed_latency: " + std::to_string(n) + " samples, the tail rule needs " +
        std::to_string(need));
  }
  std::stable_sort(completions.begin(), completions.end(),
                   [](const Completion& a, const Completion& b) {
                     return a.end_s < b.end_s;
                   });
  WindowedLatency out;
  out.windows = std::clamp<std::size_t>(n / need, 1, std::max<std::size_t>(max_windows, 1));
  out.samples_per_window = n;
  std::vector<double> rates;
  std::vector<double> p50s;
  std::vector<double> tails;
  double window_start = start_s;
  for (std::size_t w = 0; w < out.windows; ++w) {
    const std::size_t begin = n * w / out.windows;
    const std::size_t end = n * (w + 1) / out.windows;
    out.samples_per_window = std::min(out.samples_per_window, end - begin);
    std::vector<double> rtts;
    rtts.reserve(end - begin);
    for (std::size_t i = begin; i < end; ++i) rtts.push_back(completions[i].rtt_s);
    std::sort(rtts.begin(), rtts.end());
    const double window_end = completions[end - 1].end_s;
    const double length = window_end - window_start;
    if (!(length > 0.0)) throw std::logic_error("windowed_latency: empty window");
    rates.push_back(static_cast<double>((end - begin) * queries_per_request) / length);
    p50s.push_back(percentile(rtts, 0.5));
    tails.push_back(percentile(rtts, q));
    window_start = window_end;
  }
  out.qps = median(rates);
  out.p50_s = median(p50s);
  out.tail_s = median(tails);
  out.window_qps = std::move(rates);
  out.window_p50_s = std::move(p50s);
  out.window_tail_s = std::move(tails);
  return out;
}

void FailureCounter::fail(const std::string& reason) {
  ++failed_;
  if (reasons_.size() < kKeptReasons) reasons_.push_back(reason);
}

std::uint64_t check_answers_match(std::span<const std::uint32_t> served,
                                  std::span<const std::uint32_t> reference,
                                  std::span<const std::uint32_t> sizes,
                                  FailureCounter& failures) {
  std::uint64_t added = 0;
  std::size_t at = 0;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const std::size_t end = at + sizes[i];
    bool ok = end <= served.size() && end <= reference.size();
    for (std::size_t k = at; ok && k < end; ++k) {
      ok = served[k] == reference[k];
    }
    if (!ok) {
      failures.fail("request " + std::to_string(i) +
                    ": served answer differs from the in-process batch_query");
      ++added;
    }
    at = end;
  }
  return added;
}

bool within_guarantee(std::uint32_t answer, std::uint32_t d_g, double mult,
                      double add) {
  if (d_g == nas::graph::kInfDist) return answer == nas::graph::kInfDist;
  if (answer == nas::graph::kInfDist || answer < d_g) return false;
  return static_cast<double>(answer) <=
         mult * static_cast<double>(d_g) + add + 1e-9;
}

std::uint32_t SpanLog::name(std::string_view text) {
  const auto it = index_.find(text);
  if (it != index_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(names_.size());
  names_.emplace_back(text);
  index_.emplace(std::string(text), id);
  totals_.emplace_back();
  return id;
}

SpanLog::Open SpanLog::begin(std::uint32_t name, Id parent,
                             std::uint64_t request) {
  return Open{name, next_id_++, parent, request, clock_.seconds()};
}

double SpanLog::end(const Open& span) {
  const double end_s = clock_.seconds();
  record(span.name, span.id, span.parent, span.request, span.start_s, end_s);
  return end_s - span.start_s;
}

void SpanLog::add(std::uint32_t name, double start_s, double end_s, Id parent,
                  std::uint64_t request) {
  record(name, next_id_++, parent, request, start_s, end_s);
}

void SpanLog::record(std::uint32_t name, Id id, Id parent,
                     std::uint64_t request, double start_s, double end_s) {
  Totals& t = totals_.at(name);
  t.seconds += end_s - start_s;
  ++t.count;
  if (spans_.size() < max_kept_) {
    spans_.push_back(Closed{id, parent, request, start_s, end_s, name});
  }
}

double SpanLog::total_s(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? 0.0 : totals_[it->second].seconds;
}

std::uint64_t SpanLog::count(std::string_view name) const {
  const auto it = index_.find(name);
  return it == index_.end() ? 0 : totals_[it->second].count;
}

void SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write span log " + path);
  using nas::util::JsonValue;
  for (const auto& s : spans_) {
    out << nas::util::render_json_object(
               {{"id", JsonValue::number(s.id)},
                {"name", JsonValue::str(names_[s.name])},
                {"start_s", JsonValue::literal(number_literal(s.start_s))},
                {"end_s", JsonValue::literal(number_literal(s.end_s))},
                {"parent", JsonValue::number(s.parent)},
                {"request", JsonValue::number(s.request)}})
        << "\n";
  }
  if (!out.flush()) throw std::runtime_error("short write to " + path);
}

void Report::set(const std::string& name, double value,
                 const std::string& unit) {
  for (auto& m : metrics_) {
    if (m.name == name) {
      m.value = value;
      m.unit = unit;
      return;
    }
  }
  metrics_.push_back(Metric{name, value, unit});
}

double Report::set_self_time(const std::string& name, double total,
                             std::initializer_list<double> children) {
  double value = total;
  for (const double c : children) value -= c;
  if (value < 0.0) {
    ++negative_self_times_;
    warnings_.push_back(name + " is negative (" + number_literal(value) +
                        " s): its child layers measured longer than it");
  }
  set(name, value, "s");
  return value;
}

const Report::Metric* Report::find(std::string_view name) const {
  for (const auto& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

std::string Report::render_json(bool correct) const {
  using nas::util::JsonObject;
  using nas::util::JsonValue;
  JsonObject metrics;
  for (const auto& m : metrics_) {
    metrics.emplace_back(
        m.name, JsonValue::literal(nas::util::render_json_object(
                    {{"value", JsonValue::literal(number_literal(m.value))},
                     {"unit", JsonValue::str(m.unit)}})));
  }
  return nas::util::render_json_object(
      {{"correct", JsonValue::boolean(correct)},
       {"attempted", JsonValue::number(failures_.attempted())},
       {"failed", JsonValue::number(failures_.failed())},
       {"metrics", JsonValue::literal(nas::util::render_json_object(metrics))}});
}

double peak_rss_mb() {
  rusage usage{};
  if (getrusage(RUSAGE_SELF, &usage) != 0) {
    throw std::runtime_error("getrusage failed");
  }
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t digest_edges(std::span<const nas::graph::Edge> edges) {
  std::uint64_t h = nas::util::mix64(edges.size());
  for (const auto& [u, v] : edges) {
    h = nas::util::mix64(h ^ ((static_cast<std::uint64_t>(u) << 32) | v));
  }
  return h;
}

}  // namespace nasbench
