// Tests of the benchmark harness's own logic: the tail-percentile rule,
// self-time subtraction, the failure counter and answer checks, the span
// log, and the result line.
#include <gtest/gtest.h>

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "apps/distance_oracle.hpp"
#include "core/params.hpp"
#include "graph/bfs.hpp"
#include "graph/generators.hpp"
#include "harness.hpp"

namespace {

using nasbench::FailureCounter;
using nasbench::Report;
using nasbench::SpanLog;

TEST(TailRule, NearestRankPercentile) {
  std::vector<double> sorted;
  for (int i = 1; i <= 100; ++i) sorted.push_back(i);
  EXPECT_EQ(nasbench::percentile(sorted, 0.5), 50.0);
  EXPECT_EQ(nasbench::percentile(sorted, 0.99), 99.0);
  EXPECT_EQ(nasbench::percentile(sorted, 1.0), 100.0);
  EXPECT_EQ(nasbench::percentile(std::vector<double>{7.0}, 0.99), 7.0);
  EXPECT_THROW((void)nasbench::percentile(std::vector<double>{}, 0.5),
               std::invalid_argument);
}

TEST(TailRule, TenSamplesBeyondP99NeedAThousand) {
  EXPECT_EQ(nasbench::samples_beyond(1000, 0.99), 10u);
  EXPECT_EQ(nasbench::samples_beyond(999, 0.99), 9u);
  EXPECT_EQ(nasbench::samples_beyond(100, 0.99), 1u);
  EXPECT_EQ(nasbench::samples_beyond(0, 0.99), 0u);
  EXPECT_EQ(nasbench::samples_needed(0.99, 10), 1000u);
  EXPECT_EQ(nasbench::samples_needed(0.5, 10), 20u);
  for (std::uint64_t n = 1; n < 3000; ++n) {
    EXPECT_EQ(nasbench::samples_beyond(n, 0.99) >= nasbench::kTailSamples,
              n >= nasbench::samples_needed(0.99, nasbench::kTailSamples))
        << n;
  }
}

/// n completions, one every `gap_s`, each with the given RTT.
std::vector<nasbench::Completion> steady(std::size_t n, double gap_s,
                                         double rtt_s) {
  std::vector<nasbench::Completion> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.push_back({gap_s * static_cast<double>(i + 1), rtt_s});
  }
  return out;
}

TEST(TailRule, EveryWindowHasTenSamplesBeyondP99) {
  EXPECT_THROW((void)nasbench::windowed_latency(steady(999, 0.001, 0.002), 0.0,
                                                1, 0.99, 10),
               std::invalid_argument);
  for (const std::size_t n : {1000u, 1999u, 2000u, 3500u, 25000u}) {
    const auto w = nasbench::windowed_latency(steady(n, 0.001, 0.002), 0.0, 1,
                                              0.99, 10);
    EXPECT_EQ(w.windows, std::min<std::size_t>(10, n / 1000)) << n;
    EXPECT_GE(w.samples_per_window, 1000u) << n;
    EXPECT_GE(nasbench::samples_beyond(w.samples_per_window, 0.99),
              nasbench::kTailSamples)
        << n;
  }
}

TEST(TailRule, WindowedFiguresAreMediansAcrossWindows) {
  // 5000 requests of 4 queries, one completion per ms, RTT 2 ms, except
  // that the third window is a burst: RTT 10 ms and half the rate.
  auto done = steady(5000, 0.001, 0.002);
  for (std::size_t i = 2000; i < 3000; ++i) {
    done[i].rtt_s = 0.010;
    done[i].end_s = 2.0 + 0.002 * static_cast<double>(i - 2000 + 1);
  }
  for (std::size_t i = 3000; i < 5000; ++i) done[i].end_s += 1.0;
  std::reverse(done.begin(), done.end());  // completion order is restored
  const auto w = nasbench::windowed_latency(done, 0.0, 4, 0.99, 10);
  ASSERT_EQ(w.windows, 5u);
  EXPECT_NEAR(w.window_qps[2], 2000.0, 1e-6);
  EXPECT_NEAR(w.window_tail_s[2], 0.010, 1e-12);
  EXPECT_NEAR(w.qps, 4000.0, 1e-6);
  EXPECT_NEAR(w.p50_s, 0.002, 1e-12);
  EXPECT_NEAR(w.tail_s, 0.002, 1e-12);
}

TEST(TailRule, Median) {
  EXPECT_EQ(nasbench::median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(nasbench::median({4.0, 1.0, 2.0, 3.0}), 2.5);
}

TEST(SelfTime, PositiveDifference) {
  Report report;
  EXPECT_DOUBLE_EQ(report.set_self_time("layer.self_s", 5.0, {1.0, 1.5}), 2.5);
  EXPECT_EQ(report.negative_self_times(), 0u);
  EXPECT_TRUE(report.warnings().empty());
  ASSERT_NE(report.find("layer.self_s"), nullptr);
  EXPECT_EQ(report.find("layer.self_s")->unit, "s");
}

TEST(SelfTime, NegativeDifferenceIsKeptAndFlagged) {
  Report report;
  const double v = report.set_self_time("layer.self_s", 1.0, {0.75, 0.5});
  EXPECT_DOUBLE_EQ(v, -0.25);  // not clamped to zero
  EXPECT_DOUBLE_EQ(report.find("layer.self_s")->value, -0.25);
  EXPECT_EQ(report.negative_self_times(), 1u);
  ASSERT_EQ(report.warnings().size(), 1u);
  EXPECT_NE(report.warnings().front().find("layer.self_s"), std::string::npos);
}

class AnswerChecks : public ::testing::Test {
 protected:
  void SetUp() override {
    g_ = nas::graph::make_workload("ba", 300, 5);
    const auto params = nas::core::Params::practical(g_.num_vertices(), 0.25, 3, 0.4);
    oracle_.emplace(g_, params);
    for (nas::graph::Vertex u = 0; u < 40; ++u) {
      queries_.push_back({u, static_cast<nas::graph::Vertex>((u * 37 + 11) % g_.num_vertices())});
    }
    reference_ = oracle_->batch_query(queries_);
    sizes_.assign(queries_.size(), 1);
  }

  nas::graph::Graph g_;
  std::optional<nas::apps::SpannerDistanceOracle> oracle_;
  std::vector<nas::apps::Query> queries_;
  std::vector<std::uint32_t> reference_;
  std::vector<std::uint32_t> sizes_;
};

TEST_F(AnswerChecks, MatchingAnswersAddNoFailure) {
  FailureCounter failures;
  EXPECT_EQ(nasbench::check_answers_match(reference_, reference_, sizes_, failures), 0u);
  EXPECT_EQ(failures.failed(), 0u);
}

TEST_F(AnswerChecks, InjectedWrongAnswerIsCounted) {
  auto served = reference_;
  served[17] += 1;
  FailureCounter failures;
  failures.attempt(queries_.size());
  EXPECT_EQ(nasbench::check_answers_match(served, reference_, sizes_, failures), 1u);
  EXPECT_EQ(failures.failed(), 1u);
  EXPECT_EQ(failures.attempted(), queries_.size());
  ASSERT_FALSE(failures.reasons().empty());
  EXPECT_NE(failures.reasons().front().find("request 17"), std::string::npos);
}

TEST_F(AnswerChecks, BatchedRequestFailsOnceForAnyWrongAnswer) {
  auto served = reference_;
  served[3] += 2;
  served[5] += 2;
  const std::vector<std::uint32_t> batches = {8, 8, 8, 8, 8};  // 40 answers
  FailureCounter failures;
  EXPECT_EQ(nasbench::check_answers_match(served, reference_, batches, failures), 1u);
  // A missing answer counts too.
  served.pop_back();
  FailureCounter short_reply;
  EXPECT_EQ(nasbench::check_answers_match(served, reference_, batches, short_reply), 2u);
}

TEST_F(AnswerChecks, GuaranteeBoundsCatchWrongAnswers) {
  const double mult = oracle_->multiplicative();
  const double add = oracle_->additive();
  const auto d_g = nas::graph::bfs(g_, queries_[9].u).dist;
  const std::uint32_t exact = d_g[queries_[9].v];
  ASSERT_NE(exact, nas::graph::kInfDist);
  EXPECT_TRUE(nasbench::within_guarantee(reference_[9], exact, mult, add));
  if (exact > 0) {
    EXPECT_FALSE(nasbench::within_guarantee(exact - 1, exact, mult, add));
  }
  const auto too_far = static_cast<std::uint32_t>(mult * exact + add) + 1;
  EXPECT_FALSE(nasbench::within_guarantee(too_far, exact, mult, add));
  EXPECT_FALSE(nasbench::within_guarantee(nas::graph::kInfDist, exact, mult, add));
  EXPECT_TRUE(nasbench::within_guarantee(nas::graph::kInfDist,
                                         nas::graph::kInfDist, mult, add));
}

TEST(Spans, TotalsCountsParentsAndCap) {
  SpanLog log(2);
  const auto outer = log.name("outer");
  const auto inner = log.name("inner");
  EXPECT_EQ(log.name("outer"), outer);
  {
    const nasbench::ScopedSpan a(log, outer, SpanLog::kNoParent, 7);
    const nasbench::ScopedSpan b(log, inner, a.id(), 7);
    EXPECT_NE(a.id(), b.id());
  }
  log.add(inner, 1.0, 1.5, SpanLog::kNoParent, 8);
  EXPECT_EQ(log.count("inner"), 2u);
  EXPECT_EQ(log.count("outer"), 1u);
  EXPECT_EQ(log.count("absent"), 0u);
  EXPECT_GE(log.total_s("inner"), 0.5);
  EXPECT_GE(log.total_s("outer"), 0.0);
  EXPECT_EQ(log.recorded(), 3u);
  EXPECT_EQ(log.kept(), 2u);  // capped; totals still cover every span
}

TEST(ResultLine, CarriesCountsAndFullDigits) {
  Report report;
  report.failures().attempt(4);
  report.failures().fail("x");
  report.set("latency_ms", 1.2034, "ms");
  report.set("latency_ms", 1.25, "ms");  // overwrite keeps one entry
  const std::string line = report.render_json(false);
  EXPECT_EQ(line,
            "{\"correct\": false, \"attempted\": 4, \"failed\": 1, "
            "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}");
  report.set("third", 1.0 / 3.0, "s");
  EXPECT_NE(report.render_json(true).find("0.33333333333333331"),
            std::string::npos);
}

}  // namespace
