// Tests of the benchmark itself: the tail rule, seeded generation, the
// answer digest, and the metric names against BENCHMARK.json.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <numeric>
#include <random>
#include <regex>
#include <set>
#include <sstream>

#include "ledger.hpp"
#include "specs.hpp"
#include "workloads.hpp"

namespace svc = midas::service;
using namespace perfbench;

namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> xs(n);
  std::iota(xs.begin(), xs.end(), 1.0);
  return xs;
}

}  // namespace

TEST(TailRule, P99AtOneThousandSamples) {
  const Tail t = tail(one_to(1000));
  EXPECT_DOUBLE_EQ(t.pct, 99.0);
  EXPECT_DOUBLE_EQ(t.value, 990.0);
  EXPECT_EQ(t.beyond, 10u);
  EXPECT_EQ(t.samples, 1000u);
}

TEST(TailRule, CappedAtP99AboveOneThousand) {
  const Tail t = tail(one_to(5000));
  EXPECT_DOUBLE_EQ(t.pct, 99.0);
  EXPECT_EQ(t.beyond, 50u);
}

TEST(TailRule, KeepsTenSamplesBeyondOnSmallSamples) {
  const Tail t100 = tail(one_to(100));
  EXPECT_DOUBLE_EQ(t100.pct, 90.0);
  EXPECT_DOUBLE_EQ(t100.value, 90.0);
  EXPECT_EQ(t100.beyond, 10u);

  std::vector<double> xs = one_to(16);
  std::shuffle(xs.begin(), xs.end(), std::mt19937(7));
  const Tail t16 = tail(xs);
  EXPECT_DOUBLE_EQ(t16.value, 6.0);
  EXPECT_DOUBLE_EQ(t16.pct, 37.5);
  EXPECT_EQ(t16.beyond, 10u);
}

TEST(TailRule, NoPercentileQualifiesAtTenOrFewer) {
  const Tail t = tail(one_to(10));
  EXPECT_EQ(t.beyond, 0u);
  EXPECT_DOUBLE_EQ(t.value, 10.0);
  EXPECT_EQ(tail({}).samples, 0u);
}

TEST(Median, OddEvenEmpty) {
  EXPECT_DOUBLE_EQ(median({3, 1, 2}), 2.0);
  EXPECT_DOUBLE_EQ(median({4, 1, 3, 2}), 2.5);
  EXPECT_DOUBLE_EQ(median({}), 0.0);
}

TEST(IntervalRates, CountsWholeIntervalsOfTheWindowOnly) {
  // Ten answers a second, two in the third second, and one after the
  // window (the drain) that must not count.
  std::vector<double> done;
  for (int b = 0; b < 5; ++b)
    for (int i = 0; i < (b == 2 ? 2 : 10); ++i) done.push_back(b + i / 10.0);
  done.push_back(5.2);
  EXPECT_EQ(interval_rates(done, 5.0, 1.0),
            (std::vector<double>{10, 10, 2, 10, 10}));
  EXPECT_EQ(interval_rates(done, 1.0, 0.5), (std::vector<double>{10, 10}));
  EXPECT_TRUE(interval_rates(done, 0.5, 1.0).empty());
}

TEST(QuietMask, KeepsStretchesAtOrBelowTheMedianStealShare) {
  EXPECT_EQ(quiet_mask({0, 0.5, 0.1, 0.25, 0}),
            (std::vector<bool>{true, false, true, false, true}));
  // Steal at most kQuietStealShare everywhere: every stretch is kept.
  EXPECT_EQ(quiet_mask({0.02, 0, 0.01}), (std::vector<bool>{true, true, true}));
  EXPECT_TRUE(quiet_mask({}).empty());
}

TEST(StealShare, FromTwoReadings) {
  EXPECT_DOUBLE_EQ(steal_share({10, 100}, {35, 200}), 0.25);
  // No counters, or no time between the readings.
  EXPECT_DOUBLE_EQ(steal_share({}, {}), 0.0);
  EXPECT_DOUBLE_EQ(steal_share({5, 100}, {5, 100}), 0.0);
}

TEST(Specs, WireMixScheduleIsSeeded) {
  const auto a = wire_mix_schedule(11, 20.0);
  const auto b = wire_mix_schedule(11, 20.0);
  const auto c = wire_mix_schedule(12, 20.0);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].due_s, b[i].due_s);
    EXPECT_EQ(svc::query_fingerprint(a[i].spec),
              svc::query_fingerprint(b[i].spec));
    EXPECT_EQ(a[i].spec.lane, b[i].spec.lane);
  }
  ASSERT_FALSE(c.empty());
  EXPECT_NE(a.front().due_s, c.front().due_s);
}

TEST(Specs, WireMixScheduleShape) {
  const double seconds = 200.0;
  const auto s = wire_mix_schedule(3, seconds);
  EXPECT_EQ(s.size(), static_cast<std::size_t>(kMixRate * seconds));
  std::size_t repeats = 0, interactive = 0, certified = 0;
  for (std::size_t i = 0; i < s.size(); ++i) {
    EXPECT_LT(s[i].due_s, seconds);
    if (i > 0) {
      EXPECT_GE(s[i].due_s, s[i - 1].due_s);
    }
    if (s[i].repeat) {
      ++repeats;
      EXPECT_EQ(svc::query_fingerprint(s[i].spec),
                svc::query_fingerprint(s[i - 1].spec));
    }
    interactive += s[i].spec.lane == svc::Lane::kInteractive ? 1 : 0;
    certified += s[i].spec.certify ? 1 : 0;
    if (s[i].spec.type == svc::QueryType::kScan) {
      EXPECT_EQ(s[i].spec.weights.size(), 3000u);
    }
  }
  EXPECT_EQ(repeats, s.size() / 10);
  EXPECT_NEAR(static_cast<double>(interactive) / static_cast<double>(s.size()),
              1.0 / 3.0, 0.01);
  EXPECT_GT(certified, 0u);
}

TEST(Specs, EngineLargeAndWireSmallAreSeeded) {
  std::set<std::uint64_t> seeds;
  for (std::uint64_t i = 0; i < 8; ++i) {
    const auto a = engine_large_query(5, i);
    EXPECT_EQ(svc::query_fingerprint(a),
              svc::query_fingerprint(engine_large_query(5, i)));
    EXPECT_EQ(static_cast<int>(a.type), static_cast<int>(i % 4));
    const auto w = wire_small_query(5, i);
    EXPECT_EQ(svc::query_fingerprint(w),
              svc::query_fingerprint(wire_small_query(5, i)));
    seeds.insert(w.seed);
  }
  EXPECT_EQ(seeds.size(), 8u);  // distinct seeds per wire-small query
  EXPECT_NE(svc::query_fingerprint(engine_large_query(5, 0)),
            svc::query_fingerprint(engine_large_query(6, 0)));
  const auto g1 = engine_large_graph(9), g2 = engine_large_graph(9);
  EXPECT_EQ(g1.num_edges(), 4ull * kLargeN);
  EXPECT_EQ(g1.num_edges(), g2.num_edges());
}

TEST(Specs, WarmupCoversEachGraphTypeOnce) {
  const auto s = wire_mix_schedule(4, 30.0);
  std::vector<svc::QuerySpec> specs;
  for (const auto& a : s) specs.push_back(a.spec);
  const auto w = warmup_queries(specs);
  EXPECT_EQ(w.size(), 12u);  // 3 graphs x 4 types, one n1
}

TEST(Digest, IndependentOfCompletionOrder) {
  std::vector<std::pair<svc::QuerySpec, svc::QueryResult>> answers;
  for (std::uint64_t i = 0; i < 16; ++i) {
    svc::QuerySpec q = wire_small_query(2, i);
    svc::QueryResult r;
    r.found = i % 3 != 0;
    r.rounds_run = 1;
    r.found_round = r.found ? 0 : -1;
    r.achieved_epsilon = r.found ? 0.0 : 0.8;
    answers.emplace_back(q, r);
  }
  auto fold = [](const auto& xs) {
    std::uint64_t d = 0;
    for (const auto& [q, r] : xs) d += answer_digest(q, r);
    return d;
  };
  const std::uint64_t base = fold(answers);
  auto shuffled = answers;
  std::shuffle(shuffled.begin(), shuffled.end(), std::mt19937(3));
  EXPECT_EQ(fold(shuffled), base);
  shuffled[5].second.found = !shuffled[5].second.found;
  EXPECT_NE(fold(shuffled), base);
}

TEST(SameAnswer, ComparesAnswerFieldsOnly) {
  svc::QueryResult a, b;
  a.found = b.found = true;
  a.rounds_run = b.rounds_run = 1;
  a.found_round = b.found_round = 0;
  a.total_s = 1.0;  // serving telemetry is not part of the answer
  EXPECT_TRUE(same_answer(a, b));
  b.found_round = 1;
  EXPECT_FALSE(same_answer(a, b));
}

TEST(MetricNames, RuleAndLedger) {
  EXPECT_TRUE(valid_metric_name("service.queue_ms.p50"));
  EXPECT_TRUE(valid_metric_name("core.scalar_over_auto.path"));
  EXPECT_FALSE(valid_metric_name(""));
  EXPECT_FALSE(valid_metric_name(".hidden"));
  EXPECT_FALSE(valid_metric_name("bad name"));
  EXPECT_FALSE(valid_metric_name(std::string(65, 'a')));
  Ledger l;
  l.add("qps", "queries/s", 1.0);
  EXPECT_THROW(l.add("qps", "queries/s", 2.0), std::invalid_argument);
  EXPECT_THROW(l.add("no/slash", "ms", 2.0), std::invalid_argument);
}

// Every name the code reports matches [A-Za-z0-9_.-]+ and BENCHMARK.json
// lists exactly those names, in the same two groups.
TEST(MetricNames, MatchBenchmarkJson) {
  const std::regex rule("[A-Za-z0-9][A-Za-z0-9_.-]{0,63}");
  Outcome e2e, layers;
  EndToEnd e;
  e.latency_ms = {1.0, 2.0};
  report_end_to_end(e2e, e);
  report_per_layer(layers, PerLayer{});

  std::ifstream in(PERFBENCH_JSON);
  ASSERT_TRUE(in.good()) << PERFBENCH_JSON;
  std::stringstream buf;
  buf << in.rdbuf();
  const std::string json = buf.str();
  auto listed = [&](const std::string& group) {
    std::set<std::string> names;
    const auto start = json.find("\"" + group + "\"");
    const auto end = json.find(']', start);
    const std::regex name_re("\"name\": *\"([^\"]+)\"");
    const std::string part = json.substr(start, end - start);
    for (std::sregex_iterator it(part.begin(), part.end(), name_re), stop;
         it != stop; ++it)
      names.insert((*it)[1]);
    return names;
  };
  auto reported = [&](const Outcome& o) {
    std::set<std::string> names;
    for (const auto& m : o.ledger.metrics()) {
      EXPECT_TRUE(std::regex_match(m.name, rule)) << m.name;
      names.insert(m.name);
    }
    return names;
  };
  EXPECT_EQ(reported(e2e), listed("end_to_end"));
  EXPECT_EQ(reported(layers), listed("per_layer"));
}
