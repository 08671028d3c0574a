// Tests of the harness's pure logic (harness.h).
#include <gtest/gtest.h>

#include "harness.h"

namespace perfbench {
namespace {

TEST(Percentile, NearestRank) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted
  EXPECT_EQ(percentile(v, 50.0), 50.0);
  EXPECT_EQ(percentile(v, 90.0), 90.0);
  EXPECT_EQ(percentile(v, 100.0), 100.0);
  EXPECT_EQ(percentile(v, 0.0), 1.0);
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(TailRule, OpsBeyondPercentile) {
  EXPECT_EQ(ops_beyond(100, 90.0), 10);
  EXPECT_EQ(ops_beyond(99, 90.0), 9);
  EXPECT_EQ(ops_beyond(40, 75.0), 10);
  EXPECT_EQ(ops_beyond(0, 50.0), 0);
}

TEST(TailRule, MinOpsLeaveTenBeyond) {
  EXPECT_EQ(min_ops_for_tail(90.0), 100);
  EXPECT_EQ(min_ops_for_tail(75.0), 40);
  EXPECT_EQ(min_ops_for_tail(50.0), 20);
  EXPECT_EQ(min_ops_for_tail(99.0), 1000);
  for (double p : {50.0, 75.0, 90.0, 95.0}) {
    const long n = min_ops_for_tail(p);
    EXPECT_GE(ops_beyond(n, p), 10) << p;
    EXPECT_LT(ops_beyond(n - 1, p), 10) << p;
  }
}

Span span(const char* name, std::int64_t b, std::int64_t e, int parent) {
  Span s;
  s.name = name;
  s.start_ns = b;
  s.end_ns = e;
  s.parent = parent;
  return s;
}

TEST(Spans, SelfTimeSubtractsChildren) {
  // root [0, 100) with children [10, 30) and [50, 60); grandchild [12, 20).
  std::vector<Span> v = {span("root", 0, 100, -1), span("a", 10, 30, 0),
                         span("b", 50, 60, 0), span("c", 12, 20, 1)};
  const std::vector<double> self = self_times(v);
  EXPECT_DOUBLE_EQ(self[0], 70e-9);
  EXPECT_DOUBLE_EQ(self[1], 12e-9);
  EXPECT_DOUBLE_EQ(self[2], 10e-9);
  EXPECT_DOUBLE_EQ(self[3], 8e-9);
}

TEST(Spans, OverlappingAndOverhangingChildrenCountOnce) {
  std::vector<Span> v = {span("root", 0, 100, -1), span("a", 10, 40, 0),
                         span("b", 30, 60, 0), span("c", 90, 130, 0)};
  EXPECT_DOUBLE_EQ(self_times(v)[0], 40e-9);  // 100 - [10,60) - [90,100)
}

TEST(Spans, RecorderNestsAndCanBeOff) {
  SpanRecorder rec;
  {
    Scoped root(rec, "root", 7);
    { Scoped a(rec, "layer", 7); }
    { Scoped b(rec, "layer", 7); }
  }
  ASSERT_EQ(rec.spans().size(), 3u);
  EXPECT_EQ(rec.spans()[0].parent, -1);
  EXPECT_EQ(rec.spans()[1].parent, 0);
  EXPECT_EQ(rec.spans()[2].parent, 0);
  EXPECT_EQ(rec.spans()[2].op, 7);
  for (const Span& s : rec.spans()) EXPECT_GE(s.end_ns, s.start_ns);
  SpanRecorder off(false);
  { Scoped s(off, "x", 1); }
  EXPECT_TRUE(off.spans().empty());
}

TEST(OpenLoop, LatencyCountsFromDueTime) {
  EXPECT_DOUBLE_EQ(due_time(0, 8.0), 0.0);
  EXPECT_DOUBLE_EQ(due_time(12, 8.0), 1.5);
  OpenLoopSample s;
  s.due = 1.0;
  s.sent = 1.3;  // the generator stalled
  s.done = 1.5;
  EXPECT_DOUBLE_EQ(latency_from_due(s), 0.5);  // not done - sent
}

TEST(OpenLoop, GeneratorLagIsTheWorstLateness) {
  std::vector<OpenLoopSample> v(3);
  v[0].due = 0.0;
  v[0].sent = 0.001;
  v[1].due = 0.125;
  v[1].sent = 0.2;
  v[2].due = 0.25;
  v[2].sent = 0.25;
  EXPECT_DOUBLE_EQ(max_generator_lag(v), 0.075);
  EXPECT_DOUBLE_EQ(max_generator_lag({}), 0.0);
}

TEST(OpenLoop, GoodputCountsCorrectResultsWithinTheLimit) {
  std::vector<OpenLoopSample> v(4);
  v[0] = {0.0, 0.0, 0.4, true};   // in time
  v[1] = {0.0, 0.0, 0.5, true};   // exactly at the limit
  v[2] = {0.0, 0.0, 0.6, true};   // late
  v[3] = {0.0, 0.0, 0.1, false};  // fast but failed
  EXPECT_EQ(goodput_count(v, 0.5), 2);
}

TEST(Output, MetricLineIsValidJsonWithAllDigits) {
  EXPECT_EQ(metric_line("op_p50_ms", "ms", 0.1),
            "{\"metric\": \"op_p50_ms\", \"unit\": \"ms\", "
            "\"value\": \"0.10000000000000001\"}");
  EXPECT_EQ(metric_line("a\"b", "1/s", 3.0),
            "{\"metric\": \"a\\\"b\", \"unit\": \"1/s\", \"value\": \"3\"}");
  EXPECT_EQ(metric_line("x", "s", HUGE_VAL),
            "{\"metric\": \"x\", \"unit\": \"s\", \"value\": null}");
}

}  // namespace
}  // namespace perfbench
