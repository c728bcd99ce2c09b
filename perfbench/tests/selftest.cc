// Self-tests of the benchmark's measurement primitives: the percentile
// helper, self-time over a hand-built span tree, span nesting and the result
// oracle. (Metric names are checked against BENCHMARK.json by
// test_perfbench.py.) Exit code 0 when every check holds.
//
//   perfbench_selftest

#include <cstdio>
#include <vector>

#include "ledger.h"
#include "workload/micro_bench.h"

using namespace perfbench;

namespace {

int g_failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what);
    ++g_failures;
  }
}

bool Near(double a, double b) { return a - b < 1e-9 && b - a < 1e-9; }

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = n; i >= 1; --i) v.push_back(i);  // Unsorted on purpose.
  return v;
}

void TestPercentiles() {
  Expect(Near(Percentile(OneTo(100), 0.5), 50), "p50 of 1..100 is 50");
  Expect(Near(Percentile(OneTo(100), 0.95), 95), "p95 of 1..100 is 95");
  Expect(SamplesBeyond(200, 0.95) == 10, "200 samples leave 10 beyond p95");
  Expect(SamplesBeyond(199, 0.95) == 9, "199 samples leave 9 beyond p95");

  TailPercentile t = HighestSupportedPercentile(OneTo(100));
  Expect(Near(t.q, 0.90) && Near(t.value, 90) && t.n == 100 && t.beyond == 10,
         "n=100: highest supported is p90 (10 beyond)");
  t = HighestSupportedPercentile(OneTo(1000));
  Expect(Near(t.q, 0.99) && Near(t.value, 990) && t.n == 1000 &&
             t.beyond == 10,
         "n=1000: highest supported is p99");
  t = HighestSupportedPercentile(OneTo(20000));
  Expect(Near(t.q, 0.999) && t.beyond == 20, "n=20000: p99.9 is supported");
  t = HighestSupportedPercentile(OneTo(20));
  Expect(Near(t.q, 0.5) && Near(t.value, 10) && t.beyond == 10,
         "n=20: only p50 is supported");
  t = HighestSupportedPercentile(OneTo(19));
  Expect(t.q == 0.0 && t.n == 19, "n=19: no percentile has 10 beyond");
}

void TestSelfTime() {
  // root [0,100) with children a [10,30) and b [20,50) running concurrently,
  // c [60,70), and a grandchild d [12,18) under a; e overruns its parent c.
  std::vector<Span> spans = {
      {1, 0, 7, "root", 0, 100}, {2, 1, 7, "a", 10, 30},
      {3, 1, 7, "b", 20, 50},    {4, 1, 7, "c", 60, 70},
      {5, 2, 7, "d", 12, 18},    {6, 4, 7, "e", 65, 80},
  };
  double root = -1, a = -1, b = -1, c = -1, d = -1, e = -1;
  for (const SelfTime& t : ComputeSelfTimes(spans)) {
    if (t.name == "root") root = t.self_us;
    if (t.name == "a") a = t.self_us;
    if (t.name == "b") b = t.self_us;
    if (t.name == "c") c = t.self_us;
    if (t.name == "d") d = t.self_us;
    if (t.name == "e") e = t.self_us;
  }
  // Overlapping children are subtracted once: 100 - (40 + 10).
  Expect(Near(root, 50), "root self time subtracts the union of children");
  Expect(Near(a, 14), "a self time is 20 - 6");
  Expect(Near(b, 30), "b has no children");
  Expect(Near(c, 5), "c subtracts only the part of e inside it");
  Expect(Near(d, 6) && Near(e, 15), "leaves keep their whole duration");

  // Same name twice: calls and totals aggregate.
  std::vector<Span> repeated = {{1, 0, 0, "x", 0, 10}, {2, 0, 0, "x", 20, 25}};
  const std::vector<SelfTime> agg = ComputeSelfTimes(repeated);
  Expect(agg.size() == 1 && agg[0].calls == 2 && Near(agg[0].total_us, 15) &&
             Near(agg[0].self_us, 15),
         "spans of one name aggregate");
}

void TestRecorderNesting() {
  SpanRecorder rec(true);
  {
    SpanRecorder::Scope outer = rec.Open("outer", 3);
    SpanRecorder::Scope inner = rec.Open("inner", 3);
  }
  const std::vector<Span> spans = rec.spans();
  Expect(spans.size() == 2, "two spans recorded");
  if (spans.size() == 2) {
    // Inner closes first.
    Expect(spans[0].name == "inner" && spans[1].name == "outer" &&
               spans[0].parent == spans[1].id && spans[1].parent == 0 &&
               spans[0].query == 3,
           "inner span is parented to outer");
  }
  SpanRecorder off(false);
  { SpanRecorder::Scope s = off.Open("x"); }
  Expect(off.spans().empty(), "a disabled recorder records nothing");
}

void TestOracle() {
  smoothscan::Engine engine;
  smoothscan::MicroBenchSpec spec;
  spec.num_tuples = 3000;
  spec.value_max = 1000;
  spec.seed = 5;
  smoothscan::MicroBenchDb db(&engine, spec);
  ResultOracle oracle;
  oracle.Rebuild(db.heap(), smoothscan::MicroBenchDb::kIndexedColumn);
  Expect(oracle.size() == 3000, "oracle sees every tuple");
  for (const auto& [lo, hi] : std::vector<std::pair<int64_t, int64_t>>{
           {0, 1001}, {10, 11}, {200, 450}, {999, 2000}, {5, 5}}) {
    ResultDigest want;
    db.heap().ForEachDirect([&](smoothscan::Tid, const smoothscan::Tuple& t) {
      const int64_t key = t[smoothscan::MicroBenchDb::kIndexedColumn].AsInt64();
      if (key >= lo && key < hi) want.Add(t[0].AsInt64());
    });
    Expect(oracle.Expect(lo, hi) == want, "oracle digest matches a scan");
  }
  ResultDigest one, other;
  one.Add(1);
  other.Add(2);
  Expect(!(one == other), "digests tell keys apart");
}

}  // namespace

int main() {
  TestPercentiles();
  TestSelfTime();
  TestRecorderNesting();
  TestOracle();
  if (g_failures == 0) std::printf("perfbench_selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
