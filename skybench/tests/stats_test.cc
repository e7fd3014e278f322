// Tests for the benchmark's own statistics (src/stats.h). A plain
// executable: exits 0 when every check holds, 1 otherwise.
//
//   cmake -S skybench -B .bench_build/skybench
//   cmake --build .bench_build/skybench --target skybench_stats_test
//   ctest --test-dir .bench_build/skybench
#include <cmath>
#include <cstdio>
#include <vector>

#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

std::vector<double> Iota(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestPercentile() {
  // Nearest rank: p50 of 1..100 is 50, p99 is 99, p100 is 100.
  const auto v = Iota(100);
  Check(Near(skybench::Percentile(v, 50), 50), "p50 of 1..100");
  Check(Near(skybench::Percentile(v, 99), 99), "p99 of 1..100");
  Check(Near(skybench::Percentile(v, 100), 100), "p100 of 1..100");
  Check(Near(skybench::Percentile(v, 0), 1), "p0 clamps to the minimum");
  Check(Near(skybench::Percentile({}, 50), 0), "empty sample gives 0");
  // Order of the input does not matter.
  std::vector<double> shuffled = {5, 1, 4, 2, 3};
  Check(Near(skybench::Percentile(shuffled, 50), 3), "unsorted input");
}

void TestTailPercentile() {
  // p99 needs 1000 samples to have 10 beyond it; 999 fall back to p95.
  Check(skybench::SamplesBeyond(1000, 99) == 10, "1000 samples: 10 beyond p99");
  Check(Near(skybench::TailPercentileFor(1000), 99), "1000 samples -> p99");
  Check(Near(skybench::TailPercentileFor(999), 95), "999 samples -> p95");
  Check(Near(skybench::TailPercentileFor(10000), 99.9), "10000 -> p99.9");
  Check(Near(skybench::TailPercentileFor(200), 95), "200 samples -> p95");
  Check(Near(skybench::TailPercentileFor(100), 90), "100 samples -> p90");
  Check(Near(skybench::TailPercentileFor(5), 50), "5 samples -> median");
  // The chosen percentile really leaves >= 10 samples beyond it.
  for (size_t n : {20u, 40u, 150u, 1234u, 20000u}) {
    Check(skybench::SamplesBeyond(n, skybench::TailPercentileFor(n)) >= 10,
          "tail percentile keeps 10 samples beyond");
  }
}

void TestQuartiles() {
  // Reference values from Python: statistics.quantiles(range(1, 11), n=4)
  // == [2.75, 5.5, 8.25].
  auto q = skybench::ComputeQuartiles(Iota(10));
  Check(Near(q.q1, 2.75) && Near(q.median, 5.5) && Near(q.q3, 8.25),
        "quartiles of 1..10");
  // statistics.quantiles([1, 2, 3, 4], n=4) == [1.25, 2.5, 3.75].
  q = skybench::ComputeQuartiles({4, 2, 3, 1});
  Check(Near(q.q1, 1.25) && Near(q.median, 2.5) && Near(q.q3, 3.75),
        "quartiles of 1..4");
  // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25].
  q = skybench::ComputeQuartiles({1, 2});
  Check(Near(q.q1, 0.75) && Near(q.median, 1.5) && Near(q.q3, 2.25),
        "quartiles of two values");
  Check(Near(skybench::ComputeQuartiles(Iota(10)).RelativeSpread(),
             (8.25 - 2.75) / 5.5),
        "relative spread");
}

void TestLadder() {
  const auto rungs = skybench::GeometricLadder(100, 1000, 2);
  Check(rungs.size() == 4 && Near(rungs[0], 100) && Near(rungs[3], 800),
        "geometric ladder 100..800");
  // Capacity 500: the coarse walk passes 100,200,400 and fails at 800; the
  // fine walk (x1.1) then passes 440 and 484 and fails at 532.4.
  int probes = 0;
  auto result = skybench::SearchLadder(rungs, 1.1, [&](double rate) {
    ++probes;
    return rate <= 500;
  });
  Check(Near(result.max_passing, 400 * 1.1 * 1.1), "ladder refines to 484");
  Check(result.rungs_run == probes && probes == 7, "ladder probe count");
  // Every rung passes: the top rung wins and no refinement runs.
  result = skybench::SearchLadder(rungs, 1.1, [](double) { return true; });
  Check(Near(result.max_passing, 800) && result.rungs_run == 4,
        "all rungs pass");
  // The first rung fails: nothing passes.
  result = skybench::SearchLadder(rungs, 1.1, [](double) { return false; });
  Check(Near(result.max_passing, 0) && result.rungs_run == 1,
        "first rung fails");
}

void TestWallClockRate() {
  // 4096 queries in 486 us on the wall clock is 8.4M/s; dividing by a
  // near-zero waiting-thread CPU time instead must fail the check.
  const double wall = 486e-6;
  const double rate = 4096 / wall;
  Check(skybench::IsWallClockRate(rate, 4096, wall, 1e-6),
        "wall-clock rate accepted");
  Check(!skybench::IsWallClockRate(4096 / 9.2e-6, 4096, wall, 9.2e-6),
        "CPU-time rate rejected");
  Check(!skybench::IsWallClockRate(rate, 4096, wall, 0.5),
        "interval shorter than a thread's CPU time rejected");
}

}  // namespace

int main() {
  TestPercentile();
  TestTailPercentile();
  TestQuartiles();
  TestLadder();
  TestWallClockRate();
  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? 0 : 1;
}
