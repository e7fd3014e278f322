// Statistics used by skybench: nearest-rank percentiles, the
// tail percentile a sample count can support, Python-compatible quartiles,
// the offered-rate ladder search, and wall-clock rates.
//
// Header-only so the test binary (tests/stats_test.cc) links nothing else.
#ifndef SKYBENCH_SRC_STATS_H_
#define SKYBENCH_SRC_STATS_H_

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <span>
#include <vector>

namespace skybench {

/// 1-based nearest rank ceil(p/100 * n), clamped to [1, n]; the epsilon
/// keeps products like 0.999 * 10000 from rounding up a whole rank.
inline size_t NearestRank(size_t n, double p) {
  const double exact = p / 100.0 * static_cast<double>(n);
  const auto rank = static_cast<size_t>(std::ceil(exact - 1e-9));
  return std::clamp<size_t>(rank, 1, n);
}

/// Nearest-rank percentile of `samples` (p in [0, 100]); 0 for no samples.
/// The value at rank ceil(p/100 * n), so exactly n - rank samples lie above
/// the reported position.
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0.0;
  const size_t n = samples.size();
  const size_t rank = NearestRank(n, p);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

/// Samples strictly beyond the nearest-rank position of percentile p.
inline size_t SamplesBeyond(size_t n, double p) {
  if (n == 0) return 0;
  return n - NearestRank(n, p);
}

/// The highest of the conventional tail percentiles (99.9, 99, 95, 90, 75,
/// 50) that has at least `min_beyond` samples beyond it; 50 when even the
/// median has fewer.
inline double TailPercentileFor(size_t n, size_t min_beyond = 10) {
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0}) {
    if (SamplesBeyond(n, p) >= min_beyond) return p;
  }
  return 50.0;
}

/// First quartile, median and third quartile, computed exactly like
/// Python's statistics.quantiles(values, n=4) (the default "exclusive"
/// method). Needs at least two values; fewer return the value itself.
struct Quartiles {
  double q1 = 0.0;
  double median = 0.0;
  double q3 = 0.0;
  /// Interquartile range as a share of the median (0 when the median is 0).
  double RelativeSpread() const {
    return median != 0.0 ? (q3 - q1) / std::fabs(median) : 0.0;
  }
};

inline Quartiles ComputeQuartiles(std::vector<double> values) {
  Quartiles out;
  if (values.empty()) return out;
  std::sort(values.begin(), values.end());
  const auto ld = static_cast<int64_t>(values.size());
  if (ld < 2) {
    out.q1 = out.median = out.q3 = values[0];
    return out;
  }
  constexpr int64_t kN = 4;
  const int64_t m = ld + 1;
  double q[3] = {0, 0, 0};
  for (int64_t i = 1; i < kN; ++i) {
    int64_t j = i * m / kN;
    j = std::clamp<int64_t>(j, 1, ld - 1);
    const int64_t delta = i * m - j * kN;
    q[i - 1] = (values[j - 1] * static_cast<double>(kN - delta) +
                values[j] * static_cast<double>(delta)) /
               static_cast<double>(kN);
  }
  out.q1 = q[0];
  out.median = q[1];
  out.q3 = q[2];
  return out;
}

/// Geometric rate ladder lo, lo*ratio, ... up to and including the last
/// rung <= hi.
inline std::vector<double> GeometricLadder(double lo, double hi,
                                           double ratio) {
  std::vector<double> rungs;
  if (lo <= 0 || ratio <= 1.0) return rungs;
  for (double r = lo; r <= hi * (1 + 1e-9); r *= ratio) rungs.push_back(r);
  return rungs;
}

/// Result of a ladder search: the highest rate that passed (0 when the
/// first rung already failed) and how many rungs were run.
struct LadderResult {
  double max_passing = 0.0;
  int rungs_run = 0;
};

/// Walks `coarse` upward and stops at the first failing rung. Then refines
/// between the last passing rung and that failure on a finer geometric
/// ladder (ratio `fine_ratio`), again stopping at the first failure. A rung
/// passes when `probe(rate)` returns true. With a monotone probe the result
/// is the highest passing rung of the fine ladder anchored at the last
/// passing coarse rung.
inline LadderResult SearchLadder(std::span<const double> coarse,
                                 double fine_ratio,
                                 const std::function<bool(double)>& probe) {
  LadderResult result;
  double first_fail = 0.0;
  for (const double rate : coarse) {
    ++result.rungs_run;
    if (!probe(rate)) {
      first_fail = rate;
      break;
    }
    result.max_passing = rate;
  }
  if (first_fail == 0.0 || result.max_passing == 0.0 || fine_ratio <= 1.0) {
    return result;
  }
  for (double rate = result.max_passing * fine_ratio;
       rate < first_fail * (1 - 1e-9); rate *= fine_ratio) {
    ++result.rungs_run;
    if (!probe(rate)) break;
    result.max_passing = rate;
  }
  return result;
}

/// A measured interval on the wall clock. Every rate the benchmark reports
/// is `count / WallSeconds()` of one of these — never a CPU-time quotient.
class WallInterval {
 public:
  using Clock = std::chrono::steady_clock;

  void Start() { begin_ = Clock::now(); }
  void Stop() { end_ = Clock::now(); }
  double WallSeconds() const {
    return std::chrono::duration<double>(end_ - begin_).count();
  }
  /// Events per wall-clock second.
  double Rate(uint64_t count) const {
    const double s = WallSeconds();
    return s > 0 ? static_cast<double>(count) / s : 0.0;
  }

 private:
  Clock::time_point begin_{};
  Clock::time_point end_{};
};

/// Self-check for a reported rate: it must equal count over the interval's
/// wall time (relative tolerance 1e-9), and the interval must have lasted at
/// least as long as the CPU time any single thread spent inside it, which a
/// CPU-time quotient with parked threads violates in the other direction.
inline bool IsWallClockRate(double rate, uint64_t count, double wall_seconds,
                            double thread_cpu_seconds) {
  if (wall_seconds <= 0) return false;
  const double expected = static_cast<double>(count) / wall_seconds;
  const bool matches =
      std::fabs(rate - expected) <= 1e-9 * std::max(1.0, expected);
  // Allow clock-granularity slack between the two clocks.
  return matches && wall_seconds + 2e-3 >= thread_cpu_seconds;
}

}  // namespace skybench

#endif  // SKYBENCH_SRC_STATS_H_
