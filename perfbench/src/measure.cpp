#include "measure.hpp"

#include <algorithm>
#include <cmath>

namespace perfbench {

double percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = p / 100.0 * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return values[lo] + frac * (values[hi] - values[lo]);
}

double median(const std::vector<double>& values) {
  return percentile(values, 50.0);
}

TailPercentile tail_percentile(const std::vector<double>& values) {
  TailPercentile tail;
  tail.samples = values.size();
  for (const double p : {99.0, 95.0, 90.0, 75.0, 50.0}) {
    // Samples beyond the p-th percentile of n samples: floor(n (1 - p)).
    const auto beyond = static_cast<std::size_t>(
        std::floor(static_cast<double>(values.size()) * (100.0 - p) / 100.0 +
                   1e-9));
    if (beyond >= TailPercentile::kMinBeyond) {
      tail.percentile = p;
      tail.qualified = true;
      break;
    }
  }
  tail.value = percentile(values, tail.percentile);
  tail.beyond = static_cast<std::size_t>(
      std::count_if(values.begin(), values.end(),
                    [&](double v) { return v > tail.value; }));
  return tail;
}

double self_time_ns(const std::vector<SpanInterval>& parents,
                    const std::vector<SpanInterval>& children,
                    bool same_thread) {
  std::vector<SpanInterval> sorted = children;
  std::sort(sorted.begin(), sorted.end(),
            [](const SpanInterval& a, const SpanInterval& b) {
              return a.start_ns < b.start_ns;
            });
  std::int64_t longest = 0;
  for (const SpanInterval& c : sorted) {
    longest = std::max(longest, c.end_ns - c.start_ns);
  }
  double total = 0.0;
  for (const SpanInterval& parent : parents) {
    // Every child overlapping the parent starts after parent.start - longest.
    auto it = std::lower_bound(
        sorted.begin(), sorted.end(), parent.start_ns - longest,
        [](const SpanInterval& c, std::int64_t t) { return c.start_ns < t; });
    std::int64_t covered = 0;
    std::int64_t run_start = 0;
    std::int64_t run_end = 0;
    bool open = false;
    for (; it != sorted.end() && it->start_ns < parent.end_ns; ++it) {
      if (same_thread && it->tid != parent.tid) continue;
      const std::int64_t lo = std::max(it->start_ns, parent.start_ns);
      const std::int64_t hi = std::min(it->end_ns, parent.end_ns);
      if (hi <= lo) continue;
      if (open && lo <= run_end) {
        run_end = std::max(run_end, hi);
        continue;
      }
      if (open) covered += run_end - run_start;
      run_start = lo;
      run_end = hi;
      open = true;
    }
    if (open) covered += run_end - run_start;
    total += static_cast<double>(parent.end_ns - parent.start_ns - covered);
  }
  return total;
}

}  // namespace perfbench
