#pragma once
/// \file measure.hpp
/// \brief Order statistics and span arithmetic used by the benchmark: the
///        median and tail-percentile rule for op latencies, and self time
///        of a span set minus the part its child spans cover.

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Linear-interpolated quantile of `values` at `p` in [0, 100]
/// (values need not be sorted; empty input gives 0).
[[nodiscard]] double percentile(std::vector<double> values, double p);

[[nodiscard]] double median(const std::vector<double>& values);

/// The tail percentile reported next to the median: the highest of
/// {99, 95, 90, 75, 50} that leaves at least `kMinBeyond` samples above
/// it.  p99.9 is not a candidate: for the sub-millisecond calls of the
/// fleet workloads it measures the host's scheduler, not the program.
/// With fewer than 2 * kMinBeyond samples no percentile qualifies and the
/// median is reported, flagged by `qualified = false`.
struct TailPercentile {
  static constexpr std::size_t kMinBeyond = 10;
  double percentile = 50.0;  ///< The chosen percentile, e.g. 99.
  double value = 0.0;        ///< The sample value at that percentile.
  std::size_t samples = 0;   ///< Samples the percentile was taken over.
  std::size_t beyond = 0;    ///< Samples strictly above `value`.
  bool qualified = false;    ///< At least kMinBeyond samples beyond.
};
[[nodiscard]] TailPercentile tail_percentile(const std::vector<double>& values);

/// One span as [start, end) nanoseconds on a recording thread.
struct SpanInterval {
  std::uint32_t tid = 0;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
};

/// Summed self time of `parents`: each parent's duration minus the length
/// of the union of its children's intervals clipped to the parent.  With
/// `same_thread` only children recorded on the parent's thread count (a
/// call nested on the stack); otherwise children on any thread count (work
/// a blocking call fanned out to the pool and waited for).
[[nodiscard]] double self_time_ns(const std::vector<SpanInterval>& parents,
                                  const std::vector<SpanInterval>& children,
                                  bool same_thread);

}  // namespace perfbench
