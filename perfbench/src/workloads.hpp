#pragma once
/// \file workloads.hpp
/// \brief The benchmark's four seeded workloads.  Each drives the library
///        through its public API from one closed-loop caller: the next
///        call is issued when the previous one returns.

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Ops attempted and failed in one timed round.  An op is a request
/// (mapping_sweep), a fleet interval (fleet_day, fleet_replay) or a
/// transient segment (transient_day); it fails if it throws or fails a
/// check.
struct RoundOutcome {
  std::size_t ops = 0;
  std::size_t failed = 0;
  double transient_steps = 0.0;     ///< Accepted steps (transient_day).
  double transient_rejected = 0.0;  ///< Rejected trial steps.
};

/// Outcome of the checks made after the timed phase.
struct CheckOutcome {
  std::size_t ops = 0;
  std::size_t failed = 0;
  /// Max |TCASE - converged reference| over the sampled solves [°C].
  double tcase_err_c = 0.0;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Expected wall time of one round at the parent commit on a 4-core
  /// box; sets how many rounds `--seconds` buys, so the work in a run
  /// (and the sample count behind every percentile) is fixed by
  /// `--seconds` alone and never by the speed of the code under test.
  [[nodiscard]] virtual double nominal_round_s() const = 0;
  /// Everything before the timed phase, for a run of `rounds` rounds.
  /// Repeatable: each call redoes the whole set-up from scratch.
  virtual void setup(std::size_t rounds) = 0;
  /// Timed round `index` (< the `rounds` given to set-up; a round may be
  /// run again with the same index); appends the latency of every public
  /// call to `step_ms`.
  virtual RoundOutcome round(std::size_t index, std::vector<double>& step_ms) = 0;
  /// Extra traced calls made after traced round `index`, outside its wall
  /// time.
  virtual void traced_extras(std::size_t /*index*/) {}
  /// Output checks after the timed phase (tracing off).
  virtual CheckOutcome check() = 0;
  /// One line describing the generated inputs.
  [[nodiscard]] virtual std::string describe() const = 0;
};

/// The workload names, in BENCHMARK.json order.
[[nodiscard]] const std::vector<std::string>& workload_names();

/// Build a workload; `threads` is the pool size it runs at, and
/// `scratch_dir` an existing directory it may write files into.  Throws
/// std::invalid_argument on an unknown name.
[[nodiscard]] std::unique_ptr<Workload> make_workload(
    const std::string& name, std::uint64_t seed, std::size_t threads,
    const std::string& scratch_dir);

}  // namespace perfbench
