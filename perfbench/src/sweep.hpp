#pragma once
/// \file sweep.hpp
/// \brief The mapping_sweep request stream: independent requests drawn
///        from the paper's evaluation space by an explicit splitmix64
///        stream, so a seed fixes every request bit for bit.

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "tpcool/core/pipelines.hpp"
#include "tpcool/power/cstates.hpp"
#include "tpcool/workload/configuration.hpp"

namespace perfbench {

/// splitmix64 (Steele, Lea & Flood 2014): the benchmark's own generator,
/// independent of any implementation-defined <random> distribution.
class SplitMix64 {
 public:
  explicit SplitMix64(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
  /// Uniform index in [0, n); the modulo bias is below 2^-58 for the tiny
  /// n used here.
  std::size_t below(std::size_t n) {
    return static_cast<std::size_t>(next() % n);
  }

 private:
  std::uint64_t state_;
};

/// A request goes through the scheduler (Algorithm 1 or the SoA
/// selection picks configuration, C-state and cores for a QoS level) or
/// names its configuration, cores and idle C-state explicitly.
enum class RequestKind { kSchedule, kSolve };

struct SweepRequest {
  RequestKind kind = RequestKind::kSchedule;
  tpcool::core::Approach approach = tpcool::core::Approach::kProposed;
  double cell_size_m = 2.0e-3;
  std::size_t bench = 0;  ///< Index into workload::parsec_benchmarks().
  double qos_factor = 1.0;                    ///< kSchedule only.
  tpcool::workload::Configuration config;     ///< kSolve only.
  std::string core_source;  ///< kSolve: mapping policy name or "random".
  std::vector<int> cores;                     ///< kSolve only.
  tpcool::power::CState idle_state = tpcool::power::CState::kPoll;
};

/// One public call: requests of one kind, approach and pitch, solved
/// together through core::run_parallel_schedules / run_parallel_solves.
struct SweepBatch {
  RequestKind kind = RequestKind::kSchedule;
  tpcool::core::Approach approach = tpcool::core::Approach::kProposed;
  double cell_size_m = 2.0e-3;
  std::vector<std::size_t> requests;  ///< Indices into SweepPlan::requests.
};

/// A stream of rounds; round r issues batches
/// [r * batches_per_round, (r + 1) * batches_per_round).
struct SweepPlan {
  std::vector<SweepRequest> requests;
  std::vector<SweepBatch> batches;  ///< In issue order.
  std::size_t batches_per_round = 0;
};

/// Default pitch of the sweep, and the finer pitch a fixed share of the
/// requests runs at: at 0.75 mm the stack has ~7x the cells of 2 mm and
/// one CG solve's operator and vectors no longer fit a 2 MiB L2.
inline constexpr double kCoarsePitchM = 2.0e-3;
inline constexpr double kFinePitchM = 0.75e-3;

/// A round, per approach: kBatchesPerKind batches of kBatchSize requests
/// of each kind at the coarse pitch, and one batch of kFinePerApproach
/// explicit requests at the fine pitch.
inline constexpr std::size_t kBatchSize = 8;
inline constexpr std::size_t kBatchesPerKind = 2;
inline constexpr std::size_t kFinePerApproach = 2;

/// The first `rounds` rounds of a seed's request stream: the same seed
/// gives the identical plan, and a longer plan extends a shorter one.
[[nodiscard]] SweepPlan make_sweep_plan(std::uint64_t seed, std::size_t rounds);

/// FNV-1a digest over every field of a plan, to compare two plans.
[[nodiscard]] std::uint64_t plan_digest(const SweepPlan& plan);

}  // namespace perfbench
