#include "workloads.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <iostream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "ledger.hpp"
#include "sweep.hpp"
#include "tpcool/core/parallel.hpp"
#include "tpcool/core/pipeline_pool.hpp"
#include "tpcool/core/server.hpp"
#include "tpcool/core/solve_cache.hpp"
#include "tpcool/datacenter/fleet.hpp"
#include "tpcool/datacenter/streaming.hpp"
#include "tpcool/datacenter/transient.hpp"
#include "tpcool/datacenter/workload_gen.hpp"
#include "tpcool/util/fnv.hpp"
#include "tpcool/util/parallel_map.hpp"
#include "tpcool/util/telemetry.hpp"
#include "tpcool/util/thread_pool.hpp"
#include "tpcool/workload/benchmark.hpp"

namespace perfbench {

using namespace tpcool;
using Clock = std::chrono::steady_clock;

namespace {

double ms_since(Clock::time_point start) {
  return std::chrono::duration<double, std::milli>(Clock::now() - start)
      .count();
}

/// Report a failed check on stderr (the last stdout line is the result).
void report_failure(const std::string& what) {
  std::cerr << "perfbench: check failed: " << what << "\n";
}

bool finite(double v) { return std::isfinite(v); }

bool result_finite(const core::SimulationResult& r) {
  return finite(r.tcase_c) && finite(r.total_power_w) && finite(r.die.max_c) &&
         finite(r.package.max_c);
}

/// Digest over every numeric output of a solve, to compare two solves bit
/// for bit.
std::uint64_t result_digest(const core::SimulationResult& r) {
  std::uint64_t d = util::kFnvOffsetBasis;
  for (const thermal::ThermalMetrics* m : {&r.die, &r.package}) {
    util::fnv_f64(d, m->max_c);
    util::fnv_f64(d, m->avg_c);
    util::fnv_f64(d, m->grad_max_c_per_mm);
  }
  util::fnv_f64(d, r.tcase_c);
  util::fnv_f64(d, r.total_power_w);
  for (const double v : r.die_field_c.data()) util::fnv_f64(d, v);
  for (const double v : r.package_field_c.data()) util::fnv_f64(d, v);
  for (const int c : r.active_cores) util::fnv_u64(d, static_cast<std::uint64_t>(c));
  return d;
}

/// Park `threads` pipelines per distinct (approach, pitch) in the process
/// pool, so the timed phase reuses them instead of building them.
void warm_pipelines(const std::set<std::pair<core::Approach, double>>& kinds,
                    std::size_t threads,
                    const std::shared_ptr<core::SolveCache>& cache) {
  core::PipelinePool::global().clear();
  std::vector<core::PipelinePool::Lease> leases;
  for (const auto& [approach, cell] : kinds) {
    for (std::size_t t = 0; t < threads; ++t) {
      leases.push_back(core::PipelinePool::global().checkout(approach, cell, cache));
    }
  }
}

// ------------------------------------------------------ accuracy probe --

/// One steady solve of the run, as reported, with its inputs.
struct SolveSample {
  core::Approach approach = core::Approach::kProposed;
  double cell_size_m = 2.0e-3;
  const workload::BenchmarkProfile* bench = nullptr;
  workload::Configuration config;
  std::vector<int> cores;
  power::CState idle_state = power::CState::kPoll;
  std::optional<thermosyphon::OperatingPoint> operating_point;
  double tcase_c = 0.0;  ///< As the run reported it.
  double power_w = 0.0;
};

/// How many of the run's hottest distinct solves the accuracy probe
/// re-solves.  Truncation error grows with power, so the hottest solves
/// bound it, and with a fixed rule the sample is comparable across seeds.
constexpr std::size_t kReferenceSamples = 8;
constexpr double kReferenceTolC = 1e-3;
constexpr int kMaxReferencePasses = 256;

/// The `count` samples of highest power (ties keep input order).
std::vector<SolveSample> hottest(std::vector<SolveSample> samples,
                                 std::size_t count) {
  std::stable_sort(samples.begin(), samples.end(),
                   [](const SolveSample& a, const SolveSample& b) {
                     return a.power_w > b.power_w;
                   });
  if (samples.size() > count) samples.resize(count);
  return samples;
}

core::SimulationResult solve_with_passes(const SolveSample& s, int passes) {
  core::ServerConfig config = core::server_config_for(s.approach, s.cell_size_m);
  config.coupling_iterations = passes;
  config.reuse_thermal_state = false;  // a cold start, like a cached solve
  core::ServerModel server(config);
  if (s.operating_point) server.set_operating_point(*s.operating_point);
  return server.simulate(*s.bench, s.config, s.cores, s.idle_state);
}

/// Re-solve each sample through the public ServerModel::simulate: first
/// at the run's own coupling depth (must reproduce the reported TCASE bit
/// for bit), then with the depth doubled until TCASE moves by less than
/// kReferenceTolC.  Returns the max |reported - reference|.
CheckOutcome reference_error(const std::vector<SolveSample>& samples) {
  struct One {
    bool ok = false;
    double err_c = 0.0;
  };
  const int base = core::ServerConfig{}.coupling_iterations;
  const std::vector<One> ones = util::parallel_map<One>(
      samples.size(), 1, [](std::size_t) { return 0; },
      [&](int, std::size_t i) {
        const SolveSample& s = samples[i];
        One one;
        const double again = solve_with_passes(s, base).tcase_c;
        if (again != s.tcase_c) {
          report_failure("re-solve of a reported TCASE differs (" +
                         std::to_string(again) + " vs " +
                         std::to_string(s.tcase_c) + ")");
          return one;
        }
        double previous = again;
        for (int passes = 2 * base; passes <= kMaxReferencePasses;
             passes *= 2) {
          const double t = solve_with_passes(s, passes).tcase_c;
          if (std::fabs(t - previous) < kReferenceTolC) {
            one.ok = true;
            one.err_c = std::fabs(s.tcase_c - t);
            return one;
          }
          previous = t;
        }
        report_failure("TCASE reference did not converge within " +
                       std::to_string(kMaxReferencePasses) + " passes");
        return one;
      });
  CheckOutcome out;
  for (const One& one : ones) {
    ++out.ops;
    if (!one.ok) ++out.failed;
    out.tcase_err_c = std::max(out.tcase_err_c, one.err_c);
  }
  return out;
}

/// Add the distinct job solves of a steady fleet result to `samples`.
void add_fleet_samples(const datacenter::FleetConfig& config,
                       const datacenter::FleetResult& result,
                       std::map<std::string, SolveSample>& samples) {
  for (const datacenter::FleetInterval& interval : result.intervals) {
    for (const datacenter::JobOutcome& job : interval.jobs) {
      const datacenter::RackSpec& rack = config.racks[job.rack];
      SolveSample s;
      s.approach = rack.approach;
      s.cell_size_m = rack.cell_size_m;
      s.bench = &workload::find_benchmark(job.benchmark);
      s.config = job.decision.point.config;
      s.cores = job.decision.cores;
      s.idle_state = job.decision.idle_state;
      s.operating_point = thermosyphon::OperatingPoint{
          core::server_config_for(rack.approach, rack.cell_size_m)
              .operating_point.water_flow_kg_h,
          interval.racks[job.rack].cooling.supply_temp_c};
      s.tcase_c = job.tcase_c;
      s.power_w = job.package_power_w;
      std::string key = core::solve_scope(rack.approach, rack.cell_size_m) +
                        core::solve_request_key(*s.bench, s.config, s.cores,
                                                s.idle_state);
      core::append_key_bits(key, s.operating_point->water_inlet_c);
      samples.emplace(std::move(key), std::move(s));
    }
  }
}

/// The accuracy probe over the hottest distinct job solves of `results`.
CheckOutcome fleet_reference_error(
    const datacenter::FleetConfig& config,
    const std::vector<datacenter::FleetResult>& results) {
  std::map<std::string, SolveSample> distinct;
  for (const datacenter::FleetResult& result : results) {
    add_fleet_samples(config, result, distinct);
  }
  std::vector<SolveSample> samples;
  for (auto& [key, s] : distinct) samples.push_back(std::move(s));
  return reference_error(hottest(std::move(samples), kReferenceSamples));
}

/// One generated day per round, seeded from the run's seed: a run's
/// medians then cover many days rather than one day's structure.
std::vector<std::uint64_t> day_seeds(std::uint64_t seed, std::size_t rounds) {
  SplitMix64 rng(seed);
  std::vector<std::uint64_t> seeds(rounds);
  for (std::uint64_t& s : seeds) s = rng.next();
  return seeds;
}

/// A round run again (after CPU steal) must give the same bits.
class RoundDigests {
 public:
  void reset(std::size_t rounds) { digests_.assign(rounds, std::nullopt); }
  [[nodiscard]] bool consistent(std::size_t index, std::uint64_t digest) {
    if (!digests_[index]) digests_[index] = digest;
    return *digests_[index] == digest;
  }

 private:
  std::vector<std::optional<std::uint64_t>> digests_;
};

// ------------------------------------------------------- fleet helpers --

/// Per-interval output checks (every PUE >= 1, all fields finite) and an
/// O(1) digest of the interval stream, so the timed rounds keep no
/// intervals in memory.
class FleetChecker final : public datacenter::FleetObserver {
 public:
  void on_interval(const datacenter::FleetInterval& interval,
                   const datacenter::IntervalCounters& counters) override {
    (void)counters;
    ++ops_;
    util::fnv_f64(digest_, interval.start_s);
    util::fnv_f64(digest_, interval.it_power_w);
    util::fnv_f64(digest_, interval.chiller_power_w);
    util::fnv_f64(digest_, interval.pue);
    bool ok = interval.pue >= 1.0 && finite(interval.pue) &&
              finite(interval.it_power_w) && finite(interval.chiller_power_w);
    for (const datacenter::JobOutcome& job : interval.jobs) {
      util::fnv_u64(digest_, job.rack);
      util::fnv_f64(digest_, job.tcase_c);
      ok = ok && finite(job.tcase_c) && finite(job.die_max_c) &&
           finite(job.package_power_w);
    }
    if (!ok) {
      ++failed_;
      report_failure("fleet interval " + std::to_string(interval.interval) +
                     ": PUE < 1 or a non-finite field");
    }
  }
  [[nodiscard]] std::size_t ops() const { return ops_; }
  [[nodiscard]] std::size_t failed() const { return failed_; }
  [[nodiscard]] std::uint64_t digest() const { return digest_; }

 private:
  std::size_t ops_ = 0;
  std::size_t failed_ = 0;
  std::uint64_t digest_ = util::kFnvOffsetBasis;
};

struct FleetRun {
  RoundOutcome outcome;
  std::uint64_t digest = 0;  ///< FleetChecker's stream digest.
  /// The whole result, kept only when asked for (untimed passes).
  std::optional<datacenter::FleetResult> result;
};

/// Drive one streaming fleet run one advance() at a time, timing each.
/// With `keep_result` a FleetResultAggregator also keeps every interval.
FleetRun drive_fleet(const datacenter::FleetConfig& config,
                     const std::vector<workload::WorkloadTrace>& streams,
                     std::vector<double>* step_ms, bool keep_result) {
  datacenter::StreamingFleetEngine engine(config, streams);
  FleetChecker checker;
  datacenter::FleetResultAggregator aggregator;
  engine.add_observer(checker);
  if (keep_result) engine.add_observer(aggregator);
  for (;;) {
    const auto start = Clock::now();
    bool more = false;
    {
      util::TraceSpan span(kSpanAdvance);
      more = engine.advance();
    }
    if (!more) break;
    if (step_ms != nullptr) step_ms->push_back(ms_since(start));
  }
  FleetRun run;
  run.outcome.ops = checker.ops();
  run.outcome.failed = checker.failed();
  run.digest = checker.digest();
  if (engine.peak_held_intervals() >
      datacenter::StreamingFleetEngine::kMaxHeldIntervals) {
    report_failure("streaming engine held " +
                   std::to_string(engine.peak_held_intervals()) + " intervals");
    run.outcome.failed = run.outcome.ops;
  }
  if (keep_result) run.result = aggregator.take();
  return run;
}

std::set<std::pair<core::Approach, double>> fleet_pipeline_kinds(
    const datacenter::FleetConfig& config) {
  std::set<std::pair<core::Approach, double>> kinds;
  for (const datacenter::RackSpec& rack : config.racks) {
    kinds.emplace(rack.approach, rack.cell_size_m);
  }
  return kinds;
}

// ------------------------------------------------------- mapping_sweep --

/// A stream of independent requests from the paper's evaluation space,
/// each round on a fresh cache: nearly every request misses and fans out
/// over the pool, so the coupled solve, the steady solve and CG do the
/// work.  Every round draws new requests, so a run's medians cover many
/// distinct calls rather than one round's few.
class MappingSweep final : public Workload {
 public:
  MappingSweep(std::uint64_t seed, std::size_t threads)
      : seed_(seed), threads_(threads) {}

  [[nodiscard]] double nominal_round_s() const override { return 1.0; }

  void setup(std::size_t rounds) override {
    plan_ = make_sweep_plan(seed_, rounds);
    solved_.assign(plan_.requests.size(), {});
    std::set<std::pair<core::Approach, double>> kinds;
    for (const SweepBatch& batch : plan_.batches) {
      kinds.emplace(batch.approach, batch.cell_size_m);
    }
    warm_pipelines(kinds, threads_, std::make_shared<core::SolveCache>());
  }

  RoundOutcome round(std::size_t index, std::vector<double>& step_ms) override {
    const auto cache = std::make_shared<core::SolveCache>(kCacheCapacity);
    RoundOutcome out;
    for (const SweepBatch& batch : round_batches(index)) {
      const auto start = Clock::now();
      std::vector<core::SimulationResult> results;
      try {
        results = solve_batch(batch, cache);
      } catch (const std::exception& error) {
        report_failure(std::string("sweep batch threw: ") + error.what());
        out.ops += batch.requests.size();
        out.failed += batch.requests.size();
        continue;
      }
      step_ms.push_back(ms_since(start));
      for (std::size_t k = 0; k < batch.requests.size(); ++k) {
        const std::size_t i = batch.requests[k];
        ++out.ops;
        if (!result_finite(results[k])) {
          ++out.failed;
          report_failure("sweep request " + std::to_string(i) +
                         ": non-finite result");
        }
        solved_[i] = {true, result_digest(results[k]), results[k].tcase_c,
                      results[k].total_power_w};
      }
    }
    return out;
  }

  void traced_extras(std::size_t index) override {
    // The mapping layer alone: Scheduler::schedule over the round's
    // scheduler requests, without the coupled solve.
    const auto& benches = workload::parsec_benchmarks();
    for (const SweepBatch& batch : round_batches(index)) {
      if (batch.kind != RequestKind::kSchedule) continue;
      core::ApproachPipeline& pipeline = pipeline_for(batch.approach);
      for (const std::size_t i : batch.requests) {
        const SweepRequest& req = plan_.requests[i];
        util::TraceSpan span(kSpanSchedule);
        (void)pipeline.scheduler().schedule(benches[req.bench],
                                            {req.qos_factor});
      }
    }
  }

  CheckOutcome check() override {
    CheckOutcome out;
    // A fixed sample of the first round re-solved on one thread, one
    // request per call on a fresh cache, must be bit-identical.
    util::ThreadPool::set_global_thread_count(1);
    for (const SweepBatch& batch : round_batches(0)) {
      for (const std::size_t i : batch.requests) {
        if (i % kIdentityStride != 0) continue;
        ++out.ops;
        const SweepBatch single{batch.kind, batch.approach, batch.cell_size_m,
                                {i}};
        const auto results =
            solve_batch(single, std::make_shared<core::SolveCache>());
        if (!solved_[i].done ||
            result_digest(results.front()) != solved_[i].digest) {
          ++out.failed;
          report_failure("sweep request " + std::to_string(i) +
                         " differs when re-solved on 1 thread");
        }
      }
    }
    util::ThreadPool::set_global_thread_count(threads_);

    // Accuracy probe over the hottest coarse-pitch requests of the run.
    std::vector<std::size_t> coarse;
    for (std::size_t i = 0; i < plan_.requests.size(); ++i) {
      if (solved_[i].done && plan_.requests[i].cell_size_m == kCoarsePitchM) {
        coarse.push_back(i);
      }
    }
    std::stable_sort(coarse.begin(), coarse.end(),
                     [&](std::size_t a, std::size_t b) {
                       return solved_[a].power_w > solved_[b].power_w;
                     });
    if (coarse.size() > kReferenceSamples) coarse.resize(kReferenceSamples);
    const auto& benches = workload::parsec_benchmarks();
    std::vector<SolveSample> samples;
    for (const std::size_t i : coarse) {
      const SweepRequest& req = plan_.requests[i];
      SolveSample s;
      s.approach = req.approach;
      s.cell_size_m = req.cell_size_m;
      s.bench = &benches[req.bench];
      if (req.kind == RequestKind::kSchedule) {
        const core::ScheduleDecision decision =
            pipeline_for(req.approach).scheduler().schedule(*s.bench,
                                                            {req.qos_factor});
        s.config = decision.point.config;
        s.cores = decision.cores;
        s.idle_state = decision.idle_state;
      } else {
        s.config = req.config;
        s.cores = req.cores;
        s.idle_state = req.idle_state;
      }
      s.tcase_c = solved_[i].tcase_c;
      s.power_w = solved_[i].power_w;
      samples.push_back(std::move(s));
    }
    const CheckOutcome ref = reference_error(samples);
    out.ops += ref.ops;
    out.failed += ref.failed;
    out.tcase_err_c = ref.tcase_err_c;
    return out;
  }

  [[nodiscard]] std::string describe() const override {
    const std::vector<SweepBatch> first = round_batches(0);
    std::size_t requests = 0;
    std::size_t fine = 0;
    for (const SweepBatch& batch : first) {
      requests += batch.requests.size();
      if (batch.cell_size_m != kCoarsePitchM) fine += batch.requests.size();
    }
    const core::ServerModel server(
        core::server_config_for(core::Approach::kProposed, kFinePitchM));
    // Operator (diagonal + 6 bands) and 8 CG vectors, in doubles.
    const double working_set_mib =
        static_cast<double>(server.thermal().cell_count()) * 15.0 * 8.0 /
        (1024.0 * 1024.0);
    std::ostringstream os;
    os << requests << " new requests in " << first.size()
       << " calls per round; " << fine << " at " << kFinePitchM * 1e3
       << " mm (CG working set " << working_set_mib << " MiB), the rest at "
       << kCoarsePitchM * 1e3 << " mm";
    return os.str();
  }

 private:
  static constexpr std::size_t kCacheCapacity = 4096;
  static constexpr std::size_t kIdentityStride = 17;

  /// What the checks keep of a solved request.
  struct Solved {
    bool done = false;
    std::uint64_t digest = 0;
    double tcase_c = 0.0;
    double power_w = 0.0;
  };

  [[nodiscard]] std::vector<SweepBatch> round_batches(std::size_t r) const {
    const auto first = plan_.batches.begin() +
                       static_cast<std::ptrdiff_t>(r * plan_.batches_per_round);
    return {first, first + static_cast<std::ptrdiff_t>(plan_.batches_per_round)};
  }

  core::ApproachPipeline& pipeline_for(core::Approach approach) {
    auto& pipeline = pipelines_[approach];
    if (!pipeline) {
      pipeline = std::make_unique<core::ApproachPipeline>(approach, kCoarsePitchM);
    }
    return *pipeline;
  }

  [[nodiscard]] std::vector<core::SimulationResult> solve_batch(
      const SweepBatch& batch,
      const std::shared_ptr<core::SolveCache>& cache) const {
    const auto& benches = workload::parsec_benchmarks();
    if (batch.kind == RequestKind::kSchedule) {
      std::vector<core::ScheduleRequest> requests;
      for (const std::size_t i : batch.requests) {
        const SweepRequest& req = plan_.requests[i];
        requests.push_back({&benches[req.bench], {req.qos_factor}});
      }
      return core::run_parallel_schedules(batch.approach, batch.cell_size_m,
                                          requests, 1, cache);
    }
    std::vector<core::SolveRequest> requests;
    for (const std::size_t i : batch.requests) {
      const SweepRequest& req = plan_.requests[i];
      requests.push_back(
          {&benches[req.bench], req.config, req.cores, req.idle_state});
    }
    return core::run_parallel_solves(batch.approach, batch.cell_size_m,
                                     requests, 1, cache);
  }

  std::uint64_t seed_;
  std::size_t threads_;
  SweepPlan plan_;
  std::vector<Solved> solved_;
  /// Scheduler-only pipelines (no cache, never solving).
  std::map<core::Approach, std::unique_ptr<core::ApproachPipeline>> pipelines_;
};

// ----------------------------------------------------------- fleet_day --

constexpr std::size_t kFleetRacks = 6;
constexpr std::size_t kServersPerRack = 4;
constexpr std::size_t kFleetStreams = 16;
constexpr double kFleetPitchM = 2.0e-3;

/// Generated diurnal days on a 6-rack heterogeneous fleet, each from a
/// cold cache: each interval waits for its few cold solves, so the
/// interval's critical path and thread scaling decide the wall time.
class FleetDay final : public Workload {
 public:
  FleetDay(std::uint64_t seed, std::size_t threads)
      : seed_(seed), threads_(threads) {}

  [[nodiscard]] double nominal_round_s() const override { return 0.3; }

  void setup(std::size_t rounds) override {
    config_ = datacenter::make_heterogeneous_fleet(kFleetRacks, kServersPerRack,
                                                   kFleetPitchM);
    days_.clear();
    for (const std::uint64_t day : day_seeds(seed_, rounds)) {
      days_.push_back(datacenter::WorkloadGenerator(
                          datacenter::diurnal_fleet_day(day, kFleetStreams))
                          .generate());
    }
    digests_.reset(rounds);
    warm_pipelines(fleet_pipeline_kinds(config_), threads_,
                   core::SolveCache::global());
  }

  RoundOutcome round(std::size_t index, std::vector<double>& step_ms) override {
    core::SolveCache::global()->clear();
    FleetRun run = drive_fleet(config_, days_[index], &step_ms, false);
    if (!digests_.consistent(index, run.digest)) {
      report_failure("fleet day " + std::to_string(index) +
                     " gave different bits when run again");
      run.outcome.failed = run.outcome.ops;
    }
    return run.outcome;
  }

  CheckOutcome check() override {
    // Day 0 again, keeping its jobs: a day already runs every distinct
    // solve this fleet's job mix can ask for.
    core::SolveCache::global()->clear();
    const FleetRun again = drive_fleet(config_, days_[0], nullptr, true);
    CheckOutcome out = fleet_reference_error(config_, {*again.result});
    ++out.ops;
    if (!digests_.consistent(0, again.digest)) {
      ++out.failed;
      report_failure("fleet day 0 gave different bits when run again");
    }
    return out;
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    os << "a new diurnal day of " << kFleetStreams << " streams per round, "
       << kFleetRacks << " racks x " << kServersPerRack << " servers at "
       << kFleetPitchM * 1e3 << " mm, cold cache per round";
    return os.str();
  }

 private:
  std::uint64_t seed_;
  std::size_t threads_;
  datacenter::FleetConfig config_;
  std::vector<std::vector<workload::WorkloadTrace>> days_;
  RoundDigests digests_;
};

// -------------------------------------------------------- fleet_replay --

/// A generated week replayed against a solve cache that set-up filled
/// with a cold pass and sent through a snapshot save/clear/load round
/// trip: every solve of the timed phase is a hit, so this is the cache's
/// read side plus placement, rack cooling and the observers.
class FleetReplay final : public Workload {
 public:
  FleetReplay(std::uint64_t seed, std::size_t threads, std::string scratch_dir)
      : seed_(seed),
        threads_(threads),
        snapshot_((std::filesystem::path(scratch_dir) / "replay.snap").string()) {}

  ~FleetReplay() override {
    std::error_code ignored;
    const std::filesystem::path snap(snapshot_);
    for (const auto& entry :
         std::filesystem::directory_iterator(snap.parent_path(), ignored)) {
      if (entry.path().filename().string().rfind("replay.snap", 0) == 0) {
        std::filesystem::remove(entry.path(), ignored);
      }
    }
  }
  FleetReplay(const FleetReplay&) = delete;
  FleetReplay& operator=(const FleetReplay&) = delete;

  [[nodiscard]] double nominal_round_s() const override { return 0.08; }

  void setup(std::size_t /*rounds*/) override {
    config_ = datacenter::make_heterogeneous_fleet(kFleetRacks, kServersPerRack,
                                                   kFleetPitchM);
    streams_ = datacenter::WorkloadGenerator(
                   datacenter::diurnal_fleet_week(seed_, kFleetStreams))
                   .generate();
    warm_pipelines(fleet_pipeline_kinds(config_), threads_,
                   core::SolveCache::global());
    core::SolveCache& cache = *core::SolveCache::global();
    cache.clear();
    FleetRun cold = drive_fleet(config_, streams_, nullptr, true);
    cold_digest_ = cold.digest;
    cold_result_ = std::move(*cold.result);
    const std::uint64_t content = cache.content_digest();
    {
      util::TraceSpan span(kSpanCacheSave);
      cache.save(snapshot_);
    }
    cache.clear();
    {
      util::TraceSpan span(kSpanCacheLoad);
      cache.load(snapshot_);
    }
    if (cache.content_digest() != content) {
      throw std::runtime_error("solve-cache snapshot round trip changed the cache");
    }
  }

  RoundOutcome round(std::size_t /*index*/,
                     std::vector<double>& step_ms) override {
    return replay(&step_ms, false).outcome;
  }

  CheckOutcome check() override {
    // One more replay keeping its result: its fleet_digest must equal the
    // cold pass's (the timed replays matched the cold stream digest).
    const FleetRun again = replay(nullptr, true);
    CheckOutcome out = fleet_reference_error(config_, {cold_result_});
    out.ops += again.outcome.ops;
    out.failed += again.outcome.failed;
    if (datacenter::fleet_digest(*again.result) !=
        datacenter::fleet_digest(cold_result_)) {
      report_failure("fleet replay fleet_digest differs from the cold pass");
      ++out.failed;
    }
    return out;
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    os << kFleetStreams << " streams, one diurnal week, " << kFleetRacks
       << " racks x " << kServersPerRack << " servers, "
       << core::SolveCache::global()->stats().size
       << " cached solves loaded from a snapshot";
    return os.str();
  }

 private:
  std::uint64_t seed_;
  std::size_t threads_;
  std::string snapshot_;
  datacenter::FleetConfig config_;
  std::vector<workload::WorkloadTrace> streams_;
  /// Replay the week against the loaded cache: no miss, and the cold
  /// pass's interval stream bit for bit.
  FleetRun replay(std::vector<double>* step_ms, bool keep_result) {
    const core::SolveCache::Stats before = core::SolveCache::global()->stats();
    FleetRun run = drive_fleet(config_, streams_, step_ms, keep_result);
    const core::SolveCache::Stats after = core::SolveCache::global()->stats();
    if (after.misses != before.misses) {
      report_failure("fleet replay missed the cache " +
                     std::to_string(after.misses - before.misses) + " times");
      run.outcome.failed = run.outcome.ops;
    }
    if (run.digest != cold_digest_) {
      report_failure("fleet replay differs from the cold pass");
      run.outcome.failed = run.outcome.ops;
    }
    return run;
  }

  std::uint64_t cold_digest_ = 0;
  datacenter::FleetResult cold_result_;
};

// ------------------------------------------------------- transient_day --

constexpr std::size_t kTransientRacks = 2;
constexpr std::size_t kTransientServers = 2;
constexpr std::size_t kTransientStreams = 4;
/// Coarser than the fleet's pitch so that a whole diurnal day of adaptive
/// backward-Euler stepping fits in a few seconds.
constexpr double kTransientPitchM = 4.0e-3;
/// A 24 h diurnal day on a 4 h slot grid, each slot a new phase: every
/// stream contributes one chained segment per interval.
constexpr double kTransientSlotS = 4.0 * 3600.0;

/// TransientFleetEngine::run over generated diurnal days, a new one per
/// round: the only workload that exercises backward-Euler stepping, step
/// accept/reject and segment chaining.
class TransientDay final : public Workload {
 public:
  TransientDay(std::uint64_t seed, std::size_t threads)
      : seed_(seed), threads_(threads) {}

  [[nodiscard]] double nominal_round_s() const override { return 3.5; }

  void setup(std::size_t rounds) override {
    config_ = datacenter::make_heterogeneous_fleet(
        kTransientRacks, kTransientServers, kTransientPitchM);
    days_.clear();
    for (const std::uint64_t day : day_seeds(seed_, rounds)) {
      datacenter::WorkloadGenConfig gen =
          datacenter::diurnal_fleet_day(day, kTransientStreams);
      gen.slot_s = kTransientSlotS;
      gen.mean_phase_slots = 1.0;
      days_.push_back(datacenter::WorkloadGenerator(gen).generate());
    }
    steady_.assign(rounds, {});
    digests_.reset(rounds);
    warm_pipelines(fleet_pipeline_kinds(config_), threads_,
                   core::SolveCache::global());
  }

  RoundOutcome round(std::size_t index, std::vector<double>& step_ms) override {
    const std::vector<workload::WorkloadTrace>& streams = days_[index];
    core::SolveCache::global()->clear();
    const auto start = Clock::now();
    datacenter::TransientFleetEngine engine(config_, {});
    datacenter::TransientFleetResult result = engine.run(streams);
    step_ms.push_back(ms_since(start));

    RoundOutcome out;
    out.transient_steps = static_cast<double>(result.total_steps);
    out.transient_rejected = static_cast<double>(result.total_rejected_steps);
    double covered_s = 0.0;
    for (const datacenter::TransientInterval& interval : result.intervals) {
      covered_s += interval.duration_s;
      for (const datacenter::TransientJobOutcome& job : interval.jobs) {
        ++out.ops;
        const bool ok = finite(job.peak_tcase_c) && finite(job.end_tcase_c) &&
                        finite(job.peak_die_c) &&
                        job.peak_tcase_c >= job.end_tcase_c && job.steps > 0;
        if (!ok) {
          ++out.failed;
          report_failure("transient segment (interval " +
                         std::to_string(interval.interval) + ", stream " +
                         std::to_string(job.stream) +
                         "): peak < end TCASE, no steps, or non-finite");
        }
      }
    }
    double trace_s = 0.0;
    for (const workload::WorkloadTrace& trace : streams) {
      trace_s = std::max(trace_s, trace.total_duration_s());
    }
    if (std::fabs(covered_s - trace_s) > 1e-6 * trace_s) {
      report_failure("transient intervals cover " + std::to_string(covered_s) +
                     " s of a " + std::to_string(trace_s) + " s trace");
      out.failed = out.ops;
    }
    if (!digests_.consistent(index, datacenter::transient_digest(result))) {
      report_failure("transient day " + std::to_string(index) +
                     " gave different bits when run again");
      out.failed = out.ops;
    }
    steady_[index] = std::move(result.steady);
    return out;
  }

  CheckOutcome check() override {
    return fleet_reference_error(config_, steady_);
  }

  [[nodiscard]] std::string describe() const override {
    std::ostringstream os;
    os << "a new diurnal day of " << kTransientStreams
       << " streams per round on a " << kTransientSlotS / 3600.0
       << " h grid, " << kTransientRacks << " racks x " << kTransientServers
       << " servers at " << kTransientPitchM * 1e3
       << " mm, cold cache per round";
    return os.str();
  }

 private:
  std::uint64_t seed_;
  std::size_t threads_;
  datacenter::FleetConfig config_;
  std::vector<std::vector<workload::WorkloadTrace>> days_;
  std::vector<datacenter::FleetResult> steady_;
  RoundDigests digests_;
};

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names{"mapping_sweep", "fleet_day",
                                              "fleet_replay", "transient_day"};
  return names;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, std::size_t threads,
                                        const std::string& scratch_dir) {
  if (name == "mapping_sweep") return std::make_unique<MappingSweep>(seed, threads);
  if (name == "fleet_day") return std::make_unique<FleetDay>(seed, threads);
  if (name == "fleet_replay") {
    return std::make_unique<FleetReplay>(seed, threads, scratch_dir);
  }
  if (name == "transient_day") return std::make_unique<TransientDay>(seed, threads);
  throw std::invalid_argument("unknown workload '" + name + "'");
}

}  // namespace perfbench
