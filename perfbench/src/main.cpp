/// \file main.cpp
/// \brief The tpcool benchmark: runs one seeded workload through the
///        library's public API and prints every metric by name and unit;
///        the last stdout line is one JSON object with the result.
///
/// Usage:
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--scratch DIR]
///   perfbench --list-metrics
///
/// `--trace 0` prints the end-to-end metrics (tracing off); `--trace 1`
/// prints the per-layer ledger of a traced run.  Exit status: 0 when every
/// output check passed, 1 when a check failed, 2 on a usage error.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "ledger.hpp"
#include "measure.hpp"
#include "tpcool/util/telemetry.hpp"
#include "tpcool/util/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
using Clock = std::chrono::steady_clock;
using tpcool::util::Telemetry;

/// Set-ups per run; set-up time is their median.
constexpr std::size_t kSetupRepeats = 7;
/// A timing is retaken when the hypervisor stole more than this share of
/// the machine's CPU time while it ran.
constexpr double kMaxStealShare = 0.01;
/// Fewest timed rounds a run makes (and, in a traced run, each of its
/// untraced and traced halves).
constexpr long kMinRounds = 3;
/// Span slots per thread ring: rings are emptied after every traced
/// round, and the largest round records well under this many per thread.
constexpr std::size_t kRingCapacity = std::size_t{1} << 16;

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

/// End-to-end metric names and units, in BENCHMARK.json order.
const std::vector<std::pair<std::string, std::string>>& end_to_end_names() {
  static const std::vector<std::pair<std::string, std::string>> names{
      {"wall_s", "s"},          {"step_p50_ms", "ms"},
      {"step_tail_ms", "ms"},   {"setup_s", "s"},
      {"peak_rss_mb", "MB"},    {"tcase_err_c", "degC"}};
  return names;
}

/// Cumulative steal and total CPU time of the whole machine, in ticks
/// (/proc/stat); zeros where unavailable, which reads as no steal.
struct CpuTicks {
  unsigned long long steal = 0;
  unsigned long long total = 0;
};

CpuTicks cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  stat >> cpu;
  CpuTicks ticks;
  // user nice system idle iowait irq softirq steal (guest time is already
  // inside user and nice).
  for (int field = 0; field < 8; ++field) {
    unsigned long long value = 0;
    if (!(stat >> value)) return {};
    ticks.total += value;
    if (field == 7) ticks.steal = value;
  }
  return ticks;
}

double steal_share(const CpuTicks& before, const CpuTicks& after) {
  if (after.total <= before.total) return 0.0;
  return static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Peak resident memory of this process image.  VmHWM, not getrusage:
/// Linux folds the pre-exec parent's peak into ru_maxrss.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB
    }
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

std::string json_names(
    const std::vector<std::pair<std::string, std::string>>& names) {
  std::string out = "[";
  for (std::size_t i = 0; i < names.size(); ++i) {
    out += (i ? ", " : "") + std::string("[\"") + names[i].first + "\", \"" +
           names[i].second + "\"]";
  }
  return out + "]";
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  std::string scratch = ".";
};

bool parse(int argc, char** argv, Args& args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--scratch") {
        args.scratch = value;
      } else {
        return false;
      }
    } catch (const std::exception&) {
      return false;
    }
  }
  return argc % 2 == 1 && !args.workload.empty() && args.seconds > 0.0 &&
         (args.trace == 0 || args.trace == 1);
}

void print_metric(const Metric& m, const std::string& note = "") {
  std::printf("  %-30s %14.6g %-6s %s\n", m.name.c_str(), m.value,
              m.unit.c_str(), note.c_str());
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::string(argv[1]) == "--list-metrics") {
    std::string workloads;
    for (const std::string& name : workload_names()) {
      workloads += (workloads.empty() ? "\"" : ", \"") + name + "\"";
    }
    std::printf(
        "{\"workloads\": [%s], \"end_to_end\": %s, \"per_layer\": %s}\n",
        workloads.c_str(), json_names(end_to_end_names()).c_str(),
        json_names(Ledger::names()).c_str());
    return 0;
  }
  Args args;
  if (!parse(argc, argv, args)) {
    std::cerr << "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 [--scratch DIR] | --list-metrics\n";
    return 2;
  }

  // One process, T = min(4, cores) pool threads, one closed-loop caller.
  const std::size_t threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  tpcool::util::ThreadPool::set_global_thread_count(threads);

  std::unique_ptr<Workload> workload;
  try {
    workload = make_workload(args.workload, args.seed, threads, args.scratch);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 2;
  }
  // Fixed work per run: the round count depends on --seconds only.
  const long rounds = std::max(
      kMinRounds, std::lround(args.seconds / workload->nominal_round_s()));

  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::vector<Metric> metrics;
  std::ostringstream notes;

  // Timings taken while the hypervisor stole CPU from this machine measure
  // the neighbours, not the code: such a round (or set-up) is run again,
  // up to `rounds` extra times per run.  Its ops still count.
  long retries_left = rounds;
  long retried = 0;
  const auto disturbed = [&](const CpuTicks& before) {
    if (steal_share(before, cpu_ticks()) <= kMaxStealShare || retries_left == 0) {
      return false;
    }
    --retries_left;
    ++retried;
    return true;
  };

  const auto run_round = [&](long index, bool traced, Ledger* ledger,
                             std::vector<double>& wall_s,
                             std::vector<double>& step_ms) {
    Telemetry& telemetry = Telemetry::instance();
    for (;;) {
      if (traced) {
        telemetry.reset();
        telemetry.enable({kRingCapacity});
      }
      std::vector<double> steps;
      const CpuTicks before = cpu_ticks();
      const auto start = Clock::now();
      RoundOutcome out;
      try {
        out = workload->round(static_cast<std::size_t>(index), steps);
      } catch (const std::exception& error) {
        std::cerr << "perfbench: round threw: " << error.what() << "\n";
        out.ops = out.failed = 1;
      }
      const double wall = seconds_since(start);
      attempted += out.ops;
      failed += out.failed;
      const bool again = disturbed(before);
      if (traced) {
        workload->traced_extras(static_cast<std::size_t>(index));
        telemetry.disable();
      }
      if (again) continue;
      wall_s.push_back(wall);
      step_ms.insert(step_ms.end(), steps.begin(), steps.end());
      if (traced) {
        ledger->fold_round(wall * 1e3);
        ledger->add_transient_steps(out.transient_steps, out.transient_rejected);
      }
      return;
    }
  };

  try {
    if (args.trace == 0) {
      std::vector<double> setup_s;
      while (setup_s.size() < kSetupRepeats) {
        const CpuTicks before = cpu_ticks();
        const auto start = Clock::now();
        workload->setup(static_cast<std::size_t>(rounds));
        const double wall = seconds_since(start);
        if (!disturbed(before)) setup_s.push_back(wall);
      }
      std::vector<double> wall_s;
      std::vector<double> step_ms;
      for (long r = 0; r < rounds; ++r) {
        run_round(r, false, nullptr, wall_s, step_ms);
      }
      const CheckOutcome checks = workload->check();
      attempted += checks.ops;
      failed += checks.failed;

      const TailPercentile tail = tail_percentile(step_ms);
      const std::map<std::string, double> values{
          {"wall_s", median(wall_s)},
          {"step_p50_ms", median(step_ms)},
          {"step_tail_ms", tail.value},
          {"setup_s", median(setup_s)},
          {"peak_rss_mb", peak_rss_mb()},
          {"tcase_err_c", checks.tcase_err_c}};
      for (const auto& [name, unit] : end_to_end_names()) {
        metrics.push_back({name, unit, values.at(name)});
      }
      notes << "rounds=" << wall_s.size() << " steps=" << step_ms.size()
            << " tail=p" << tail.percentile << " with " << tail.beyond
            << " of " << tail.samples << " beyond"
            << (tail.qualified ? "" : " (under 10: the median is reported)")
            << "; " << retried << " re-run for CPU steal";
    } else {
      Telemetry& telemetry = Telemetry::instance();
      Ledger ledger(threads);
      // Untraced and traced rounds alternate, each first in every other
      // pair, so drift during the run and the order within a pair do not
      // bias the overhead.
      const long half = std::max(kMinRounds, (rounds + 1) / 2);
      telemetry.reset();
      telemetry.enable({kRingCapacity});
      workload->setup(static_cast<std::size_t>(2 * half));
      telemetry.disable();
      ledger.fold_setup();

      std::vector<double> untraced_s, traced_s, step_ms;
      for (long r = 0; r < half; ++r) {
        const bool traced_first = r % 2 == 1;
        run_round(2 * r, traced_first, &ledger,
                  traced_first ? traced_s : untraced_s, step_ms);
        run_round(2 * r + 1, !traced_first, &ledger,
                  traced_first ? untraced_s : traced_s, step_ms);
      }
      telemetry.reset();
      const CheckOutcome checks = workload->check();
      attempted += checks.ops;
      failed += checks.failed;

      // Every cache miss executes a coupled solve or, in the transient
      // engine, a segment; hits execute neither (TRACING.md).
      if (ledger.dropped_spans() == 0 &&
          ledger.solve_count() + ledger.segment_count() !=
              ledger.cache_misses()) {
        std::cerr << "perfbench: check failed: " << ledger.solve_count()
                  << " solve + " << ledger.segment_count()
                  << " segment spans vs " << ledger.cache_misses()
                  << " cache misses\n";
        ++failed;
      }
      for (const LayerMetric& m :
           ledger.metrics(median(traced_s) * 1e3, median(untraced_s) * 1e3)) {
        metrics.push_back({m.name, m.unit, m.value});
      }
      notes << "rounds=" << untraced_s.size() << " untraced + "
            << traced_s.size() << " traced; per-layer values are per traced "
            << "round (save/load: per set-up); " << retried
            << " re-run for CPU steal";
    }
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << args.workload << " failed: " << error.what()
              << "\n";
    return 1;
  }

  const double error_rate =
      attempted > 0 ? static_cast<double>(failed) / static_cast<double>(attempted)
                    : 1.0;
  std::printf("perfbench %s seed=%llu threads=%zu trace=%d\n",
              args.workload.c_str(),
              static_cast<unsigned long long>(args.seed), threads, args.trace);
  std::printf("  inputs: %s\n  %s\n", workload->describe().c_str(),
              notes.str().c_str());
  for (const Metric& m : metrics) print_metric(m);
  print_metric({"error_rate", "ratio", error_rate},
               "(" + std::to_string(failed) + " of " +
                   std::to_string(attempted) + " ops failed)");

  const bool correct = failed == 0 && attempted > 0;
  std::string json = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    json += (i ? ", " : "") + std::string("\"") + metrics[i].name +
            "\": {\"value\": " + json_number(metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}
