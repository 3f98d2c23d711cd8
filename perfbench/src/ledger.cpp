#include "ledger.hpp"

#include <string_view>

#include "measure.hpp"
#include "tpcool/util/telemetry.hpp"

namespace perfbench {

using tpcool::util::MetricsSnapshot;
using tpcool::util::SpanRecord;
using tpcool::util::Telemetry;

namespace {

constexpr double kNsPerMs = 1e6;

std::vector<SpanInterval> intervals_named(const std::vector<SpanRecord>& spans,
                                          std::string_view name) {
  std::vector<SpanInterval> out;
  for (const SpanRecord& s : spans) {
    if (s.name == name) out.push_back({s.tid, s.start_ns, s.start_ns + s.dur_ns});
  }
  return out;
}

double total_ms(const std::vector<SpanInterval>& spans) {
  double ns = 0.0;
  for (const SpanInterval& s : spans) {
    ns += static_cast<double>(s.end_ns - s.start_ns);
  }
  return ns / kNsPerMs;
}

double span_arg(const SpanRecord& span, std::string_view key) {
  for (const auto& [k, v] : span.args) {
    if (k == key) return v;
  }
  return 0.0;
}

bool starts_with(std::string_view text, std::string_view prefix) {
  return text.substr(0, prefix.size()) == prefix;
}

bool ends_with(std::string_view text, std::string_view suffix) {
  return text.size() >= suffix.size() &&
         text.substr(text.size() - suffix.size()) == suffix;
}

}  // namespace

void Ledger::fold_round(double wall_ms) {
  const Telemetry& telemetry = Telemetry::instance();
  const std::vector<SpanRecord> spans = telemetry.merged_spans();
  const MetricsSnapshot snapshot = telemetry.metrics();
  ++rounds_;
  wall_ms_ += wall_ms;

  const auto advance = intervals_named(spans, kSpanAdvance);
  const auto solve = intervals_named(spans, "solve");
  const auto steady = intervals_named(spans, "steady_solve");
  const auto cg = intervals_named(spans, "cg");
  const auto segment = intervals_named(spans, "transient.segment");
  const auto schedule = intervals_named(spans, kSpanSchedule);

  interval_ms_ += total_ms(advance);
  // An interval blocks on solves the pool runs on any thread.
  interval_self_ms_ += self_time_ns(advance, solve, false) / kNsPerMs;
  segment_count_ += static_cast<double>(segment.size());
  segment_ms_ += total_ms(segment);
  solve_count_ += static_cast<double>(solve.size());
  solve_ms_ += total_ms(solve);
  solve_self_ms_ += self_time_ns(solve, steady, true) / kNsPerMs;
  steady_count_ += static_cast<double>(steady.size());
  steady_ms_ += total_ms(steady);
  steady_self_ms_ += self_time_ns(steady, cg, true) / kNsPerMs;
  cg_count_ += static_cast<double>(cg.size());
  cg_ms_ += total_ms(cg);
  schedule_ms_ += total_ms(schedule);
  for (const SpanRecord& s : spans) {
    if (s.name == "cg") {
      cg_cell_iters_ += span_arg(s, "n") * span_arg(s, "iterations");
    }
  }

  for (const auto& [name, value] : snapshot.counters) {
    const std::string_view n = name;
    if (starts_with(n, "cache.shard")) {
      if (ends_with(n, ".hits")) cache_hits_ += value;
      if (ends_with(n, ".misses")) cache_misses_ += value;
      if (ends_with(n, ".evictions")) cache_evictions_ += value;
    } else if (n == "pipeline.constructions") {
      constructions_ += value;
    } else if (n == "pipeline.reuses") {
      reuses_ += value;
    } else if (n == "pool.jobs") {
      pool_jobs_ += value;
    } else if (starts_with(n, "pool.worker") && ends_with(n, ".busy_ms")) {
      // pool.caller.busy_ms is left out: it also collects the inline jobs
      // that solver code runs inside another thread's chunk, which that
      // thread's own counter already holds.
      pool_busy_ms_ += value;
    }
  }
  for (const auto& [name, hist] : snapshot.histograms) {
    if (name == "cg.iterations") cg_iterations_ += hist.sum;
    if (name == "pool.chunks_per_job") {
      // Bucket 0 holds every job of at most one chunk: run inline.
      for (const auto& [upper, count] : hist.buckets) {
        if (upper <= 1.0) pool_inline_jobs_ += static_cast<double>(count);
      }
    }
  }
  dropped_spans_ += static_cast<double>(snapshot.dropped_spans);
}

void Ledger::fold_setup() {
  const std::vector<SpanRecord> spans = Telemetry::instance().merged_spans();
  ++setups_;
  save_ms_ += total_ms(intervals_named(spans, kSpanCacheSave));
  load_ms_ += total_ms(intervals_named(spans, kSpanCacheLoad));
  dropped_spans_ += static_cast<double>(
      Telemetry::instance().metrics().dropped_spans);
}

std::vector<std::pair<std::string, std::string>> Ledger::names() {
  std::vector<std::pair<std::string, std::string>> out;
  for (const LayerMetric& m : Ledger(1).metrics(1.0, 1.0)) {
    out.emplace_back(m.name, m.unit);
  }
  return out;
}

std::vector<LayerMetric> Ledger::metrics(double traced_wall_ms,
                                         double untraced_wall_ms) const {
  const double r = rounds_ > 0 ? static_cast<double>(rounds_) : 1.0;
  const double s = setups_ > 0 ? static_cast<double>(setups_) : 1.0;
  const auto ratio = [](double num, double den) {
    return den > 0.0 ? num / den : 0.0;
  };
  const double wall = wall_ms_ > 0.0 ? wall_ms_ : 1.0;
  return {
      {"datacenter.interval.ms", "ms", interval_ms_ / r},
      {"datacenter.interval.self_ms", "ms", interval_self_ms_ / r},
      {"datacenter.segment.count", "count", segment_count_ / r},
      {"datacenter.segment.ms", "ms", segment_ms_ / r},
      {"thermal.transient.steps", "count", transient_steps_ / r},
      {"thermal.transient.rejected", "count", transient_rejected_ / r},
      {"core.solve.count", "count", solve_count_ / r},
      {"core.solve.ms", "ms", solve_ms_ / r},
      {"core.solve.self_ms", "ms", solve_self_ms_ / r},
      {"core.solve.passes", "ratio", ratio(steady_count_, solve_count_)},
      {"core.cache.hits", "count", cache_hits_ / r},
      {"core.cache.misses", "count", cache_misses_ / r},
      {"core.cache.hit_ratio", "ratio",
       ratio(cache_hits_, cache_hits_ + cache_misses_)},
      {"core.cache.evictions", "count", cache_evictions_ / r},
      {"core.cache.save_ms", "ms", save_ms_ / s},
      {"core.cache.load_ms", "ms", load_ms_ / s},
      {"core.pipeline.constructions", "count", constructions_ / r},
      {"core.pipeline.reuses", "count", reuses_ / r},
      {"mapping.schedule_ms", "ms", schedule_ms_ / r},
      {"thermal.steady.count", "count", steady_count_ / r},
      {"thermal.steady.ms", "ms", steady_ms_ / r},
      {"thermal.steady.self_ms", "ms", steady_self_ms_ / r},
      {"util.cg.count", "count", cg_count_ / r},
      {"util.cg.ms", "ms", cg_ms_ / r},
      {"util.cg.iterations", "count", cg_iterations_ / r},
      {"util.cg.ns_per_cell_iter", "ns", ratio(cg_ms_ * kNsPerMs, cg_cell_iters_)},
      {"util.pool.jobs", "count", pool_jobs_ / r},
      {"util.pool.inline_jobs", "count", pool_inline_jobs_ / r},
      {"util.pool.busy_share", "ratio",
       ratio(pool_busy_ms_, static_cast<double>(threads_ - 1) * wall)},
      {"trace.overhead", "ratio",
       untraced_wall_ms > 0.0 ? traced_wall_ms / untraced_wall_ms - 1.0 : 0.0},
      {"trace.dropped_spans", "count", dropped_spans_},
  };
}

}  // namespace perfbench
