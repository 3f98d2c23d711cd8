#include "sweep.hpp"

#include <algorithm>
#include <iterator>
#include <memory>
#include <numeric>

#include "tpcool/core/server.hpp"
#include "tpcool/mapping/balancing.hpp"
#include "tpcool/mapping/clustered.hpp"
#include "tpcool/mapping/inlet_first.hpp"
#include "tpcool/mapping/proposed.hpp"
#include "tpcool/util/fnv.hpp"
#include "tpcool/workload/benchmark.hpp"

namespace perfbench {

using namespace tpcool;

namespace {

constexpr core::Approach kApproaches[] = {core::Approach::kProposed,
                                          core::Approach::kSoaBalancing,
                                          core::Approach::kSoaInletFirst};

/// Fill an explicit request: configuration, idle state, and cores from a
/// mapping policy or a uniformly random subset (as the oracle enumerates).
void draw_explicit(SplitMix64& rng, const floorplan::Floorplan& plan,
                   thermosyphon::Orientation orientation, SweepRequest& req) {
  static const std::vector<workload::Configuration> space =
      workload::configuration_space();
  const std::vector<power::CState>& states = power::all_cstates();
  req.config = space[rng.below(space.size())];
  req.idle_state = states[rng.below(states.size())];

  static const mapping::ProposedPolicy proposed;
  static const mapping::BalancingPolicy balancing;
  static const mapping::InletFirstPolicy inlet_first;
  static const mapping::ClusteredPolicy clustered;
  const mapping::MappingPolicy* policies[] = {&proposed, &balancing,
                                              &inlet_first, &clustered};
  const std::size_t pick = rng.below(5);
  if (pick < 4) {
    mapping::MappingContext context;
    context.floorplan = &plan;
    context.orientation = orientation;
    context.idle_state = req.idle_state;
    context.cores_needed = req.config.cores;
    req.core_source = policies[pick]->name();
    req.cores = policies[pick]->select_cores(context);
    return;
  }
  // Partial Fisher-Yates over the core ids.
  std::vector<int> ids;
  for (const floorplan::CoreSite& site : plan.cores()) ids.push_back(site.core_id);
  for (int i = 0; i < req.config.cores; ++i) {
    const std::size_t j =
        static_cast<std::size_t>(i) +
        rng.below(ids.size() - static_cast<std::size_t>(i));
    std::swap(ids[static_cast<std::size_t>(i)], ids[j]);
  }
  req.core_source = "random";
  req.cores.assign(ids.begin(), ids.begin() + req.config.cores);
  std::sort(req.cores.begin(), req.cores.end());
}

}  // namespace

SweepPlan make_sweep_plan(std::uint64_t seed, std::size_t rounds) {
  SplitMix64 rng(seed);
  const std::vector<workload::BenchmarkProfile>& benches =
      workload::parsec_benchmarks();
  const std::vector<workload::QoSRequirement>& qos = workload::qos_levels();
  SweepPlan plan;
  plan.batches_per_round = std::size(kApproaches) * (2 * kBatchesPerKind + 1);
  const auto add_batch = [&](RequestKind kind, core::Approach approach,
                             double cell, std::size_t count,
                             const core::ServerModel& server,
                             std::vector<std::size_t>& pairs) {
    SweepBatch batch{kind, approach, cell, {}};
    for (std::size_t i = 0; i < count; ++i) {
      SweepRequest req;
      req.kind = kind;
      req.approach = approach;
      req.cell_size_m = cell;
      if (kind == RequestKind::kSchedule) {
        const std::size_t pair = pairs.back();
        pairs.pop_back();
        req.bench = pair / qos.size();
        req.qos_factor = qos[pair % qos.size()].factor;
      } else {
        req.bench = rng.below(benches.size());
        draw_explicit(rng, server.floorplan(),
                      server.design().evaporator.orientation, req);
      }
      batch.requests.push_back(plan.requests.size());
      plan.requests.push_back(std::move(req));
    }
    plan.batches.push_back(std::move(batch));
  };
  // The floorplan and channel orientation do not depend on the pitch.
  std::vector<std::unique_ptr<core::ServerModel>> servers;
  for (const core::Approach approach : kApproaches) {
    servers.push_back(std::make_unique<core::ServerModel>(
        core::server_config_for(approach, kCoarsePitchM)));
  }
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t a = 0; a < std::size(kApproaches); ++a) {
      // Every (benchmark, QoS) pair in a seeded order: within a round an
      // approach's scheduler requests are distinct, so they all miss.
      std::vector<std::size_t> pairs(benches.size() * qos.size());
      std::iota(pairs.begin(), pairs.end(), std::size_t{0});
      for (std::size_t i = pairs.size(); i > 1; --i) {
        std::swap(pairs[i - 1], pairs[rng.below(i)]);
      }
      for (std::size_t b = 0; b < kBatchesPerKind; ++b) {
        add_batch(RequestKind::kSchedule, kApproaches[a], kCoarsePitchM,
                  kBatchSize, *servers[a], pairs);
        add_batch(RequestKind::kSolve, kApproaches[a], kCoarsePitchM,
                  kBatchSize, *servers[a], pairs);
      }
      add_batch(RequestKind::kSolve, kApproaches[a], kFinePitchM,
                kFinePerApproach, *servers[a], pairs);
    }
  }
  return plan;
}

std::uint64_t plan_digest(const SweepPlan& plan) {
  std::uint64_t digest = util::kFnvOffsetBasis;
  for (const SweepRequest& req : plan.requests) {
    util::fnv_u64(digest, static_cast<std::uint64_t>(req.kind));
    util::fnv_u64(digest, static_cast<std::uint64_t>(req.approach));
    util::fnv_f64(digest, req.cell_size_m);
    util::fnv_u64(digest, req.bench);
    util::fnv_f64(digest, req.qos_factor);
    util::fnv_u64(digest, static_cast<std::uint64_t>(req.config.cores));
    util::fnv_u64(digest,
                  static_cast<std::uint64_t>(req.config.threads_per_core));
    util::fnv_f64(digest, req.config.freq_ghz);
    util::fnv_string(digest, req.core_source);
    for (const int core : req.cores) {
      util::fnv_u64(digest, static_cast<std::uint64_t>(core));
    }
    util::fnv_u64(digest, static_cast<std::uint64_t>(req.idle_state));
  }
  for (const SweepBatch& batch : plan.batches) {
    util::fnv_u64(digest, batch.requests.size());
    for (const std::size_t i : batch.requests) util::fnv_u64(digest, i);
  }
  return digest;
}

}  // namespace perfbench
