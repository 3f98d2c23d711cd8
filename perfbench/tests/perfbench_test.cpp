// Unit tests for the benchmark's own logic: the tail-percentile rule,
// self-time arithmetic, and the sweep generator's determinism.

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "measure.hpp"
#include "sweep.hpp"

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(TailPercentile, PicksTheHighestWithTenSamplesBeyond) {
  // 1000 samples: p99 leaves 10 beyond.
  TailPercentile tail = tail_percentile(one_to(1000));
  EXPECT_DOUBLE_EQ(tail.percentile, 99.0);
  EXPECT_TRUE(tail.qualified);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_EQ(tail.samples, 1000u);

  // 999 samples: p99 would leave 9, so p95.
  tail = tail_percentile(one_to(999));
  EXPECT_DOUBLE_EQ(tail.percentile, 95.0);
  EXPECT_GE(tail.beyond, 10u);

  // p99 is the highest candidate, however many samples.
  EXPECT_DOUBLE_EQ(tail_percentile(one_to(100000)).percentile, 99.0);

  // 100 samples: p90 exactly.
  tail = tail_percentile(one_to(100));
  EXPECT_DOUBLE_EQ(tail.percentile, 90.0);
  EXPECT_EQ(tail.beyond, 10u);
  EXPECT_DOUBLE_EQ(tail.value, 90.1);
}

TEST(TailPercentile, FallsBackToTheMedianWhenTooFewSamples) {
  const TailPercentile tail = tail_percentile(one_to(19));
  EXPECT_DOUBLE_EQ(tail.percentile, 50.0);
  EXPECT_FALSE(tail.qualified);
  EXPECT_DOUBLE_EQ(tail.value, 10.0);
  EXPECT_EQ(tail.beyond, 9u);
}

TEST(Percentile, InterpolatesBetweenOrderStatistics) {
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 99.0), 5.0);
  EXPECT_DOUBLE_EQ(percentile({}, 50.0), 0.0);
}

TEST(SelfTime, SubtractsNestedChildrenOnTheSameThread) {
  // Parent [0, 100) on thread 1 with children [10, 30) and [50, 60); a
  // child on thread 2 and one outside the parent do not count.
  const std::vector<SpanInterval> parents{{1, 0, 100}};
  const std::vector<SpanInterval> children{
      {1, 10, 30}, {1, 50, 60}, {2, 20, 90}, {1, 200, 300}};
  EXPECT_DOUBLE_EQ(self_time_ns(parents, children, true), 70.0);
}

TEST(SelfTime, UnionsOverlappingChildrenAcrossThreads) {
  // A blocking call [0, 100) whose fan-out ran [10, 40) on thread 1,
  // [20, 60) on thread 2 and [90, 120) on thread 3: covered is
  // [10, 60) + [90, 100) = 60.
  const std::vector<SpanInterval> parents{{0, 0, 100}};
  const std::vector<SpanInterval> children{
      {1, 10, 40}, {2, 20, 60}, {3, 90, 120}};
  EXPECT_DOUBLE_EQ(self_time_ns(parents, children, false), 40.0);
}

TEST(SelfTime, SumsOverParentsAndFindsLongChildrenStartingEarly) {
  // The long child starts before the second parent and covers half of it.
  const std::vector<SpanInterval> parents{{0, 0, 10}, {0, 100, 200}};
  const std::vector<SpanInterval> children{{1, 0, 150}, {1, 160, 161}};
  // Parent 1: fully covered (0).  Parent 2: covered [100, 150) + [160, 161).
  EXPECT_DOUBLE_EQ(self_time_ns(parents, children, false), 49.0);
  EXPECT_DOUBLE_EQ(self_time_ns(parents, {}, false), 110.0);
}

TEST(SweepPlan, SameSeedGivesIdenticalRequests) {
  const SweepPlan a = make_sweep_plan(7, 3);
  const SweepPlan b = make_sweep_plan(7, 3);
  EXPECT_EQ(plan_digest(a), plan_digest(b));
  EXPECT_NE(plan_digest(a), plan_digest(make_sweep_plan(8, 3)));
}

TEST(SweepPlan, ALongerPlanExtendsAShorterOne) {
  const SweepPlan shorter = make_sweep_plan(7, 2);
  SweepPlan longer = make_sweep_plan(7, 5);
  longer.requests.resize(shorter.requests.size());
  longer.batches.resize(shorter.batches.size());
  EXPECT_EQ(plan_digest(longer), plan_digest(shorter));
}

TEST(SweepPlan, HasTheStatedShapeAndValidRequests) {
  constexpr std::size_t kRounds = 4;
  const SweepPlan plan = make_sweep_plan(1, kRounds);
  constexpr std::size_t kApproaches = 3;
  EXPECT_EQ(plan.batches_per_round, kApproaches * (2 * kBatchesPerKind + 1));
  EXPECT_EQ(plan.batches.size(), kRounds * plan.batches_per_round);
  EXPECT_EQ(plan.requests.size(),
            kRounds * kApproaches *
                (2 * kBatchesPerKind * kBatchSize + kFinePerApproach));
  std::size_t fine = 0;
  for (const SweepBatch& batch : plan.batches) {
    for (const std::size_t i : batch.requests) {
      const SweepRequest& req = plan.requests[i];
      EXPECT_EQ(req.kind, batch.kind);
      EXPECT_EQ(req.approach, batch.approach);
      EXPECT_EQ(req.cell_size_m, batch.cell_size_m);
      if (req.cell_size_m == kFinePitchM) ++fine;
      if (req.kind == RequestKind::kSolve) {
        EXPECT_EQ(static_cast<int>(req.cores.size()), req.config.cores);
      }
    }
  }
  EXPECT_EQ(fine, kRounds * kApproaches * kFinePerApproach);
}

TEST(SplitMix64, MatchesTheReferenceSequence) {
  // First outputs of splitmix64 seeded with 0 (Vigna's reference code).
  SplitMix64 rng(0);
  EXPECT_EQ(rng.next(), 0xE220A8397B1DCDAFULL);
  EXPECT_EQ(rng.next(), 0x6E789E6AA1B965F4ULL);
}

}  // namespace
}  // namespace perfbench
