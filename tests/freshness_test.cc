#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

#include <gtest/gtest.h>

#include "freshness/analytic.h"
#include "freshness/freshness_tracker.h"
#include "freshness/revisit_optimizer.h"
#include "util/random.h"

namespace webevo::freshness {
namespace {

// Paper parameters: pages change every 4 months; cycle T = 1 month;
// batch window w = 1 week = T/4. Time unit here: months.
constexpr double kLambda = 0.25;  // 1 / (4 months)
constexpr double kPeriod = 1.0;
constexpr double kWeek = 0.25;

// ---------------------------------------------------------- closed forms

TEST(AnalyticTest, Table2InPlaceCell) {
  // Table 2: steady & batch with in-place updates = 0.88.
  EXPECT_NEAR(InPlaceFreshness(kLambda, kPeriod), 0.88, 0.005);
}

TEST(AnalyticTest, Table2SteadyShadowingCell) {
  // Table 2: steady with shadowing = 0.77.
  EXPECT_NEAR(SteadyShadowingFreshness(kLambda, kPeriod), 0.78, 0.01);
}

TEST(AnalyticTest, Table2BatchShadowingCell) {
  // Table 2: batch-mode with shadowing = 0.86.
  EXPECT_NEAR(BatchShadowingFreshness(kLambda, kPeriod, kWeek), 0.86,
              0.005);
}

TEST(AnalyticTest, SensitivityScenarioFromSection4) {
  // "pages change every month, batch crawler operates the first two
  // weeks": in-place 0.63, shadowing 0.50.
  EXPECT_NEAR(InPlaceFreshness(1.0, 1.0), 0.63, 0.005);
  EXPECT_NEAR(BatchShadowingFreshness(1.0, 1.0, 0.5), 0.50, 0.005);
}

TEST(AnalyticTest, ZeroRatePagesAlwaysFresh) {
  EXPECT_DOUBLE_EQ(InPlaceFreshness(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(SteadyShadowingFreshness(0.0, 1.0), 1.0);
  EXPECT_DOUBLE_EQ(BatchShadowingFreshness(0.0, 1.0, 0.25), 1.0);
}

TEST(AnalyticTest, FreshnessDecreasesWithChangeRate) {
  double prev = 1.0;
  for (double lambda : {0.1, 0.5, 1.0, 2.0, 5.0}) {
    double f = InPlaceFreshness(lambda, 1.0);
    EXPECT_LT(f, prev);
    prev = f;
  }
}

TEST(AnalyticTest, ShadowingNeverBeatsInPlace) {
  for (double lambda : {0.05, 0.25, 1.0, 3.0}) {
    for (double w : {0.1, 0.25, 0.5, 1.0}) {
      EXPECT_LE(BatchShadowingFreshness(lambda, 1.0, w),
                InPlaceFreshness(lambda, 1.0) + 1e-12);
    }
    EXPECT_LE(SteadyShadowingFreshness(lambda, 1.0),
              InPlaceFreshness(lambda, 1.0) + 1e-12);
  }
}

TEST(AnalyticTest, BatchShadowingBeatsSteadyShadowing) {
  // The paper's Section 4 conclusion: shadowing costs a steady crawler
  // much more than a batch crawler (0.77 vs 0.86).
  EXPECT_GT(BatchShadowingFreshness(kLambda, kPeriod, kWeek),
            SteadyShadowingFreshness(kLambda, kPeriod));
}

TEST(AnalyticTest, BatchShadowingApproachesSteadyAsWindowGrows) {
  // At w = T, batch + shadowing degenerates to steady + shadowing.
  EXPECT_NEAR(BatchShadowingFreshness(kLambda, kPeriod, kPeriod),
              SteadyShadowingFreshness(kLambda, kPeriod), 1e-12);
}

TEST(AnalyticTest, SmallLambdaStableNumerically) {
  double f = InPlaceFreshness(1e-12, 1.0);
  EXPECT_GT(f, 1.0 - 1e-9);
  EXPECT_LE(f, 1.0);
}

TEST(AnalyticTest, InPlaceAgeMatchesClosedForm) {
  // Sanity limits: age -> 0 as lambda -> 0; age -> T/2 as lambda -> inf.
  EXPECT_NEAR(InPlaceAge(1e-9, 30.0), 0.0, 1e-6);
  EXPECT_NEAR(InPlaceAge(1000.0, 30.0), 15.0, 0.01);
  // Mid-range hand check: T = 1, lambda = 1:
  // 0.5 - 1 + (1 - e^-1) = 0.1321.
  EXPECT_NEAR(InPlaceAge(1.0, 1.0), 0.5 - 1.0 + (1.0 - std::exp(-1.0)),
              1e-12);
}

// ------------------------------------------------------------- the curves

CurveSpec PaperSpec() {
  CurveSpec spec;
  spec.lambda = kLambda;
  spec.period = kPeriod;
  spec.crawl_window = kWeek;
  spec.horizon = 6.0;  // 6 cycles
  spec.samples = 2401;
  return spec;
}

TEST(CurveTest, ValidatesSpec) {
  CurveSpec bad = PaperSpec();
  bad.period = 0.0;
  EXPECT_FALSE(BatchInPlaceCurve(bad).ok());
  bad = PaperSpec();
  bad.crawl_window = 2.0 * bad.period;
  EXPECT_FALSE(BatchInPlaceCurve(bad).ok());
  bad = PaperSpec();
  bad.samples = 1;
  EXPECT_FALSE(SteadyInPlaceCurve(bad).ok());
  bad = PaperSpec();
  bad.lambda = -1.0;
  EXPECT_FALSE(SteadyInPlaceCurve(bad).ok());
}

TEST(CurveTest, AllCurvesBoundedInUnitInterval) {
  CurveSpec spec = PaperSpec();
  spec.lambda = 2.0;  // high rate exaggerates the shapes (like Fig 7)
  for (auto curve :
       {BatchInPlaceCurve(spec), SteadyInPlaceCurve(spec),
        SteadyShadowingCurve(spec, CurveKind::kCurrentCollection),
        SteadyShadowingCurve(spec, CurveKind::kCrawlerCollection),
        BatchShadowingCurve(spec, CurveKind::kCurrentCollection),
        BatchShadowingCurve(spec, CurveKind::kCrawlerCollection)}) {
    ASSERT_TRUE(curve.ok());
    for (double f : curve->freshness) {
      EXPECT_GE(f, -1e-12);
      EXPECT_LE(f, 1.0 + 1e-12);
    }
  }
}

TEST(CurveTest, SteadyInPlaceIsFlatAfterWarmup) {
  auto curve = SteadyInPlaceCurve(PaperSpec());
  ASSERT_TRUE(curve.ok());
  // Figure 7(b): the steady crawler's freshness is stable over time.
  double expected = InPlaceFreshness(kLambda, kPeriod);
  for (std::size_t i = 0; i < curve->time.size(); ++i) {
    if (curve->time[i] < kPeriod) continue;  // warm-up sweep
    EXPECT_NEAR(curve->freshness[i], expected, 1e-9);
  }
}

TEST(CurveTest, BatchInPlaceSawtoothAndAverage) {
  CurveSpec spec = PaperSpec();
  auto curve = BatchInPlaceCurve(spec);
  ASSERT_TRUE(curve.ok());
  // Figure 7(a): rises in the grey (crawl) region, decays in the white.
  // Check across a steady-state cycle [2T, 3T).
  double start_window = CurveTimeAverage(*curve, 2.0, 2.0 + kWeek);
  double end_idle = CurveTimeAverage(*curve, 2.9, 3.0);
  EXPECT_GT(start_window, end_idle);
  // Time-average equals the in-place closed form (the paper's claim
  // that batch and steady tie on average).
  double avg = CurveTimeAverage(*curve, 1.0, 6.0);
  EXPECT_NEAR(avg, InPlaceFreshness(kLambda, kPeriod), 0.002);
}

TEST(CurveTest, SteadyAndBatchTieOnAverageAcrossRates) {
  // The equal-average-freshness theorem, checked numerically across a
  // sweep of change rates.
  for (double lambda : {0.1, 0.25, 0.5, 1.0, 2.0}) {
    CurveSpec spec = PaperSpec();
    spec.lambda = lambda;
    auto batch = BatchInPlaceCurve(spec);
    auto steady = SteadyInPlaceCurve(spec);
    ASSERT_TRUE(batch.ok());
    ASSERT_TRUE(steady.ok());
    EXPECT_NEAR(CurveTimeAverage(*batch, 1.0, 6.0),
                CurveTimeAverage(*steady, 1.0, 6.0), 0.004)
        << "lambda=" << lambda;
  }
}

TEST(CurveTest, SteadyShadowCrawlerGrowsFromZeroEachCycle) {
  auto curve =
      SteadyShadowingCurve(PaperSpec(), CurveKind::kCrawlerCollection);
  ASSERT_TRUE(curve.ok());
  // Just after each cycle boundary freshness restarts near zero
  // (Figure 8(a) top).
  for (double boundary : {1.0, 2.0, 3.0}) {
    double just_after = CurveTimeAverage(*curve, boundary, boundary + 0.02);
    EXPECT_LT(just_after, 0.05) << "cycle at " << boundary;
  }
}

TEST(CurveTest, SteadyShadowingAverageMatchesClosedForm) {
  auto curve =
      SteadyShadowingCurve(PaperSpec(), CurveKind::kCurrentCollection);
  ASSERT_TRUE(curve.ok());
  EXPECT_NEAR(CurveTimeAverage(*curve, 1.0, 6.0),
              SteadyShadowingFreshness(kLambda, kPeriod), 0.002);
}

TEST(CurveTest, BatchShadowingAverageMatchesClosedForm) {
  auto curve =
      BatchShadowingCurve(PaperSpec(), CurveKind::kCurrentCollection);
  ASSERT_TRUE(curve.ok());
  EXPECT_NEAR(CurveTimeAverage(*curve, 1.0, 6.0),
              BatchShadowingFreshness(kLambda, kPeriod, kWeek), 0.002);
}

TEST(CurveTest, ShadowingCurrentCollectionEmptyBeforeFirstSwap) {
  auto steady =
      SteadyShadowingCurve(PaperSpec(), CurveKind::kCurrentCollection);
  ASSERT_TRUE(steady.ok());
  EXPECT_DOUBLE_EQ(steady->freshness.front(), 0.0);
  auto batch =
      BatchShadowingCurve(PaperSpec(), CurveKind::kCurrentCollection);
  ASSERT_TRUE(batch.ok());
  EXPECT_DOUBLE_EQ(batch->freshness.front(), 0.0);
}

TEST(CurveTest, InPlaceDashedLineDominatesShadowedSteady) {
  // Figure 8(a): "the dashed line is always higher than the solid
  // curve" — in-place beats shadowing for the steady crawler at every
  // post-warm-up instant on cycle average.
  CurveSpec spec = PaperSpec();
  auto shadowed =
      SteadyShadowingCurve(spec, CurveKind::kCurrentCollection);
  ASSERT_TRUE(shadowed.ok());
  double inplace = InPlaceFreshness(kLambda, kPeriod);
  for (std::size_t i = 0; i < shadowed->time.size(); ++i) {
    EXPECT_LE(shadowed->freshness[i], inplace + 1e-9);
  }
}

// --------------------------------------------------------- the optimizer

TEST(OptimizerTest, FreshnessAtLimits) {
  EXPECT_DOUBLE_EQ(RevisitOptimizer::FreshnessAt(0.0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(RevisitOptimizer::FreshnessAt(1.0, 0.0), 0.0);
  // Very fast revisiting of a slow page: freshness -> 1.
  EXPECT_NEAR(RevisitOptimizer::FreshnessAt(0.01, 100.0), 1.0, 1e-4);
  // f = lambda: F = 1 - e^-1.
  EXPECT_NEAR(RevisitOptimizer::FreshnessAt(1.0, 1.0),
              1.0 - std::exp(-1.0), 1e-12);
}

TEST(OptimizerTest, ValidatesInput) {
  EXPECT_FALSE(RevisitOptimizer::Optimize({}, 1.0).ok());
  EXPECT_FALSE(
      RevisitOptimizer::Optimize({{1.0, 1.0}}, 0.0).ok());
  EXPECT_FALSE(
      RevisitOptimizer::Optimize({{-1.0, 1.0}}, 1.0).ok());
  EXPECT_FALSE(
      RevisitOptimizer::Optimize({{1.0, 0.0}}, 1.0).ok());
}

TEST(OptimizerTest, BudgetIsExactlySpent) {
  std::vector<RateGroup> groups = {
      {0.01, 100.0}, {0.1, 50.0}, {1.0, 20.0}, {5.0, 5.0}};
  const double budget = 60.0;
  auto alloc = RevisitOptimizer::Optimize(groups, budget);
  ASSERT_TRUE(alloc.ok());
  double spent = 0.0;
  for (std::size_t i = 0; i < groups.size(); ++i) {
    spent += groups[i].weight * alloc->frequency[i];
  }
  EXPECT_NEAR(spent, budget, budget * 1e-6);
}

TEST(OptimizerTest, Figure9ShapeRisesThenFalls) {
  // Build a dense grid of rates with equal weights and check the
  // optimal frequency curve is unimodal: increasing, then decreasing
  // to zero — the paper's Figure 9.
  std::vector<RateGroup> groups;
  for (double rate = 0.01; rate <= 20.0; rate *= 1.3) {
    groups.push_back({rate, 1.0});
  }
  auto alloc = RevisitOptimizer::Optimize(groups, 5.0);
  ASSERT_TRUE(alloc.ok());
  const auto& f = alloc->frequency;
  // Find the peak.
  std::size_t peak = 0;
  for (std::size_t i = 0; i < f.size(); ++i) {
    if (f[i] > f[peak]) peak = i;
  }
  EXPECT_GT(peak, 0u);
  EXPECT_LT(peak, f.size() - 1);
  for (std::size_t i = 1; i <= peak; ++i) {
    EXPECT_GE(f[i], f[i - 1] - 1e-9) << "should rise before the peak";
  }
  for (std::size_t i = peak + 1; i < f.size(); ++i) {
    EXPECT_LE(f[i], f[i - 1] + 1e-9) << "should fall after the peak";
  }
  // Fast-changing tail is abandoned entirely (f = 0).
  EXPECT_DOUBLE_EQ(f.back(), 0.0);
}

TEST(OptimizerTest, OptimalBeatsUniformBeatsNothing) {
  std::vector<RateGroup> groups = {
      {0.005, 400.0}, {0.05, 300.0}, {0.3, 200.0}, {2.0, 100.0}};
  const double budget = 100.0;
  auto optimal = RevisitOptimizer::Optimize(groups, budget);
  auto uniform = RevisitOptimizer::Uniform(groups, budget);
  ASSERT_TRUE(optimal.ok());
  ASSERT_TRUE(uniform.ok());
  EXPECT_GE(optimal->freshness, uniform->freshness);
  EXPECT_GT(uniform->freshness, 0.0);
}

TEST(OptimizerTest, OptimalGainInPapersReportedRange) {
  // [CGM99b] (cited in Section 4): optimising revisit frequencies buys
  // 10%-23% freshness over the baseline. With a heavy-tailed rate mix
  // like the measured web, our solver's gain over uniform must land in
  // that ballpark (we accept 5%-40% for the synthetic mix).
  std::vector<RateGroup> groups = {
      {1.0, 23.0},           // daily changers (Fig 2a first bar)
      {1.0 / 3.5, 15.0},     // ~ every few days
      {1.0 / 15.0, 16.0},    // weekly-monthly
      {1.0 / 60.0, 16.0},    // monthly-4mo
      {1.0 / 400.0, 30.0}};  // effectively static
  const double budget = 100.0 / 30.0;  // everything once a month
  auto optimal = RevisitOptimizer::Optimize(groups, budget);
  auto uniform = RevisitOptimizer::Uniform(groups, budget);
  ASSERT_TRUE(optimal.ok());
  ASSERT_TRUE(uniform.ok());
  double gain = optimal->freshness / uniform->freshness - 1.0;
  EXPECT_GT(gain, 0.05);
  EXPECT_LT(gain, 0.40);
}

TEST(OptimizerTest, ProportionalCanLoseToUniform) {
  // The paper's p1/p2 example generalised: with one page changing every
  // day and one every "second" (here: 100x faster), proportional pours
  // budget into the hopeless page.
  std::vector<RateGroup> groups = {{1.0, 1.0}, {100.0, 1.0}};
  const double budget = 1.0;  // one visit/day total
  auto uniform = RevisitOptimizer::Uniform(groups, budget);
  auto proportional = RevisitOptimizer::Proportional(groups, budget);
  ASSERT_TRUE(uniform.ok());
  ASSERT_TRUE(proportional.ok());
  EXPECT_LT(proportional->freshness, uniform->freshness);
}

TEST(OptimizerTest, AllStaticPagesNeedNoVisits) {
  std::vector<RateGroup> groups = {{0.0, 10.0}, {0.0, 5.0}};
  auto alloc = RevisitOptimizer::Optimize(groups, 3.0);
  ASSERT_TRUE(alloc.ok());
  EXPECT_DOUBLE_EQ(alloc->freshness, 1.0);
  for (double f : alloc->frequency) EXPECT_DOUBLE_EQ(f, 0.0);
}

TEST(OptimizerTest, FrequencyAtMultiplierConsistentWithAllocation) {
  std::vector<RateGroup> groups = {{0.05, 10.0}, {0.5, 10.0}};
  auto alloc = RevisitOptimizer::Optimize(groups, 5.0);
  ASSERT_TRUE(alloc.ok());
  for (std::size_t i = 0; i < groups.size(); ++i) {
    EXPECT_NEAR(RevisitOptimizer::FrequencyAtMultiplier(
                    groups[i].rate, alloc->multiplier),
                alloc->frequency[i], 1e-9);
  }
}

TEST(OptimizerTest, EvaluateFreshnessValidates) {
  std::vector<RateGroup> groups = {{0.1, 1.0}};
  EXPECT_FALSE(
      RevisitOptimizer::EvaluateFreshness(groups, {0.1, 0.2}).ok());
  auto f = RevisitOptimizer::EvaluateFreshness(groups, {1.0});
  ASSERT_TRUE(f.ok());
  EXPECT_GT(*f, 0.9);
}

// The optimizer as it was before its bisections stopped at their fixed
// point: 200 fixed halvings in both, kept verbatim as the reference the
// early-exit solver must match bit for bit.
namespace full_bisection {

double G(double x) { return 1.0 - std::exp(-x) - x * std::exp(-x); }

double InverseG(double y) {
  double lo = 1e-12, hi = 745.0;
  if (y <= G(lo)) return lo;
  if (y >= G(hi)) return hi;
  for (int i = 0; i < 200; ++i) {
    double mid = 0.5 * (lo + hi);
    if (G(mid) < y) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

double FrequencyAt(double lambda, double mu) {
  if (lambda <= 0.0) return 0.0;
  double y = mu * lambda;
  if (y >= 1.0) return 0.0;
  return lambda / InverseG(y);
}

double TotalVisits(const std::vector<RateGroup>& groups, double mu) {
  double total = 0.0;
  for (const auto& g : groups) total += g.weight * FrequencyAt(g.rate, mu);
  return total;
}

// Optimize's multiplier for groups with at least one positive rate.
double Multiplier(const std::vector<RateGroup>& groups, double budget) {
  double hi = 0.0;
  for (const auto& g : groups) {
    if (g.rate > 0.0) hi = std::max(hi, 1.0 / g.rate);
  }
  double lo = hi;
  while (TotalVisits(groups, lo) < budget) {
    lo /= 2.0;
    if (lo < 1e-300) break;
  }
  for (int i = 0; i < 200; ++i) {
    double mid = 0.5 * (lo + hi);
    if (TotalVisits(groups, mid) > budget) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  return 0.5 * (lo + hi);
}

}  // namespace full_bisection

uint64_t Bits(double x) { return std::bit_cast<uint64_t>(x); }

// Rates log-uniform over [1/1000, 10] changes a day with a few static
// pages, weights in [1, 100).
std::vector<RateGroup> RandomGroups(Rng& rng, std::size_t count) {
  std::vector<RateGroup> groups(count);
  for (auto& g : groups) {
    g.rate = rng.Bernoulli(0.05) ? 0.0 : 1e-3 * std::pow(1e4, rng.NextDouble());
    g.weight = rng.Uniform(1.0, 100.0);
  }
  return groups;
}

TEST(OptimizerTest, EarlyExitBisectionMatchesFullBisectionBitForBit) {
  Rng rng(20000101);
  for (int trial = 0; trial < 60; ++trial) {
    const auto groups = RandomGroups(rng, 1 + rng.NextBounded(40));
    double weight = 0.0;
    for (const auto& g : groups) weight += g.weight;
    // From one visit per 1000 pages a day to ten visits per page a day.
    const double budget = weight * 1e-3 * std::pow(1e4, rng.NextDouble());
    SCOPED_TRACE(::testing::Message() << "trial " << trial << " groups "
                                      << groups.size() << " budget "
                                      << budget);
    auto alloc = RevisitOptimizer::Optimize(groups, budget);
    ASSERT_TRUE(alloc.ok());
    bool any_positive = false;
    for (const auto& g : groups) any_positive |= g.rate > 0.0;
    if (!any_positive) continue;
    const double mu = full_bisection::Multiplier(groups, budget);
    EXPECT_EQ(Bits(alloc->multiplier), Bits(mu));
    std::vector<double> want(groups.size());
    for (std::size_t i = 0; i < groups.size(); ++i) {
      want[i] = full_bisection::FrequencyAt(groups[i].rate, mu);
      EXPECT_EQ(Bits(alloc->frequency[i]), Bits(want[i])) << "group " << i;
    }
    auto freshness = RevisitOptimizer::EvaluateFreshness(groups, want);
    ASSERT_TRUE(freshness.ok());
    EXPECT_EQ(Bits(alloc->freshness), Bits(*freshness));
  }
  // Single-page pricing over multipliers on both sides of 1/rate.
  for (int i = 0; i < 2000; ++i) {
    const double rate = 1e-3 * std::pow(1e4, rng.NextDouble());
    const double mu = std::pow(10.0, rng.Uniform(-6.0, 4.0));
    EXPECT_EQ(Bits(RevisitOptimizer::FrequencyAtMultiplier(rate, mu)),
              Bits(full_bisection::FrequencyAt(rate, mu)))
        << "rate " << rate << " multiplier " << mu;
  }
}

TEST(OptimizerTest, UngroupedPerPageRatesSolveQuickly) {
  // One group per page, as a caller that skips rate bucketing passes
  // them: 20000 groups. With 200 fixed halvings in both bisections this
  // call took about 20 s; the suite's ctest TIMEOUT fails a relapse.
  Rng rng(19990217);
  std::vector<RateGroup> groups(20000);
  for (auto& g : groups) g.rate = 1e-3 * std::pow(1e4, rng.NextDouble());
  const double budget = 0.25 * static_cast<double>(groups.size());
  auto alloc = RevisitOptimizer::Optimize(groups, budget);
  ASSERT_TRUE(alloc.ok());
  double spent = 0.0;
  for (double f : alloc->frequency) spent += f;
  EXPECT_NEAR(spent, budget, budget * 1e-6);
}

// ------------------------------------------------------------- the tracker

TEST(TrackerTest, TimeAverageOfConstantSeries) {
  FreshnessTracker tracker;
  for (int i = 0; i <= 10; ++i) tracker.AddSample(i, 0.5);
  EXPECT_NEAR(tracker.TimeAverage(), 0.5, 1e-12);
  EXPECT_NEAR(tracker.TimeAverage(2.0, 7.0), 0.5, 1e-12);
}

TEST(TrackerTest, TimeAverageOfLinearRamp) {
  FreshnessTracker tracker;
  for (int i = 0; i <= 100; ++i) tracker.AddSample(i, i / 100.0);
  EXPECT_NEAR(tracker.TimeAverage(), 0.5, 1e-9);
  EXPECT_NEAR(tracker.TimeAverage(0.0, 50.0), 0.25, 1e-9);
}

TEST(TrackerTest, DropsBackwardsSamples) {
  FreshnessTracker tracker;
  tracker.AddSample(5.0, 1.0);
  tracker.AddSample(3.0, 0.0);  // ignored
  EXPECT_EQ(tracker.size(), 1u);
}

TEST(TrackerTest, MinMaxAndClear) {
  FreshnessTracker tracker;
  tracker.AddSample(0.0, 0.2);
  tracker.AddSample(1.0, 0.9);
  tracker.AddSample(2.0, 0.4);
  EXPECT_DOUBLE_EQ(tracker.MinValue(), 0.2);
  EXPECT_DOUBLE_EQ(tracker.MaxValue(), 0.9);
  tracker.Clear();
  EXPECT_TRUE(tracker.empty());
  EXPECT_DOUBLE_EQ(tracker.TimeAverage(), 0.0);
}

TEST(TrackerTest, EmptyRangeGivesZero) {
  FreshnessTracker tracker;
  tracker.AddSample(0.0, 1.0);
  tracker.AddSample(1.0, 1.0);
  EXPECT_DOUBLE_EQ(tracker.TimeAverage(5.0, 6.0), 0.0);
  EXPECT_DOUBLE_EQ(tracker.TimeAverage(3.0, 2.0), 0.0);
}

}  // namespace
}  // namespace webevo::freshness
