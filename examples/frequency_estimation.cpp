// Demonstrates the change-frequency estimators behind the UpdateModule
// (Section 5.3 / [CGM99a]): naive, EP (Poisson + confidence interval),
// EB (Bayesian frequency classes) and the bias-corrected ratio
// estimator, racing them on simulated pages of known rates.
//
//   ./build/examples/frequency_estimation

#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "estimator/bayesian_estimator.h"
#include "estimator/change_estimator.h"
#include "estimator/poisson_ci_estimator.h"
#include "util/random.h"
#include "util/table.h"

int main() {
  using namespace webevo;
  using namespace webevo::estimator;

  Rng rng(7);
  const double true_intervals[] = {2.0, 10.0, 45.0};  // days
  const int visits = 120;  // daily visits for four months

  TablePrinter table({"true interval", "naive", "EP", "EP 95% CI", "EB",
                      "ratio"});
  for (double interval : true_intervals) {
    const double rate = 1.0 / interval;
    std::vector<std::unique_ptr<ChangeEstimator>> estimators;
    estimators.push_back(MakeEstimator(EstimatorKind::kNaive));
    estimators.push_back(MakeEstimator(EstimatorKind::kPoissonCi));
    estimators.push_back(MakeEstimator(EstimatorKind::kBayesian));
    estimators.push_back(MakeEstimator(EstimatorKind::kRatio));

    for (int day = 0; day < visits; ++day) {
      bool changed = rng.NextDouble() < 1.0 - std::exp(-rate);
      for (auto& est : estimators) est->RecordObservation(1.0, changed);
    }

    auto* ep = static_cast<PoissonCiEstimator*>(estimators[1].get());
    Interval ci = ep->RateInterval(0.95);
    auto interval_of = [](double r) {
      return r > 0.0 ? TablePrinter::Fmt(1.0 / r, 1) : std::string("inf");
    };
    std::string ci_text = "[";
    ci_text += interval_of(ci.hi) + ", " + interval_of(ci.lo) + "]d";
    table.AddRow({TablePrinter::Fmt(interval, 1) + "d",
                  interval_of(estimators[0]->EstimatedRate()) + "d",
                  interval_of(estimators[1]->EstimatedRate()) + "d",
                  ci_text,
                  interval_of(estimators[2]->EstimatedRate()) + "d",
                  interval_of(estimators[3]->EstimatedRate()) + "d"});
  }
  std::printf("estimated mean change interval after %d daily visits:\n%s",
              visits, table.ToString().c_str());

  // EB's posterior in action: watch a weekly page get classified.
  std::printf("\nEB posterior evolution for a page changing weekly:\n");
  BayesianEstimator eb;  // classes: day/week/month/4months/year
  Rng rng2(11);
  TablePrinter posterior(
      {"after visit", "P{daily}", "P{weekly}", "P{monthly}", "P{4mo}",
       "P{yearly}"});
  const double weekly_rate = 1.0 / 7.0;
  for (int day = 1; day <= 56; ++day) {
    bool changed = rng2.NextDouble() < 1.0 - std::exp(-weekly_rate);
    eb.RecordObservation(1.0, changed);
    if (day % 14 == 0) {
      std::vector<std::string> row = {TablePrinter::Fmt(
          static_cast<int64_t>(day))};
      for (double p : eb.posterior()) {
        row.push_back(TablePrinter::Fmt(p, 3));
      }
      posterior.AddRow(row);
    }
  }
  std::printf("%s", posterior.ToString().c_str());
  std::printf("\nMAP class interval: %.0f days (true: 7)\n",
              1.0 / eb.MapRate());
  return 0;
}
