#include "crawler/crawl_module.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace webevo::crawler {

StatusOr<simweb::FetchResult> CrawlModule::Crawl(const simweb::Url& url,
                                                 double t) {
  if (config_.enforce_politeness && config_.per_site_delay_days > 0.0 &&
      url.site < last_access_.size() &&
      t < last_access_[url.site] + config_.per_site_delay_days) {
    ++politeness_rejections_;
    return Status::FailedPrecondition("politeness delay not elapsed");
  }
  if (url.site >= last_access_.size()) {
    last_access_.resize(url.site + 1,
                        -std::numeric_limits<double>::infinity());
  }
  last_access_[url.site] = t;

  // Accounting (counts failures too: a 404 still costs a request).
  ++fetch_count_;
  if (!any_fetch_) {
    first_fetch_time_ = t;
    any_fetch_ = true;
  }
  last_fetch_time_ = std::max(last_fetch_time_, t);
  // Absolute-day bucket: floor(t), so histograms from different
  // modules (and from a checkpoint baseline) sum exactly.
  auto day = static_cast<std::size_t>(std::max(0.0, std::floor(t)));
  if (day >= fetches_per_day_.size()) fetches_per_day_.resize(day + 1, 0);
  ++fetches_per_day_[day];

  double latency_days = 0.0;
  auto result = web_->Fetch(url, t, &latency_days);
  if (!result.ok()) ++failure_count_;
  if (latency_days > 0.0) {
    // A slow response or a timeout ties up the connection: the polite
    // window for this site starts when the stall ends, not when the
    // request was issued.
    last_access_[url.site] = t + latency_days;
  }
  return result;
}

void CrawlModule::ExportPoliteness(
    std::vector<std::pair<uint32_t, double>>* out) const {
  for (std::size_t site = 0; site < last_access_.size(); ++site) {
    if (last_access_[site] >
        -std::numeric_limits<double>::infinity()) {
      out->emplace_back(static_cast<uint32_t>(site), last_access_[site]);
    }
  }
}

void CrawlModule::RestorePoliteness(uint32_t site, double last_access) {
  if (site >= last_access_.size()) {
    last_access_.resize(std::size_t{site} + 1,
                        -std::numeric_limits<double>::infinity());
  }
  last_access_[site] = last_access;
}

double CrawlModule::NextAllowedTime(uint32_t site) const {
  if (config_.per_site_delay_days <= 0.0 || site >= last_access_.size()) {
    return 0.0;
  }
  return last_access_[site] + config_.per_site_delay_days;
}

double CrawlModule::PeakDailyRate() const {
  uint64_t peak = 0;
  for (uint64_t day : fetches_per_day_) peak = std::max(peak, day);
  return static_cast<double>(peak);
}

double CrawlModule::AverageDailyRate() const {
  if (!any_fetch_) return 0.0;
  double span = std::max(1.0, last_fetch_time_ - first_fetch_time_);
  return static_cast<double>(fetch_count_) / span;
}

void CrawlModule::ResetTraffic() {
  fetch_count_ = 0;
  failure_count_ = 0;
  politeness_rejections_ = 0;
  fetches_per_day_.clear();
  first_fetch_time_ = 0.0;
  last_fetch_time_ = 0.0;
  any_fetch_ = false;
}

}  // namespace webevo::crawler
