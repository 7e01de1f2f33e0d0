#include "serving/batch_view.h"

#include <ostream>
#include <sstream>

#include "util/hash.h"
#include "util/text_snapshot.h"

namespace webevo::serving {

namespace {

constexpr const char* kViewMagic = "webevo-batchview";
constexpr int kViewFormatVersion = 1;

}  // namespace

void BatchView::Serialize(std::ostream& out) const {
  std::string bytes;
  RecordWriter w(&bytes);
  w.Begin(kViewMagic).Put(kViewFormatVersion, crawler, batch, published_at,
                          collection_size, collection_capacity,
                          frontier_depth, pages.size(), sites.size(),
                          freshness.size(), estimates.size(), summary.size());
  w.End();
  for (const auto& [name, value] : summary) {
    w.Begin("K").Put(name, value);
    w.End();
  }
  for (const PageRow& p : pages) {
    w.Begin("P").Put(p.url.site, p.url.slot, p.url.incarnation, p.version,
                     p.crawled_at, p.importance, p.est_rate, p.out_links);
    w.End();
  }
  for (const SiteRow& s : sites) {
    w.Begin("S").Put(s.site, s.pages, s.mean_importance, s.mean_est_rate,
                     s.last_crawled_at);
    w.End();
  }
  for (const SeriesRow& f : freshness) {
    w.Begin("F").Put(f.time, f.value);
    w.End();
  }
  for (const EstimateRow& e : estimates) {
    w.Begin("E").Put(e.url.site, e.url.slot, e.url.incarnation, e.rate,
                     e.interval_days);
    w.End();
  }
  w.Finish();
  (void)WriteBytes(bytes, out);
}

uint64_t BatchView::Fingerprint() const {
  std::ostringstream os;
  Serialize(os);
  return Fnv1a64(os.str());
}

}  // namespace webevo::serving
