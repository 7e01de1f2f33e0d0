// Snapshot/restore of the SimulatedWeb's lazily materialised evolution
// state, declared in simweb/simulated_web.h.
//
// Full format (record codec, see util/text_snapshot.h):
//   webevo-web 3 <num_sites> <nrecords> <nfetchsites> <now>
//              <fetch_count> <not_found_count> <nfaults> <nadv>
//   <site records and page records of every site>
//   webevo-checksum <fnv64>
//
// Delta format (the full state of only the dirty sites, plus the
// absolute global counters):
//   webevo-webdelta 2 <num_sites> <ndirty> <nrecords> <nfetchsites>
//                   <nfaults> <now> <fetch_count> <not_found_count>
//                   <pages_created> <nadv>
//   D <site>                             (ndirty, ascending: the sites
//                                         whose full state follows)
//   <site records and page records of the dirty sites>
//   webevo-checksum <fnv64>
//
// Both streams carry the same records for their sites, ascending:
//   A <site> <site_fetch_count>          (nonzero counters only)
//   X <site> <d0..d3> <o0..o3> <outage_start> <outage_end> <death|inf>
//     <flash_bucket> <flash_count>       (initialized fault lanes only)
//   Y <site> <trap_minted> <twin_emitted>
//                                        (nonzero adversarial counters
//                                         only)
//   I <site> <slot> <incarnation> <version> <change_rate> <birth>
//     <death|inf> <state_time> <last_change> <r0> <r1> <r2> <r3>
//     <nlinks> [<target_site> <target_slot>]*
//                                        (every page record, canonical
//                                         (site, slot, incarnation)
//                                         order)
// Every field of every PageRecord round-trips exactly (doubles at
// precision 17, RNG lanes raw), so a restored web serves bit-identical
// fetches — including the lazy Poisson increments that depend on the
// *observation history*, not just on absolute time. Delta globals are
// absolute, never increments, so applying a segment is idempotent.

#include <array>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "simweb/simulated_web.h"
#include "util/text_snapshot.h"

namespace webevo::simweb {
namespace {

constexpr const char* kWebMagic = "webevo-web";
constexpr int kWebFormatVersion = 3;
constexpr const char* kWebDeltaMagic = "webevo-webdelta";
constexpr int kWebDeltaFormatVersion = 2;

}  // namespace

/// The per-site records both web streams share, written and parsed
/// once. Befriended by SimulatedWeb.
struct WebSnapshotIo {
  /// Which of a stream's sites carry A, X and Y records, and how many
  /// page records they hold.
  struct SiteRecords {
    std::vector<std::pair<uint32_t, uint64_t>> fetches;
    std::vector<uint32_t> faults;
    std::vector<uint32_t> adv;
    uint64_t pages = 0;
  };

  /// Parsed records, staged until the whole stream has verified.
  struct Staged {
    std::vector<std::pair<uint32_t, uint64_t>> fetches;
    std::vector<std::pair<uint32_t, SimulatedWeb::SiteFaultState>> faults;
    std::vector<std::pair<uint32_t, SimulatedWeb::SiteAdvState>> adv;
    std::vector<SimulatedWeb::PageRecord> pages;
  };

  static SiteRecords Collect(const SimulatedWeb& web,
                             const std::vector<uint32_t>& sites) {
    SiteRecords records;
    for (uint32_t s : sites) {
      for (const auto& slot : web.sites_[s].slots) {
        records.pages += slot.history.size();
      }
      const uint64_t count =
          web.site_fetches_[s].load(std::memory_order_relaxed);
      if (count > 0) records.fetches.emplace_back(s, count);
      if (s < web.site_faults_.size() && web.site_faults_[s].init) {
        records.faults.push_back(s);
      }
      if (s < web.site_adv_.size() && (web.site_adv_[s].trap_minted > 0 ||
                                       web.site_adv_[s].twin_emitted > 0)) {
        records.adv.push_back(s);
      }
    }
    return records;
  }

  static void Write(const SimulatedWeb& web, const std::vector<uint32_t>& sites,
                    const SiteRecords& records, RecordWriter& w) {
    for (const auto& [site, count] : records.fetches) {
      w.Begin("A").Put(site, count);
      w.End();
    }
    for (uint32_t s : records.faults) {
      const SimulatedWeb::SiteFaultState& f = web.site_faults_[s];
      w.Begin("X").Put(s, f.draw.State(), f.outage.State(), f.outage_start,
                       f.outage_end, f.death_day, f.flash_bucket,
                       f.flash_count);
      w.End();
    }
    for (uint32_t s : records.adv) {
      const SimulatedWeb::SiteAdvState& a = web.site_adv_[s];
      w.Begin("Y").Put(s, a.trap_minted, a.twin_emitted);
      w.End();
    }
    for (uint32_t s : sites) {
      const SimulatedWeb::SiteState& site = web.sites_[s];
      for (uint32_t j = 0; j < site.slots.size(); ++j) {
        const auto& history = site.slots[j].history;
        for (uint32_t inc = 0; inc < history.size(); ++inc) {
          const SimulatedWeb::PageRecord& page = history[inc];
          RecordLine& line = w.Begin("I").Put(
              s, j, inc, page.version, page.change_rate, page.birth_time,
              page.death_time, page.state_time, page.last_change_time,
              page.rng.State(), page.cross_links.size());
          for (const auto& [ts, tslot] : page.cross_links) {
            line.Put(ts, tslot);
          }
          w.End();
        }
      }
    }
  }

  /// Parses the A, X, Y and I records, each of whose sites must be one
  /// of the stream's `listed` sites.
  static Status Read(RecordReader& r, const SimulatedWeb& web,
                     const std::vector<bool>& listed, std::size_t nfetches,
                     std::size_t nfaults, std::size_t nadv, uint64_t npages,
                     Staged* staged) {
    const char* unlisted = "site not among the stream's sites";
    auto is_listed = [&](uint32_t site) {
      return site < listed.size() && listed[site];
    };
    Status st = r.ReadRecords(nfetches, "A", [&](RecordCursor& c) {
      auto& [site, count] = staged->fetches.emplace_back();
      c.Site(&site).Get(&count).Check(is_listed(site), unlisted);
    });
    if (st.ok()) {
      st = r.ReadRecords(nfaults, "X", [&](RecordCursor& c) {
        auto& [site, f] = staged->faults.emplace_back();
        std::array<uint64_t, 4> draw{}, outage{};
        c.Site(&site)
            .Get(&draw, &outage, &f.outage_start, &f.outage_end)
            .MaybeInf(&f.death_day)
            .Get(&f.flash_bucket, &f.flash_count)
            .Check(is_listed(site), unlisted)
            .Check(!web.site_faults_.empty(),
                   "fault state for a web without fault injection");
        f.init = true;
        f.draw.SetState(draw);
        f.outage.SetState(outage);
      });
    }
    if (st.ok()) {
      st = r.ReadRecords(nadv, "Y", [&](RecordCursor& c) {
        auto& [site, a] = staged->adv.emplace_back();
        c.Site(&site)
            .Get(&a.trap_minted, &a.twin_emitted)
            .Check(is_listed(site), unlisted)
            .Check(!web.site_adv_.empty(),
                   "adversarial state for a web without the lane");
      });
    }
    if (st.ok()) {
      st = r.ReadRecords(npages, "I", [&](RecordCursor& c) {
        SimulatedWeb::PageRecord& page = staged->pages.emplace_back();
        std::array<uint64_t, 4> lanes{};
        std::size_t nlinks = 0;
        c.Site(&page.url.site)
            .Get(&page.url.slot, &page.url.incarnation, &page.version,
                 &page.change_rate, &page.birth_time)
            .MaybeInf(&page.death_time)
            .Get(&page.state_time, &page.last_change_time, &lanes)
            .Count(&nlinks, 2)
            .Check(is_listed(page.url.site), unlisted)
            .Check(page.url.site < web.sites_.size() &&
                       page.url.slot < web.sites_[page.url.site].slots.size(),
                   "slot beyond the site's size");
        page.rng.SetState(lanes);
        page.cross_links.resize(nlinks);
        for (auto& [ts, tslot] : page.cross_links) c.Site(&ts).Get(&tslot);
      });
    }
    if (st.ok()) st = r.Finish();
    return st;
  }

  /// Replaces the state of `sites` (ascending) with the staged records
  /// and sets the global counters. Records arrive in canonical order:
  /// each slot's incarnations must be contiguous and start at 0, and
  /// every slot needs at least its incarnation-0 page. Everything is
  /// validated before the web is touched, so a bad stream never leaves
  /// it half-restored.
  static Status Install(SimulatedWeb* web, const std::vector<uint32_t>& sites,
                        Staged& staged, double now, uint64_t fetch_count,
                        uint64_t not_found, uint64_t pages_created) {
    std::vector<std::vector<std::vector<SimulatedWeb::PageRecord>>>
        histories(sites.size());
    std::size_t index = 0;
    for (std::size_t d = 0; d < sites.size(); ++d) {
      const uint32_t s = sites[d];
      histories[d].resize(web->sites_[s].slots.size());
      for (uint32_t j = 0; j < histories[d].size(); ++j) {
        std::vector<SimulatedWeb::PageRecord>& history = histories[d][j];
        while (index < staged.pages.size() &&
               staged.pages[index].url.site == s &&
               staged.pages[index].url.slot == j) {
          if (staged.pages[index].url.incarnation != history.size()) {
            return Status::InvalidArgument(
                "web snapshot incarnations out of order");
          }
          history.push_back(std::move(staged.pages[index]));
          ++index;
        }
        if (history.empty()) {
          return Status::InvalidArgument(
              "web snapshot missing a slot's page history");
        }
      }
    }
    if (index != staged.pages.size()) {
      return Status::InvalidArgument("web snapshot records out of order");
    }

    for (std::size_t d = 0; d < sites.size(); ++d) {
      const uint32_t s = sites[d];
      auto& slots = web->sites_[s].slots;
      for (uint32_t j = 0; j < slots.size(); ++j) {
        slots[j].history = std::move(histories[d][j]);
      }
      web->site_fetches_[s].store(0, std::memory_order_relaxed);
      if (!web->site_faults_.empty()) {
        web->site_faults_[s] = SimulatedWeb::SiteFaultState{};
      }
      if (!web->site_adv_.empty()) {
        web->site_adv_[s] = SimulatedWeb::SiteAdvState{};
      }
    }
    for (const auto& [site, count] : staged.fetches) {
      web->site_fetches_[site].store(count, std::memory_order_relaxed);
    }
    for (auto& [site, f] : staged.faults) web->site_faults_[site] = f;
    for (auto& [site, a] : staged.adv) web->site_adv_[site] = a;
    web->now_.store(now, std::memory_order_relaxed);
    web->fetch_count_.store(fetch_count, std::memory_order_relaxed);
    web->not_found_count_.store(not_found, std::memory_order_relaxed);
    web->pages_created_.store(pages_created, std::memory_order_relaxed);
    return Status::Ok();
  }

  static std::vector<uint32_t> AllSites(const SimulatedWeb& web) {
    std::vector<uint32_t> sites(web.num_sites());
    for (uint32_t s = 0; s < sites.size(); ++s) sites[s] = s;
    return sites;
  }
};

Status SaveWeb(const SimulatedWeb& web, std::ostream& out) {
  // The writer walks (site, slot, incarnation) ascending — the
  // canonical order — and must see a quiescent web (no concurrent
  // batch in flight).
  if (web.concurrent_batch_) {
    return Status::FailedPrecondition(
        "cannot snapshot a web inside a concurrent batch");
  }
  const std::vector<uint32_t> sites = WebSnapshotIo::AllSites(web);
  const WebSnapshotIo::SiteRecords records =
      WebSnapshotIo::Collect(web, sites);
  std::string bytes;
  RecordWriter w(&bytes);
  w.Begin(kWebMagic).Put(kWebFormatVersion, web.num_sites(), records.pages,
                         records.fetches.size(), web.now(),
                         web.fetch_count(), web.not_found_count(),
                         records.faults.size(), records.adv.size());
  w.End();
  WebSnapshotIo::Write(web, sites, records, w);
  w.Finish();
  return WriteBytes(bytes, out);
}

Status RestoreWeb(std::istream& in, SimulatedWeb* web) {
  if (web->concurrent_batch_) {
    return Status::FailedPrecondition(
        "cannot restore a web inside a concurrent batch");
  }
  RecordReader r(in, "web snapshot", web->num_sites());
  uint32_t num_sites = 0;
  uint64_t npages = 0, fetch_count = 0, not_found = 0;
  std::size_t nfetches = 0, nfaults = 0, nadv = 0;
  double now = 0.0;
  Status st = r.ReadHeader(kWebMagic, kWebFormatVersion, &num_sites, &npages,
                           &nfetches, &now, &fetch_count, &not_found,
                           &nfaults, &nadv);
  if (!st.ok()) return st;
  if (num_sites != web->num_sites()) {
    return Status::InvalidArgument(
        "web snapshot site count does not match this web's "
        "configuration");
  }
  WebSnapshotIo::Staged staged;
  st = WebSnapshotIo::Read(r, *web, std::vector<bool>(num_sites, true),
                           nfetches, nfaults, nadv, npages, &staged);
  if (!st.ok()) return st;
  return WebSnapshotIo::Install(web, WebSnapshotIo::AllSites(*web), staged,
                                now, fetch_count, not_found, npages);
}

Status SaveWebDelta(const SimulatedWeb& web, std::ostream& out) {
  if (web.concurrent_batch_) {
    return Status::FailedPrecondition(
        "cannot snapshot a web inside a concurrent batch");
  }
  if (web.site_dirty_ == nullptr) {
    return Status::FailedPrecondition(
        "web delta requires EnableDirtyTracking");
  }
  std::set<uint32_t> dirty_set;
  web.AppendDirtySites(&dirty_set);
  const std::vector<uint32_t> dirty(dirty_set.begin(), dirty_set.end());
  const WebSnapshotIo::SiteRecords records =
      WebSnapshotIo::Collect(web, dirty);
  std::string bytes;
  RecordWriter w(&bytes);
  w.Begin(kWebDeltaMagic)
      .Put(kWebDeltaFormatVersion, web.num_sites(), dirty.size(),
           records.pages, records.fetches.size(), records.faults.size(),
           web.now(), web.fetch_count(), web.not_found_count(),
           web.OracleTotalPagesCreated(), records.adv.size());
  w.End();
  for (uint32_t s : dirty) {
    w.Begin("D").Put(s);
    w.End();
  }
  WebSnapshotIo::Write(web, dirty, records, w);
  w.Finish();
  return WriteBytes(bytes, out);
}

Status ApplyWebDelta(std::istream& in, SimulatedWeb* web) {
  if (web->concurrent_batch_) {
    return Status::FailedPrecondition(
        "cannot restore a web inside a concurrent batch");
  }
  RecordReader r(in, "web delta", web->num_sites());
  uint32_t num_sites = 0;
  std::size_t ndirty = 0, nfetches = 0, nfaults = 0, nadv = 0;
  uint64_t npages = 0, fetch_count = 0, not_found = 0, pages_created = 0;
  double now = 0.0;
  Status st = r.ReadHeader(kWebDeltaMagic, kWebDeltaFormatVersion,
                           &num_sites, &ndirty, &npages, &nfetches, &nfaults,
                           &now, &fetch_count, &not_found, &pages_created,
                           &nadv);
  if (!st.ok()) return st;
  if (num_sites != web->num_sites()) {
    return Status::InvalidArgument(
        "web delta site count does not match this web's configuration");
  }
  std::vector<uint32_t> dirty;
  std::vector<bool> listed(num_sites, false);
  st = r.ReadRecords(ndirty, "D", [&](RecordCursor& c) {
    uint32_t site = 0;
    c.Site(&site).Check(dirty.empty() || site > dirty.back(),
                        "dirty sites not ascending");
    if (!c.ok()) return;
    dirty.push_back(site);
    listed[site] = true;
  });
  if (!st.ok()) return st;
  WebSnapshotIo::Staged staged;
  st = WebSnapshotIo::Read(r, *web, listed, nfetches, nfaults, nadv, npages,
                           &staged);
  if (!st.ok()) return st;
  return WebSnapshotIo::Install(web, dirty, staged, now, fetch_count,
                                not_found, pages_created);
}

}  // namespace webevo::simweb
