#ifndef WEBEVO_CRAWLER_STORE_CODECS_H_
#define WEBEVO_CRAWLER_STORE_CODECS_H_

#include <cassert>
#include <string>

#include "crawler/all_urls.h"
#include "crawler/collection.h"
#include "util/text_snapshot.h"

namespace webevo::crawler {

/// Field lists of the crawler's stored records, written and parsed in
/// one place. The checkpoint streams (snapshot.cc) frame them as
/// tagged record lines — `E <entry fields>`, `U <url> <info fields>` —
/// and the paged RecordStore backend keeps them untagged as its record
/// bytes, so the paged store carries exactly the state a checkpoint
/// would.

/// `<site> <slot> <incarnation>`; the site is checked against the
/// cursor's site limit.
inline RecordLine& PutUrl(RecordLine& line, const simweb::Url& url) {
  return line.Put(url.site, url.slot, url.incarnation);
}
inline RecordCursor& GetUrl(RecordCursor& c, simweb::Url* url) {
  return c.Site(&url->site).Get(&url->slot, &url->incarnation);
}

/// `<url> <page> <version> <checksum.lo> <checksum.hi> <crawled_at>
///  <importance> <nlinks> [<url>]*`
inline RecordLine& PutEntry(RecordLine& line, const CollectionEntry& e) {
  PutUrl(line, e.url).Put(e.page, e.version, e.checksum.lo, e.checksum.hi,
                          e.crawled_at, e.importance, e.links.size());
  for (const simweb::Url& link : e.links) PutUrl(line, link);
  return line;
}
inline RecordCursor& GetEntry(RecordCursor& c, CollectionEntry* e) {
  std::size_t nlinks = 0;
  GetUrl(c, &e->url)
      .Get(&e->page, &e->version, &e->checksum.lo, &e->checksum.hi,
           &e->crawled_at, &e->importance)
      .Count(&nlinks, 3);
  e->links.resize(nlinks);
  for (simweb::Url& link : e->links) GetUrl(c, &link);
  return c;
}

/// `<first_seen> <in_links> <dead>`
inline RecordLine& PutUrlInfo(RecordLine& line, const AllUrls::UrlInfo& i) {
  return line.Put(i.first_seen, i.in_links, i.dead);
}
inline RecordCursor& GetUrlInfo(RecordCursor& c, AllUrls::UrlInfo* i) {
  return c.Get(&i->first_seen, &i->in_links, &i->dead);
}

/// Record codecs for the paged RecordStore backend. Its page files are
/// private to the process that writes them, so a record that does not
/// decode is a program bug, not outside input.
struct CollectionEntryCodec {
  static std::string Encode(const CollectionEntry& e) {
    std::string bytes;
    RecordLine line(&bytes);
    PutEntry(line, e);
    return bytes;
  }

  static CollectionEntry Decode(const std::string& bytes) {
    RecordCursor c(bytes, "paged collection entry");
    CollectionEntry e;
    [[maybe_unused]] const bool decoded = GetEntry(c, &e).End().ok();
    assert(decoded && "corrupt paged CollectionEntry record");
    return e;
  }
};

struct UrlInfoCodec {
  static std::string Encode(const AllUrls::UrlInfo& info) {
    std::string bytes;
    RecordLine line(&bytes);
    PutUrlInfo(line, info);
    return bytes;
  }

  static AllUrls::UrlInfo Decode(const std::string& bytes) {
    RecordCursor c(bytes, "paged url info");
    AllUrls::UrlInfo info;
    [[maybe_unused]] const bool decoded = GetUrlInfo(c, &info).End().ok();
    assert(decoded && "corrupt paged UrlInfo record");
    return info;
  }
};

}  // namespace webevo::crawler

#endif  // WEBEVO_CRAWLER_STORE_CODECS_H_
