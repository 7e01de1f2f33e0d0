// Robustness of the checkpoint loaders against damaged input that
// passes every checksum: a structure-aware mutator edits numeric
// tokens inside sections, then recomputes the section trailers and the
// container table so the edit reaches the record parsers. Every load
// must come back with a Status — no crash, abort or hang (the suite
// runs under a ctest TIMEOUT, and under ASan/UBSan in CI).

#include <algorithm>
#include <cctype>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/snapshot.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "storage/delta_log.h"
#include "util/hash.h"
#include "util/random.h"

namespace webevo::crawler {
namespace {

simweb::WebConfig MutationWeb() {
  simweb::WebConfig config = simweb::WebConfig().Scaled(0.03);
  config.seed = 20260731;
  config.min_site_size = 10;
  config.max_site_size = 40;
  EXPECT_TRUE(simweb::ApplyFaultScenario("transient10", &config).ok());
  EXPECT_TRUE(simweb::ApplyAdversarialScenario("spider-trap", &config).ok());
  return config;
}

IncrementalCrawlerConfig IncConfig() {
  IncrementalCrawlerConfig config;
  config.collection_capacity = 200;
  config.crawl_rate_pages_per_day = 120.0;
  config.crawl_parallelism = 2;
  config.crawl.per_site_delay_days = 1e-3;
  config.crawl.enforce_politeness = true;
  config.defense_enabled = true;
  return config;
}

PeriodicCrawlerConfig PerConfig() {
  PeriodicCrawlerConfig config;
  config.collection_capacity = 150;
  config.cycle_days = 4.0;
  config.crawl_window_days = 2.0;
  config.crawl_parallelism = 2;
  return config;
}

std::string IncrementalCheckpoint() {
  simweb::SimulatedWeb web(MutationWeb());
  IncrementalCrawler crawler(&web, IncConfig());
  EXPECT_TRUE(crawler.Bootstrap(0.0).ok());
  // Day 2 still has lease admissions pending, so every section of the
  // incremental checkpoint holds records.
  EXPECT_TRUE(crawler.RunUntil(2.0).ok());
  CrawlerCheckpointOptions options;
  options.module_traffic = true;
  std::ostringstream out;
  EXPECT_TRUE(SaveCrawler(crawler, out, options).ok());
  return out.str();
}

std::string PeriodicCheckpoint() {
  simweb::SimulatedWeb web(MutationWeb());
  PeriodicCrawler crawler(&web, PerConfig());
  EXPECT_TRUE(crawler.Bootstrap(0.0).ok());
  EXPECT_TRUE(crawler.RunUntil(5.0).ok());
  std::ostringstream out;
  EXPECT_TRUE(SaveCrawler(crawler, out).ok());
  return out.str();
}

Status LoadIncremental(const std::string& bytes) {
  simweb::SimulatedWeb web(MutationWeb());
  IncrementalCrawler crawler(&web, IncConfig());
  std::istringstream in(bytes);
  return LoadCrawler(in, &crawler);
}

Status LoadPeriodic(const std::string& bytes) {
  simweb::SimulatedWeb web(MutationWeb());
  PeriodicCrawler crawler(&web, PerConfig());
  std::istringstream in(bytes);
  return LoadCrawler(in, &crawler);
}

// --------------------------------------------------------- the mutator

struct Section {
  std::string name;
  std::string bytes;
};

struct Container {
  std::string kind;
  std::vector<Section> sections;
};

// Splits a container (the format documented in snapshot.h) into its
// sections, trailers included.
Container Split(const std::string& bytes) {
  std::istringstream in(bytes);
  std::string line, magic, version;
  Container c;
  std::size_t n = 0;
  std::getline(in, line);
  std::istringstream(line) >> magic >> version >> c.kind >> n;
  std::vector<std::size_t> lengths(n);
  c.sections.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    std::getline(in, line);
    std::istringstream(line) >> magic >> c.sections[i].name >> lengths[i];
  }
  std::getline(in, line);  // the header trailer
  for (std::size_t i = 0; i < n; ++i) {
    c.sections[i].bytes.resize(lengths[i]);
    in.read(c.sections[i].bytes.data(),
            static_cast<std::streamsize>(lengths[i]));
  }
  EXPECT_TRUE(in.good() && in.peek() == EOF);
  return c;
}

std::string Trailer(const std::string& payload) {
  return "webevo-checksum " + std::to_string(Fnv1a64(payload)) + "\n";
}

// Recomputes a section's trailer over its (possibly edited) payload.
std::string Reframe(const std::string& bytes) {
  const std::string payload = bytes.substr(0, bytes.rfind("webevo-checksum "));
  return payload + Trailer(payload);
}

// Re-encodes a container, recomputing every section's trailer and the
// section table.
std::string Join(const Container& container) {
  std::string header = "webevo-crawler 1 " + container.kind + " " +
                       std::to_string(container.sections.size()) + "\n";
  std::string body;
  for (const Section& s : container.sections) {
    const std::string bytes = Reframe(s.bytes);
    header += "S " + s.name + " " + std::to_string(bytes.size()) + " " +
              std::to_string(Fnv1a64(bytes)) + "\n";
    body += bytes;
  }
  return header + Trailer(header) + body;
}

Section* Find(Container* container, const std::string& name) {
  for (Section& s : container->sections) {
    if (s.name == name) return &s;
  }
  ADD_FAILURE() << "no section " << name;
  return nullptr;
}

// Replaces field `field` (the tag is field 0) of the first line of
// section `name` whose first token is `tag` (a record's tag or the
// header's magic); false when there is no such line.
bool SetField(Container* container, const std::string& name,
              const std::string& tag, std::size_t field,
              const std::string& value) {
  Section* section = Find(container, name);
  if (section == nullptr) return false;
  std::string& bytes = section->bytes;
  std::size_t begin = 0;
  if (bytes.rfind(tag + " ", 0) != 0) {
    begin = bytes.find("\n" + tag + " ");
    if (begin == std::string::npos) return false;
    ++begin;
  }
  for (std::size_t i = 0; i < field; ++i) begin = bytes.find(' ', begin) + 1;
  const std::size_t end = bytes.find_first_of(" \n", begin);
  bytes.replace(begin, end - begin, value);
  return true;
}

bool IsNumericToken(const std::string& bytes, std::size_t begin,
                    std::size_t end) {
  if (bytes.compare(begin, end - begin, "inf") == 0) return true;
  if (bytes[begin] == '-') ++begin;
  return begin < end && std::isdigit(static_cast<unsigned char>(bytes[begin]));
}

// Edits one numeric token of a section's payload (header line
// included) picked by `rng`.
void MutateNumber(std::string* section, Rng* rng) {
  std::string& bytes = *section;
  const std::size_t payload_end = bytes.rfind("webevo-checksum ");
  std::vector<std::pair<std::size_t, std::size_t>> tokens;
  std::size_t begin = 0;
  while (begin < payload_end) {
    const std::size_t end = bytes.find_first_of(" \n", begin);
    if (end > begin && IsNumericToken(bytes, begin, end)) {
      tokens.emplace_back(begin, end);
    }
    begin = end + 1;
  }
  ASSERT_FALSE(tokens.empty()) << bytes.substr(0, bytes.find('\n'));
  const auto [tb, te] = tokens[rng->NextBounded(tokens.size())];
  const std::string old = bytes.substr(tb, te - tb);
  // Boundary values for every field type: sign, the 32- and 64-bit
  // limits, an overlong integer, double extremes, non-finite spellings.
  static const std::vector<std::string> kValues = [] {
    std::istringstream in(
        "0 1 -1 2 2147483648 4294967295 4294967296 4611686018427387904 "
        "9000000000000000000 18446744073709551615 18446744073709551616 "
        "99999999999999999999999 1e308 -1e308 1e-320 0.5 nan inf -inf");
    return std::vector<std::string>(std::istream_iterator<std::string>(in), {});
  }();
  std::string value;
  switch (rng->NextBounded(3)) {
    case 0:
      value = kValues[rng->NextBounded(kValues.size())];
      break;
    case 1:
      value = old + std::to_string(rng->NextBounded(10));
      break;
    default:
      value = old;
      value[rng->NextBounded(value.size())] =
          static_cast<char>('0' + rng->NextBounded(10));
      break;
  }
  bytes.replace(tb, te - tb, value);
}

TEST(CheckpointMutationTest, MutatorRoundTripsUntouchedCheckpoints) {
  for (const std::string& bytes :
       {IncrementalCheckpoint(), PeriodicCheckpoint()}) {
    EXPECT_EQ(Join(Split(bytes)), bytes);
  }
  EXPECT_TRUE(LoadIncremental(IncrementalCheckpoint()).ok());
  EXPECT_TRUE(LoadPeriodic(PeriodicCheckpoint()).ok());
}

// The gate: 250 seeded mutations spread over every section of both
// checkpoints (web included). Each load returns a Status; reaching the
// end of the loop is the assertion.
TEST(CheckpointMutationTest, SeededNumericMutationsNeverCrash) {
  const Container pristine[2] = {Split(IncrementalCheckpoint()),
                                 Split(PeriodicCheckpoint())};
  Rng rng(19990217);
  int rejected = 0;
  for (int i = 0; i < 250; ++i) {
    const int which = i % 2;
    Container mutated = pristine[which];
    const std::size_t nsections = mutated.sections.size();
    Section& section = mutated.sections[(i / 2) % nsections];
    MutateNumber(&section.bytes, &rng);
    const std::string bytes = Join(mutated);
    const Status st =
        which == 0 ? LoadIncremental(bytes) : LoadPeriodic(bytes);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
          << section.name << ": " << st.ToString();
      ++rejected;
    }
  }
  // Sanity check that the edits reach the parsers; many edits (a
  // changed timestamp or counter) are valid input and load.
  EXPECT_GT(rejected, 50);
}

// Segment replay parses its sections with the same codec: edits to a
// sealed delta segment (its section trailers, table and seals
// recomputed) must also come back as a Status.
TEST(CheckpointMutationTest, SeededDeltaSegmentMutationsNeverCrash) {
  const std::string path = ::testing::TempDir() + "/mutation_inc.ckpt";
  IncrementalCrawlerConfig config = IncConfig();
  config.checkpoint_incremental = true;
  CrawlerCheckpointOptions options;
  options.module_traffic = true;
  {
    simweb::SimulatedWeb web(MutationWeb());
    IncrementalCrawler crawler(&web, config);
    ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
    for (double day : {1.0, 2.0}) {
      ASSERT_TRUE(crawler.RunUntil(day).ok());
      ASSERT_TRUE(CheckpointIncremental(&crawler, path, options).ok());
    }
  }
  auto log = storage::ReadDeltaLog(path + ".deltas");
  ASSERT_TRUE(log.ok()) << log.status().ToString();
  ASSERT_EQ(log->segments.size(), 1u);
  const storage::DeltaSegment pristine = log->segments[0];
  Rng rng(20000101);
  int rejected = 0;
  for (int i = 0; i < 100; ++i) {
    storage::DeltaSegment mutated = pristine;
    std::string& bytes =
        mutated.sections[i % mutated.sections.size()].bytes;
    MutateNumber(&bytes, &rng);
    bytes = Reframe(bytes);
    std::ofstream(path + ".deltas", std::ios::binary | std::ios::trunc)
        << storage::EncodeDeltaSegment(mutated);
    simweb::SimulatedWeb web(MutationWeb());
    IncrementalCrawler crawler(&web, config);
    const Status st = LoadCrawlerWithDeltasFromFile(path, &crawler);
    if (!st.ok()) {
      EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
      ++rejected;
    }
  }
  // Sanity check that the edits reach the parsers, as above.
  EXPECT_GT(rejected, 15);
}

// A politeness record for site 2^32-1 wrapped `site + 1` to 0 in
// CrawlModule::RestorePoliteness and wrote out of bounds.
TEST(CheckpointMutationTest, PoliteSiteAtUint32MaxIsRejected) {
  Container c = Split(IncrementalCheckpoint());
  ASSERT_TRUE(SetField(&c, "polite", "A", 1, "4294967295"));
  const Status st = LoadIncremental(Join(c));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

// An in-link count of 9e18 was replayed as 9e18 NoteInLink calls.
TEST(CheckpointMutationTest, HugeInLinkCountLoadsWithoutReplay) {
  Container c = Split(IncrementalCheckpoint());
  ASSERT_TRUE(SetField(&c, "allurls", "U", 5, "9000000000000000000"));
  // Join() recomputes the trailer the edit invalidated.
  Container rejoined = Split(Join(c));
  std::istringstream section(Find(&rejoined, "allurls")->bytes);
  auto all_urls = LoadAllUrls(section);
  ASSERT_TRUE(all_urls.ok()) << all_urls.status().ToString();
  uint64_t max_in_links = 0;
  all_urls->ForEach([&](const simweb::Url&, const AllUrls::UrlInfo& info) {
    max_in_links = std::max(max_in_links, info.in_links);
  });
  EXPECT_EQ(max_in_links, 9000000000000000000ull);
  EXPECT_TRUE(LoadIncremental(Join(c)).ok());
}

// A link count of 2^62 sized a reserve() before any link was read,
// throwing std::length_error out of the loader.
TEST(CheckpointMutationTest, HugeLinkCountIsRejected) {
  Container c = Split(IncrementalCheckpoint());
  ASSERT_TRUE(SetField(&c, "collection", "E", 10, "4611686018427387904"));
  const Status st = LoadIncremental(Join(c));
  EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << st.ToString();
}

// Site-keyed records naming a site the web does not have used to load
// silently.
TEST(CheckpointMutationTest, OutOfRangeSitesAreRejected) {
  const std::string pristine = IncrementalCheckpoint();
  const std::string num_sites =
      std::to_string(simweb::SimulatedWeb(MutationWeb()).num_sites());
  const struct {
    const char* section;
    const char* tag;
  } kRecords[] = {{"frontier", "F"}, {"collection", "E"}, {"update", "P"},
                  {"allurls", "U"},  {"pending", "Q"},    {"defense", "D"}};
  for (const auto& r : kRecords) {
    Container c = Split(pristine);
    ASSERT_TRUE(SetField(&c, r.section, r.tag, 1, num_sites)) << r.section;
    const Status st = LoadIncremental(Join(c));
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument)
        << r.section << ": " << st.ToString();
  }
}

// A reader accepts exactly the current version of its stream.
TEST(CheckpointMutationTest, OlderStreamVersionsAreRejected) {
  const struct {
    bool incremental;
    const char* section;
    const char* magic;
    const char* older;
  } kStreams[] = {{true, "meta", "webevo-incmeta", "3"},
                  {false, "meta", "webevo-permeta", "1"},
                  {true, "web", "webevo-web", "2"}};
  for (const auto& s : kStreams) {
    Container c =
        Split(s.incremental ? IncrementalCheckpoint() : PeriodicCheckpoint());
    ASSERT_TRUE(SetField(&c, s.section, s.magic, 1, s.older)) << s.magic;
    const std::string joined = Join(c);
    const Status st =
        s.incremental ? LoadIncremental(joined) : LoadPeriodic(joined);
    EXPECT_EQ(st.code(), StatusCode::kInvalidArgument) << s.magic;
    EXPECT_NE(st.message().find("unsupported"), std::string::npos)
        << st.ToString();
  }
}

}  // namespace
}  // namespace webevo::crawler
