// On-disk format pin: two tiny deterministic crawls write checkpoints
// whose FNV-64 digests are committed below. Every other checkpoint
// test compares two saves made by one build; this one fails when a
// code change moves a single byte of the written format, so a codec
// refactor that claims "no byte changed" is checked across commits.
//
// A digest may only change together with a format version bump
// recorded in CHANGES.md.

#include <cstdint>
#include <fstream>
#include <iterator>
#include <string>

#include <gtest/gtest.h>

#include "crawler/incremental_crawler.h"
#include "crawler/periodic_crawler.h"
#include "crawler/snapshot.h"
#include "simweb/simulated_web.h"
#include "simweb/web_config.h"
#include "util/hash.h"

namespace webevo::crawler {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

std::string FileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return std::string((std::istreambuf_iterator<char>(in)),
                     std::istreambuf_iterator<char>());
}

simweb::WebConfig PinWeb() {
  simweb::WebConfig config = simweb::WebConfig().Scaled(0.03);
  config.seed = 19990217;
  config.min_site_size = 10;
  config.max_site_size = 40;
  return config;
}

// Incremental crawler with every optional stream populated: fault
// lanes and adversarial counters in the web, circuit breakers and
// defense machines in the crawler, the traffic aggregate, and a delta
// log holding two sealed segments.
TEST(FormatPinTest, IncrementalBaseAndDeltaLogBytes) {
  simweb::WebConfig web_config = PinWeb();
  ASSERT_TRUE(simweb::ApplyFaultScenario("transient10", &web_config).ok());
  ASSERT_TRUE(
      simweb::ApplyAdversarialScenario("spider-trap", &web_config).ok());
  simweb::SimulatedWeb web(web_config);

  IncrementalCrawlerConfig config;
  config.collection_capacity = 200;
  config.crawl_rate_pages_per_day = 120.0;
  config.crawl_parallelism = 2;
  config.crawl.per_site_delay_days = 1e-3;
  config.crawl.enforce_politeness = true;
  config.checkpoint_incremental = true;
  config.defense_enabled = true;
  IncrementalCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());

  CrawlerCheckpointOptions options;
  options.module_traffic = true;
  const std::string path = TempPath("pin_inc.ckpt");
  for (double day : {3.0, 5.0, 7.0}) {
    ASSERT_TRUE(crawler.RunUntil(day).ok());
    Status st = CheckpointIncremental(&crawler, path, options);
    ASSERT_TRUE(st.ok()) << st.ToString();
  }
  const std::string base = FileBytes(path);
  const std::string deltas = FileBytes(path + ".deltas");
  EXPECT_EQ(Fnv1a64(base), 0x3c2348eac923acc7ull)
      << "base bytes " << base.size();
  EXPECT_EQ(Fnv1a64(deltas), 0xf840269412f02062ull)
      << "delta bytes " << deltas.size();

  simweb::SimulatedWeb fresh_web(web_config);
  IncrementalCrawler restored(&fresh_web, config);
  Status loaded = LoadCrawlerWithDeltasFromFile(path, &restored);
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
}

// Periodic crawler in its default batch + shadowing mode, saved in the
// middle of its second cycle's window.
TEST(FormatPinTest, PeriodicShadowingCheckpointBytes) {
  simweb::SimulatedWeb web(PinWeb());
  PeriodicCrawlerConfig config;
  config.collection_capacity = 150;
  config.cycle_days = 4.0;
  config.crawl_window_days = 2.0;
  config.crawl_parallelism = 2;
  config.shadowing = true;
  PeriodicCrawler crawler(&web, config);
  ASSERT_TRUE(crawler.Bootstrap(0.0).ok());
  ASSERT_TRUE(crawler.RunUntil(5.0).ok());

  const std::string path = TempPath("pin_per.ckpt");
  Status st = SaveCrawlerToFile(crawler, path);
  ASSERT_TRUE(st.ok()) << st.ToString();
  const std::string bytes = FileBytes(path);
  EXPECT_EQ(Fnv1a64(bytes), 0x4d497cb80972d044ull)
      << "checkpoint bytes " << bytes.size();

  simweb::SimulatedWeb fresh_web(PinWeb());
  PeriodicCrawler restored(&fresh_web, config);
  Status loaded = LoadCrawlerFromFile(path, &restored);
  EXPECT_TRUE(loaded.ok()) << loaded.ToString();
}

}  // namespace
}  // namespace webevo::crawler
