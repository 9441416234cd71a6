/**
 * @file
 * Determinism tests for the simulator perf counters (sim/perf.hh,
 * DESIGN.md §13): for a pinned spec the counts are exact constants,
 * identical at every thread count and SIMD dispatch tag, and cells
 * replayed from the stage cache report zero because the counters
 * measure work performed, exactly like cpuSeconds.
 */

#include <gtest/gtest.h>

#include <filesystem>

#include "base/simd.hh"
#include "base/thread_pool.hh"
#include "core/collector.hh"
#include "core/stage_cache.hh"
#include "web/catalog.hh"

namespace bigfish::core {
namespace {

/** The pinned spec: every expected count below belongs to exactly this
 *  configuration. Touching any field invalidates the constants. */
CollectionConfig
pinnedConfig()
{
    CollectionConfig config;
    config.seed = 2022;
    config.browser.traceDuration = 2 * kSec;
    return config;
}

constexpr int kSites = 3;
constexpr int kRuns = 2;
constexpr std::uint64_t kCatalogSeed = 7;

/** One full closed-world sweep of the pinned spec, counters out. */
sim::PerfCounters
sweepCounters()
{
    const CollectionConfig config = pinnedConfig();
    const TraceCollector collector(config);
    const web::SiteCatalog catalog(kSites, kCatalogSeed);
    const attack::AttackerKind attackers[] = {
        attack::AttackerKind::LoopCounting};
    sim::PerfCounters perf;
    std::vector<CollectionStats> stats;
    const auto sets = collector.collectClosedWorldMulti(
        catalog, kRuns, attackers, &stats, &perf);
    EXPECT_TRUE(sets.isOk()) << sets.status().message();
    return perf;
}

/** Restores the dispatch Tag a test swept away from. */
class TagGuard
{
  public:
    TagGuard() : saved_(simd::active()) {}
    ~TagGuard() { simd::setActive(saved_); }

  private:
    simd::Tag saved_;
};

TEST(SimPerfCounters, PinnedSpecProducesExactCounts)
{
    // The counters are pure functions of the work content, so for the
    // pinned spec they are plain constants — any drift means simulation
    // behavior changed and the bit-identity baseline must be re-recorded.
    const sim::PerfCounters perf = sweepCounters();
    EXPECT_EQ(perf.eventsSimulated, 240551);
    EXPECT_EQ(perf.interruptsSynthesized, 236982);
    EXPECT_EQ(perf.allocations, 36);
    EXPECT_EQ(perf.bytesSorted, 5687880);
    EXPECT_FALSE(perf.empty());
}

TEST(SimPerfCounters, CountsIdenticalAcrossThreadCounts)
{
    const sim::PerfCounters base = sweepCounters();
    for (const int threads : {1, 4, 8}) {
        setGlobalThreads(threads);
        const sim::PerfCounters perf = sweepCounters();
        EXPECT_EQ(perf.eventsSimulated, base.eventsSimulated) << threads;
        EXPECT_EQ(perf.interruptsSynthesized, base.interruptsSynthesized)
            << threads;
        EXPECT_EQ(perf.allocations, base.allocations) << threads;
        EXPECT_EQ(perf.bytesSorted, base.bytesSorted) << threads;
    }
    setGlobalThreads(0); // Back to the hardware default.
}

TEST(SimPerfCounters, CountsIdenticalAcrossSimdTags)
{
    TagGuard guard;
    simd::setActive(simd::Tag::Scalar);
    const sim::PerfCounters base = sweepCounters();
    for (const simd::Tag tag : {simd::Tag::Scalar, simd::Tag::Avx2}) {
        if (!simd::supported(tag))
            continue;
        simd::setActive(tag);
        const sim::PerfCounters perf = sweepCounters();
        EXPECT_EQ(perf.eventsSimulated, base.eventsSimulated);
        EXPECT_EQ(perf.interruptsSynthesized, base.interruptsSynthesized);
        EXPECT_EQ(perf.allocations, base.allocations);
        EXPECT_EQ(perf.bytesSorted, base.bytesSorted);
    }
}

TEST(SimPerfCounters, JournalReplayedCellsReportZero)
{
    // Counters measure work *performed*: a sweep fully served from the
    // stage cache's collected cells does no simulation and must report
    // zero, so the --explain table attributes replays honestly (mirrors
    // how a replayed stage's cpuSeconds is the replay cost, not the
    // original).
    namespace fs = std::filesystem;
    const std::string dir = testing::TempDir() + "bf_sim_perf_cells";
    fs::remove_all(dir);

    const CollectionConfig config = pinnedConfig();
    const web::SiteCatalog catalog(kSites, kCatalogSeed);
    const attack::AttackerKind attackers[] = {
        attack::AttackerKind::LoopCounting};
    const std::uint64_t fp = collectionFingerprint(
        config, kCatalogSeed, kSites, 0, attackers);
    auto opened = StageCache::open(dir);
    ASSERT_TRUE(opened.isOk()) << opened.status().message();
    StageCache &cache = opened.value();
    constexpr std::size_t kCells = kSites * kRuns;

    TraceCollector cold(config);
    cold.setCache(&cache, fp);
    sim::PerfCounters cold_perf;
    ASSERT_TRUE(cold
                    .collectClosedWorldMulti(catalog, kRuns, attackers,
                                             nullptr, &cold_perf)
                    .isOk());
    EXPECT_FALSE(cold_perf.empty());
    ASSERT_EQ(cache.stats().stores, kCells);

    TraceCollector warm(config);
    warm.setCache(&cache, fp);
    sim::PerfCounters warm_perf;
    ASSERT_TRUE(warm
                    .collectClosedWorldMulti(catalog, kRuns, attackers,
                                             nullptr, &warm_perf)
                    .isOk());
    EXPECT_EQ(cache.stats().hits, kCells);
    EXPECT_TRUE(warm_perf.empty());
    fs::remove_all(dir);
}

TEST(SimPerfCounters, AccumulationArithmetic)
{
    sim::PerfCounters a;
    a.eventsSimulated = 10;
    a.interruptsSynthesized = 7;
    a.allocations = 3;
    a.bytesSorted = 640;
    sim::PerfCounters b;
    b.eventsSimulated = 5;
    b.bytesSorted = 60;
    const sim::PerfCounters sum = a + b;
    EXPECT_EQ(sum.eventsSimulated, 15);
    EXPECT_EQ(sum.interruptsSynthesized, 7);
    EXPECT_EQ(sum.allocations, 3);
    EXPECT_EQ(sum.bytesSorted, 700);
    EXPECT_TRUE(sim::PerfCounters{}.empty());
    EXPECT_FALSE(sum.empty());
}

} // namespace
} // namespace bigfish::core
