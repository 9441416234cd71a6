/**
 * @file
 * Determinism and drain guarantees of the parallel execution layer: the
 * same bits must come out of the pipeline at any thread count, and a
 * throwing body must never wedge the pool.
 */

#include <atomic>
#include <chrono>
#include <cstring>
#include <set>
#include <stdexcept>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "base/thread_pool.hh"
#include "core/collector.hh"
#include "core/pipeline.hh"
#include "core/presets.hh"
#include "ml/evaluation.hh"
#include "ml/matrix.hh"
#include "web/catalog.hh"

namespace bigfish {
namespace {

/** Restores the global pool's thread count when a test exits. */
class ScopedThreads
{
  public:
    explicit ScopedThreads(int threads) { setGlobalThreads(threads); }
    ~ScopedThreads() { setGlobalThreads(0); }
};

constexpr attack::AttackerKind kLoopOnly[] = {
    attack::AttackerKind::LoopCounting};

core::CollectionConfig
smallConfig()
{
    core::CollectionConfig config;
    config.seed = 11;
    config.browser.traceDuration = 2 * kSec;
    return config;
}

attack::TraceSet
collectWithThreads(const core::CollectionConfig &config, int threads,
                   core::CollectionStats *stats = nullptr)
{
    ScopedThreads scoped(threads);
    const core::TraceCollector collector(config);
    const web::SiteCatalog catalog(4, 7);
    std::vector<core::CollectionStats> per_attacker;
    auto sets =
        collector.collectClosedWorldMulti(catalog, 3, kLoopOnly, &per_attacker);
    EXPECT_TRUE(sets.isOk());
    if (stats != nullptr)
        *stats = per_attacker[0];
    return std::move(sets.value()[0]);
}

void
expectBitIdentical(const attack::TraceSet &a, const attack::TraceSet &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
        const attack::Trace &ta = a.traces[t];
        const attack::Trace &tb = b.traces[t];
        EXPECT_EQ(ta.siteId, tb.siteId);
        EXPECT_EQ(ta.label, tb.label);
        ASSERT_EQ(ta.counts.size(), tb.counts.size());
        for (std::size_t i = 0; i < ta.counts.size(); ++i)
            EXPECT_DOUBLE_EQ(ta.counts[i], tb.counts[i]);
        ASSERT_EQ(ta.wallTimes.size(), tb.wallTimes.size());
        for (std::size_t i = 0; i < ta.wallTimes.size(); ++i)
            EXPECT_EQ(ta.wallTimes[i], tb.wallTimes[i]);
    }
}

TEST(ParallelCollection, TracesBitIdenticalAcrossThreadCounts)
{
    const auto config = smallConfig();
    const auto serial = collectWithThreads(config, 1);
    const auto parallel = collectWithThreads(config, 8);
    expectBitIdentical(serial, parallel);
}

TEST(ParallelCollection, OpenWorldBitIdenticalAcrossThreadCounts)
{
    const auto config = smallConfig();
    const web::SiteCatalog catalog(4, 7);
    attack::TraceSet serial, parallel;
    {
        ScopedThreads scoped(1);
        const core::TraceCollector collector(config);
        serial = collector.collectOpenWorldMulti(catalog, 10, 4, kLoopOnly)
                     .valueOrDie()[0];
    }
    {
        ScopedThreads scoped(8);
        const core::TraceCollector collector(config);
        parallel = collector.collectOpenWorldMulti(catalog, 10, 4, kLoopOnly)
                       .valueOrDie()[0];
    }
    expectBitIdentical(serial, parallel);
}

TEST(ParallelCollection, FaultAccountingUnchangedAcrossThreadCounts)
{
    // Heavy truncation faults: many cells drop (below kMinViablePeriods),
    // and the dropped/collected accounting must not depend on scheduling.
    auto config = smallConfig();
    config.faults.truncateProb = 0.5;
    config.faults.truncateKeepMin = 0.0;
    config.faults.truncateKeepMax = 0.005;
    config.faults.seed = 8;

    core::CollectionStats serial_stats, parallel_stats;
    const auto serial = collectWithThreads(config, 1, &serial_stats);
    const auto parallel = collectWithThreads(config, 8, &parallel_stats);

    EXPECT_GT(serial_stats.dropped, 0u);
    EXPECT_EQ(serial_stats.attempted, parallel_stats.attempted);
    EXPECT_EQ(serial_stats.collected, parallel_stats.collected);
    EXPECT_EQ(serial_stats.dropped, parallel_stats.dropped);
    expectBitIdentical(serial, parallel);
}

TEST(SharedCollection, MultiAttackerMatchesSeparateSingleRuns)
{
    // The shared-timeline path must be an optimization, not a semantic
    // change: each attacker's set from one two-attacker
    // collectClosedWorldMulti() is bit-identical to a one-attacker call.
    const auto base = smallConfig();
    const web::SiteCatalog catalog(4, 7);
    const attack::AttackerKind kinds[] = {
        attack::AttackerKind::LoopCounting,
        attack::AttackerKind::SweepCounting};

    const core::TraceCollector shared_collector(base);
    std::vector<core::CollectionStats> shared_stats;
    const auto shared = shared_collector
                            .collectClosedWorldMulti(catalog, 3, kinds,
                                                     &shared_stats)
                            .valueOrDie();
    ASSERT_EQ(shared.size(), 2u);
    ASSERT_EQ(shared_stats.size(), 2u);

    for (std::size_t a = 0; a < 2; ++a) {
        std::vector<core::CollectionStats> single_stats;
        const core::TraceCollector collector(base);
        const auto single =
            collector
                .collectClosedWorldMulti(catalog, 3, std::span(&kinds[a], 1),
                                         &single_stats)
                .valueOrDie();
        ASSERT_EQ(single.size(), 1u);
        expectBitIdentical(shared[a], single[0]);
        EXPECT_EQ(shared_stats[a].attempted, single_stats[0].attempted);
        EXPECT_EQ(shared_stats[a].collected, single_stats[0].collected);
        EXPECT_EQ(shared_stats[a].dropped, single_stats[0].dropped);
    }
}

TEST(SharedCollection, SharedPipelineMatchesSingleRunsAcrossThreads)
{
    core::CollectionConfig collection = smallConfig();
    core::PipelineConfig pipeline;
    pipeline.numSites = 3;
    pipeline.tracesPerSite = 6;
    pipeline.featureLen = 32;
    pipeline.eval.folds = 3;
    pipeline.factory = ml::knnFactory();
    const attack::AttackerKind kinds[] = {
        attack::AttackerKind::LoopCounting,
        attack::AttackerKind::SweepCounting};

    const auto run_shared = [&](int threads) {
        ScopedThreads scoped(threads);
        return core::runFingerprintingShared(collection, kinds, pipeline)
            .valueOrDie();
    };
    const auto serial = run_shared(1);
    const auto parallel = run_shared(8);
    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(parallel.size(), 2u);

    for (std::size_t a = 0; a < 2; ++a) {
        const auto single =
            core::runFingerprintingShared(collection,
                                          std::span(&kinds[a], 1), pipeline)
                .valueOrDie()[0];
        EXPECT_EQ(serial[a].closedWorld.top1Mean,
                  single.closedWorld.top1Mean);
        EXPECT_EQ(serial[a].closedWorld.topKMean,
                  single.closedWorld.topKMean);
        EXPECT_EQ(serial[a].closedWorld.top1Mean,
                  parallel[a].closedWorld.top1Mean);
        EXPECT_EQ(serial[a].collectedTraces, parallel[a].collectedTraces);
    }
}

ml::Dataset
tinyDataset()
{
    // Separable two-class data; enough rows for 3 folds and long
    // enough rows for the CNN-LSTM's two conv/pool stages.
    ml::Dataset data;
    Rng rng(99);
    for (int i = 0; i < 24; ++i) {
        const Label y = i % 2;
        std::vector<double> x(64);
        for (auto &v : x)
            v = rng.normal(y == 0 ? -1.0 : 1.0, 0.3);
        data.add(std::move(x), y);
    }
    return data;
}

TEST(ParallelCrossValidation, FoldMetricsMatchAcrossThreadCounts)
{
    const auto data = tinyDataset();
    ml::EvalConfig config;
    config.folds = 3;
    config.seed = 5;

    ml::CnnLstmParams params;
    params.convFilters = 4;
    params.lstmUnits = 4;
    params.maxEpochs = 3;
    const auto run = [&](int threads) {
        ScopedThreads scoped(threads);
        return ml::crossValidate(ml::cnnLstmFactory(params), data, config);
    };
    const auto serial = run(1);
    const auto parallel = run(8);

    ASSERT_EQ(serial.foldTop1.size(), parallel.foldTop1.size());
    for (std::size_t f = 0; f < serial.foldTop1.size(); ++f) {
        EXPECT_EQ(serial.foldTop1[f], parallel.foldTop1[f]);
        EXPECT_EQ(serial.foldTopK[f], parallel.foldTopK[f]);
    }
    EXPECT_EQ(serial.top1Mean, parallel.top1Mean);
    EXPECT_EQ(serial.topKMean, parallel.topKMean);
}

TEST(ParallelPipeline, EndToEndMetricsMatchAcrossThreadCounts)
{
    core::CollectionConfig collection = smallConfig();
    core::PipelineConfig pipeline;
    pipeline.numSites = 3;
    pipeline.tracesPerSite = 6;
    pipeline.featureLen = 32;
    pipeline.eval.folds = 3;
    pipeline.factory = ml::knnFactory();

    const auto run = [&](int threads) {
        ScopedThreads scoped(threads);
        return core::runFingerprintingShared(collection, kLoopOnly, pipeline)
            .valueOrDie()[0];
    };
    const auto serial = run(1);
    const auto parallel = run(2);
    const auto wide = run(8);

    EXPECT_EQ(serial.closedWorld.top1Mean, parallel.closedWorld.top1Mean);
    EXPECT_EQ(serial.closedWorld.top1Mean, wide.closedWorld.top1Mean);
    EXPECT_EQ(serial.closedWorld.topKMean, wide.closedWorld.topKMean);
    EXPECT_EQ(serial.droppedTraces, wide.droppedTraces);
    EXPECT_EQ(serial.collectedTraces, wide.collectedTraces);
}

/** The process's user + system CPU seconds, as getrusage reports. */
double
processCpuSeconds()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    const auto seconds = [](const timeval &t) {
        return static_cast<double>(t.tv_sec) +
               1e-6 * static_cast<double>(t.tv_usec);
    };
    return seconds(usage.ru_utime) + seconds(usage.ru_stime);
}

TEST(ParallelPipeline, StageCpuSumsToProcessCpu)
{
    // Fold stages time themselves on their thread's CPU clock. A fold
    // whose kernels fanned out into the pool would run other folds on
    // its own thread while it waited, and count their CPU twice. More
    // folds than threads keeps folds queued while the first ones train.
    core::CollectionConfig collection = smallConfig();
    core::PipelineConfig pipeline;
    pipeline.numSites = 4;
    pipeline.tracesPerSite = 6;
    pipeline.eval.folds = 12;
    const attack::AttackerKind kinds[] = {
        attack::AttackerKind::LoopCounting,
        attack::AttackerKind::SweepCounting};

    // The second input is a timeline group: Chrome and Firefox on one
    // machine share one Collect, whose CPU must be counted once.
    core::CollectionConfig firefox = collection;
    firefox.browser = web::BrowserProfile::firefox();
    firefox.browser.traceDuration = collection.browser.traceDuration;
    const std::vector<core::CollectionConfig> group = {collection, firefox};

    ScopedThreads scoped(4);
    const auto check = [](const char *input, const auto &run) {
        const double cpu_start = processCpuSeconds();
        const std::vector<core::FingerprintResult> results = run();
        const double process_cpu = processCpuSeconds() - cpu_start;

        double stage_cpu = 0.0;
        for (const auto &result : results)
            for (const auto &stage : result.stages)
                stage_cpu += stage.cpuSeconds;
        EXPECT_GT(stage_cpu, 0.0) << input;
        EXPECT_LE(stage_cpu, 1.10 * process_cpu)
            << input << ": stage rows " << stage_cpu << " s, process "
            << process_cpu << " s";
    };
    check("one config", [&] {
        return core::runFingerprintingShared(collection, kinds, pipeline)
            .valueOrDie();
    });
    check("timeline group", [&] {
        std::vector<core::FingerprintResult> flat;
        for (auto &per_config :
             core::runFingerprintingShared(group, kinds, pipeline)
                 .valueOrDie())
            for (auto &result : per_config)
                flat.push_back(std::move(result));
        return flat;
    });
}

/**
 * Chrome/Linux, Firefox/Linux, Chrome/macOS, Safari/macOS and
 * Tor/Linux with short traces: three timeline groups, {0, 1}, {2, 3}
 * and {4}.
 */
std::vector<core::CollectionConfig>
groupConfigs()
{
    std::vector<core::CollectionConfig> configs;
    const std::pair<const char *, const char *> cells[] = {
        {"chrome", "linux"}, {"firefox", "linux"}, {"chrome", "macos"},
        {"safari", "macos"}, {"tor", "linux"}};
    for (const auto &[browser, os] : cells) {
        core::CollectionConfig config = core::presets::table1Row(browser, os);
        config.seed = 11;
        config.browser.traceDuration = 2 * kSec;
        configs.push_back(config);
    }
    return configs;
}

core::PipelineConfig
groupPipeline()
{
    core::PipelineConfig pipeline;
    pipeline.numSites = 3;
    pipeline.tracesPerSite = 4;
    pipeline.openWorldExtra = 3;
    pipeline.featureLen = 16;
    pipeline.eval.folds = 2;
    pipeline.factory = ml::knnFactory();
    return pipeline;
}

constexpr attack::AttackerKind kBothAttackers[] = {
    attack::AttackerKind::LoopCounting, attack::AttackerKind::SweepCounting};

void
expectSameEval(const ml::EvalResult &a, const ml::EvalResult &b)
{
    EXPECT_EQ(a.foldTop1, b.foldTop1);
    EXPECT_EQ(a.foldTopK, b.foldTopK);
    EXPECT_EQ(a.top1Mean, b.top1Mean);
    EXPECT_EQ(a.topKMean, b.topKMean);
    EXPECT_EQ(a.openWorld.combinedAccuracy, b.openWorld.combinedAccuracy);
}

/** Every stage row of @p a equals @p b's, timing fields aside. */
void
expectSameStages(const std::vector<core::StageReport> &a,
                 const std::vector<core::StageReport> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(b[i].name);
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].phase, b[i].phase);
        EXPECT_EQ(a[i].fingerprint, b[i].fingerprint);
        EXPECT_EQ(a[i].cache, b[i].cache);
        EXPECT_EQ(a[i].items, b[i].items);
        EXPECT_EQ(a[i].dropped, b[i].dropped);
        EXPECT_EQ(a[i].sim.eventsSimulated, b[i].sim.eventsSimulated);
        EXPECT_EQ(a[i].sim.interruptsSynthesized,
                  b[i].sim.interruptsSynthesized);
        EXPECT_EQ(a[i].sim.allocations, b[i].sim.allocations);
        EXPECT_EQ(a[i].sim.bytesSorted, b[i].sim.bytesSorted);
    }
}

TEST(GroupedCollection, GroupRunMatchesOneCallPerConfigAcrossThreads)
{
    const auto configs = groupConfigs();
    const auto pipeline = groupPipeline();
    const web::SiteCatalog catalog(pipeline.numSites, pipeline.catalogSeed);
    const std::vector<std::vector<std::size_t>> groups = {
        {0, 1}, {2, 3}, {4}};

    std::vector<std::vector<core::FingerprintResult>> first;
    for (const int threads : {1, 4}) {
        SCOPED_TRACE(threads);
        ScopedThreads scoped(threads);
        const auto grouped =
            core::runFingerprintingShared(configs, kBothAttackers, pipeline)
                .valueOrDie();
        ASSERT_EQ(grouped.size(), configs.size());
        for (std::size_t c = 0; c < configs.size(); ++c) {
            const auto single =
                core::runFingerprintingShared(configs[c], kBothAttackers,
                                              pipeline)
                    .valueOrDie();
            ASSERT_EQ(grouped[c].size(), 2u);
            for (std::size_t a = 0; a < 2; ++a) {
                expectSameEval(grouped[c][a].closedWorld,
                               single[a].closedWorld);
                expectSameEval(grouped[c][a].openWorld, single[a].openWorld);
                EXPECT_EQ(grouped[c][a].collectedTraces,
                          single[a].collectedTraces);
                EXPECT_EQ(grouped[c][a].droppedTraces,
                          single[a].droppedTraces);
                // A config alone in its group runs exactly the stages of
                // its own call, so artifacts embedding the stage table
                // do not change when experiments batch their configs.
                if (c == 4)
                    expectSameStages(grouped[c][a].stages, single[a].stages);
            }
        }
        if (first.empty()) {
            first = grouped;
        } else {
            for (std::size_t c = 0; c < configs.size(); ++c)
                for (std::size_t a = 0; a < 2; ++a)
                    expectSameEval(grouped[c][a].closedWorld,
                                   first[c][a].closedWorld);
        }

        // The traces themselves: each member's sets from one group call
        // equal its own collection, in both worlds.
        for (const auto &group : groups) {
            std::vector<core::TraceCollector> collectors;
            for (const std::size_t c : group)
                collectors.emplace_back(configs[c]);
            std::vector<const core::TraceCollector *> members;
            for (const auto &collector : collectors)
                members.push_back(&collector);
            const auto collected =
                core::TraceCollector::collectGroup(
                    members, catalog, pipeline.tracesPerSite,
                    pipeline.openWorldExtra, pipeline.numSites,
                    kBothAttackers)
                    .valueOrDie();
            ASSERT_EQ(collected.size(), members.size());
            for (std::size_t m = 0; m < members.size(); ++m) {
                const auto own_closed =
                    collectors[m]
                        .collectClosedWorldMulti(catalog,
                                                 pipeline.tracesPerSite,
                                                 kBothAttackers)
                        .valueOrDie();
                const auto own_open =
                    collectors[m]
                        .collectOpenWorldMulti(catalog,
                                               pipeline.openWorldExtra,
                                               pipeline.numSites,
                                               kBothAttackers)
                        .valueOrDie();
                for (std::size_t a = 0; a < 2; ++a) {
                    expectBitIdentical(collected[m].closed.sets[a],
                                       own_closed[a]);
                    expectBitIdentical(collected[m].open.sets[a],
                                       own_open[a]);
                }
            }
        }
    }

    // A group whose timeline inputs differ is refused.
    const core::TraceCollector chrome(configs[0]), tor(configs[4]);
    const core::TraceCollector *const mixed[] = {&chrome, &tor};
    EXPECT_FALSE(core::TraceCollector::collectGroup(
                     mixed, catalog, 1, 0, pipeline.numSites,
                     kBothAttackers)
                     .isOk());
}

TEST(GroupedCollection, LaterMembersReportNoCollectWork)
{
    const auto configs = groupConfigs();
    const auto pipeline = groupPipeline();
    const auto grouped =
        core::runFingerprintingShared(configs, kBothAttackers, pipeline)
            .valueOrDie();
    const auto collect_row = [](const core::FingerprintResult &result) {
        const core::StageReport &row = result.stages.front();
        EXPECT_EQ(row.phase, "collect");
        return row;
    };

    sim::PerfCounters leaders;
    for (const std::size_t c : {0u, 2u, 4u}) {
        const core::StageReport row = collect_row(grouped[c][0]);
        EXPECT_GT(row.cpuSeconds, 0.0) << c;
        EXPECT_GT(row.sim.interruptsSynthesized, 0) << c;
        leaders += row.sim;
    }
    for (const std::size_t c : {1u, 3u}) {
        const core::StageReport row = collect_row(grouped[c][0]);
        EXPECT_EQ(row.cpuSeconds, 0.0) << c;
        EXPECT_EQ(row.wallSeconds, 0.0) << c;
        EXPECT_TRUE(row.sim.empty()) << c;
        EXPECT_EQ(row.cache, core::StageCacheState::Uncached) << c;
        EXPECT_EQ(row.items, collect_row(grouped[c - 1][0]).items) << c;
    }

    // Every base timeline is synthesized once: the group run's
    // synthesis counters equal running one member per group.
    sim::PerfCounters one_per_group;
    for (const std::size_t c : {0u, 2u, 4u})
        one_per_group +=
            collect_row(core::runFingerprintingShared(configs[c],
                                                      kBothAttackers, pipeline)
                            .valueOrDie()[0])
                .sim;
    EXPECT_EQ(leaders.interruptsSynthesized,
              one_per_group.interruptsSynthesized);
    EXPECT_EQ(leaders.bytesSorted, one_per_group.bytesSorted);
}

TEST(ParallelGemm, TransposedBFoldTasksMatchSerialBitForBit)
{
    // accumulateMatmulTransB's short-k path (k <= 32, n >= 16)
    // transposes B into a scratch buffer. Fold tasks run it
    // concurrently on every pool thread, the caller included, so the
    // scratch must belong to the call: every product must still match
    // the serial one bit for bit.
    constexpr std::size_t kFolds = 8, kRows = 1024, kK = 16, kN = 48;
    const auto product = [&](std::size_t fold) {
        Rng rng(fold + 1);
        ml::Matrix a(kRows, kK), b(kN, kK), c(kRows, kN);
        for (std::size_t i = 0; i < a.size(); ++i)
            a.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
        for (std::size_t i = 0; i < b.size(); ++i)
            b.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
        ml::accumulateMatmulTransB(c, a, b);
        return c;
    };

    std::vector<ml::Matrix> serial;
    {
        ScopedThreads one(1);
        for (std::size_t f = 0; f < kFolds; ++f)
            serial.push_back(product(f));
    }
    ScopedThreads four(4);
    for (int round = 0; round < 4; ++round) {
        const std::vector<ml::Matrix> folds =
            globalPool().parallelMap(kFolds, product);
        for (std::size_t f = 0; f < kFolds; ++f)
            EXPECT_EQ(std::memcmp(folds[f].data(), serial[f].data(),
                                  serial[f].size() * sizeof(float)),
                      0)
                << "round " << round << " fold " << f;
    }
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    std::vector<std::atomic<int>> hits(1000);
    pool.parallelFor(1000, [&](std::size_t i) { ++hits[i]; });
    for (const auto &h : hits)
        EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPool, ParallelMapPreservesSlotOrder)
{
    ThreadPool pool(8);
    const auto out =
        pool.parallelMap(257, [](std::size_t i) { return 3 * i + 1; });
    ASSERT_EQ(out.size(), 257u);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], 3 * i + 1);
}

TEST(ThreadPool, PropagatesExceptionsAndDrains)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error("boom");
                                  }),
                 std::runtime_error);

    // The pool must still be fully usable after a failed region.
    std::atomic<int> count{0};
    pool.parallelFor(50, [&](std::size_t) { ++count; });
    EXPECT_EQ(count.load(), 50);
}

TEST(ThreadPool, NestedRegionsRunInline)
{
    ThreadPool pool(4);
    std::atomic<int> count{0};
    pool.parallelFor(8, [&](std::size_t) {
        // A nested region on a worker must not deadlock waiting for the
        // very workers that are running it.
        globalPool().parallelFor(16, [&](std::size_t) { ++count; });
    });
    EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ThreadPool, ThreadCountBoundsTheThreadsRunningBodies)
{
    // N threads in all: N - 1 workers plus the calling thread, so N
    // threads compete for N cores, never N + 1.
    for (const int threads : {1, 2, 4}) {
        ThreadPool pool(threads);
        const std::size_t n = 4 * static_cast<std::size_t>(threads);
        std::vector<std::thread::id> ids(n);
        pool.parallelFor(n, [&](std::size_t i) {
            ids[i] = std::this_thread::get_id();
            // Long enough that every idle thread picks up a chunk.
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
        });
        std::set<std::thread::id> distinct(ids.begin(), ids.end());
        EXPECT_LE(distinct.size(), static_cast<std::size_t>(threads))
            << "pool of " << threads;
    }
}

TEST(ThreadPool, SingleThreadPoolSpawnsNoWorkers)
{
    ThreadPool pool(1);
    EXPECT_EQ(pool.threadCount(), 1);
    std::set<std::thread::id> ids;
    // A 1-thread pool runs every body inline on the caller; the insert
    // cannot race. bigfish-lint: allow(parallel-capture-race)
    pool.parallelFor(8, [&](std::size_t) {
        ids.insert(std::this_thread::get_id());
    });
    EXPECT_EQ(ids, std::set<std::thread::id>{std::this_thread::get_id()});
}

} // namespace
} // namespace bigfish
