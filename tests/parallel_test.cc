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
    auto set = collector.collectClosedWorld(catalog, 3, stats);
    EXPECT_TRUE(set.isOk());
    return std::move(set.value());
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
        serial = collector.collectOpenWorld(catalog, 10, 4).valueOrDie();
    }
    {
        ScopedThreads scoped(8);
        const core::TraceCollector collector(config);
        parallel = collector.collectOpenWorld(catalog, 10, 4).valueOrDie();
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
    // change: each attacker's set from one collectClosedWorldMulti() is
    // bit-identical to a separate collectClosedWorld() whose config
    // differs only in `attacker`.
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
        auto config = base;
        config.attacker = kinds[a];
        core::CollectionStats single_stats;
        const core::TraceCollector collector(config);
        const auto single =
            collector.collectClosedWorld(catalog, 3, &single_stats)
                .valueOrDie();
        expectBitIdentical(shared[a], single);
        EXPECT_EQ(shared_stats[a].attempted, single_stats.attempted);
        EXPECT_EQ(shared_stats[a].collected, single_stats.collected);
        EXPECT_EQ(shared_stats[a].dropped, single_stats.dropped);
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
        return core::runFingerprintingSharedOrDie(collection, kinds,
                                                  pipeline);
    };
    const auto serial = run_shared(1);
    const auto parallel = run_shared(8);
    ASSERT_EQ(serial.size(), 2u);
    ASSERT_EQ(parallel.size(), 2u);

    for (std::size_t a = 0; a < 2; ++a) {
        auto single_cfg = collection;
        single_cfg.attacker = kinds[a];
        const auto single =
            core::runFingerprintingOrDie(single_cfg, pipeline);
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
    // Separable two-class data; enough rows for 3 folds.
    ml::Dataset data;
    Rng rng(99);
    for (int i = 0; i < 24; ++i) {
        const Label y = i % 2;
        std::vector<double> x(16);
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

    const auto run = [&](int threads) {
        ScopedThreads scoped(threads);
        return ml::crossValidate(ml::mlpFactory(), data, config);
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
        return core::runFingerprintingOrDie(collection, pipeline);
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

    ScopedThreads scoped(4);
    const double cpu_start = processCpuSeconds();
    const auto results =
        core::runFingerprintingSharedOrDie(collection, kinds, pipeline);
    const double process_cpu = processCpuSeconds() - cpu_start;

    double stage_cpu = 0.0;
    for (const auto &result : results)
        for (const auto &stage : result.stages)
            stage_cpu += stage.cpuSeconds;
    EXPECT_GT(stage_cpu, 0.0);
    EXPECT_LE(stage_cpu, 1.10 * process_cpu)
        << "stage rows " << stage_cpu << " s, process " << process_cpu
        << " s";
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
