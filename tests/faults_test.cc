/**
 * @file
 * Deterministic fault-injection tests.
 *
 * Pins down the FaultPlan contract: every fault decision is a pure
 * function of (FaultConfig::seed, trace salt), so a faulted collection
 * replays bit-identically; and the pipeline degrades gracefully —
 * dropped traces are accounted in FingerprintResult::droppedTraces
 * instead of aborting the evaluation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "core/collector.hh"
#include "core/pipeline.hh"
#include "ml/classifier.hh"
#include "sim/faults.hh"
#include "sim/interrupt.hh"
#include "sim/run_timeline.hh"
#include "timers/timer.hh"
#include "web/catalog.hh"
#include "web/site.hh"

namespace bigfish {
namespace {

sim::RunTimeline
denseTimeline()
{
    sim::RunTimeline t;
    t.duration = kSec;
    t.activityInterval = 10 * kMsec;
    t.iterCostFactor.assign(100, 1.0);
    t.occupancy.assign(100, 0.0);
    for (int i = 0; i < 200; ++i)
        t.stolen.push_back({i * 5 * kMsec, 50 * kUsec,
                            sim::InterruptKind::TimerTick});
    return t;
}

TEST(FaultPlan, DisabledConfigDoesNothing)
{
    const sim::FaultConfig config = sim::FaultConfig::none();
    EXPECT_FALSE(config.enabled());
    const sim::FaultPlan plan(config, 1);
    sim::RunTimeline timeline = denseTimeline();
    plan.applyToTimeline(timeline);
    EXPECT_EQ(timeline.stolen.size(), 200u);
    EXPECT_EQ(plan.truncatedLength(1000), 1000u);
    auto timer = plan.wrapTimer(std::make_unique<timers::PreciseTimer>());
    EXPECT_EQ(timer->name(), "precise");
}

TEST(FaultPlan, DropAllRemovesEveryInterval)
{
    sim::FaultConfig config;
    config.dropInterruptProb = 1.0;
    const sim::FaultPlan plan(config, 7);
    sim::RunTimeline timeline = denseTimeline();
    plan.applyToTimeline(timeline);
    EXPECT_TRUE(timeline.stolen.empty());
}

TEST(FaultPlan, DuplicatesExtendStolenTime)
{
    sim::FaultConfig config;
    config.duplicateInterruptProb = 1.0;
    const sim::FaultPlan plan(config, 7);
    sim::RunTimeline timeline = denseTimeline();
    const TimeNs before = timeline.totalStolenAll();
    plan.applyToTimeline(timeline);
    EXPECT_GT(timeline.stolen.size(), 200u);
    EXPECT_GT(timeline.totalStolenAll(), before);
    // Still sorted, non-overlapping, inside the run.
    for (std::size_t i = 0; i + 1 < timeline.stolen.size(); ++i)
        EXPECT_LE(timeline.stolen[i].end(),
                  timeline.stolen[i + 1].arrival);
    EXPECT_LE(timeline.stolen.back().end(), timeline.duration);
}

TEST(FaultPlan, StallsInjectUntraceableIntervals)
{
    sim::FaultConfig config;
    config.stallsPerSecond = 20.0;
    const sim::FaultPlan plan(config, 3);
    sim::RunTimeline timeline = denseTimeline();
    plan.applyToTimeline(timeline);
    std::size_t stalls = 0;
    for (const auto &s : timeline.stolen)
        if (s.kind == sim::InterruptKind::UntraceableStall)
            ++stalls;
    EXPECT_GT(stalls, 0u);
}

TEST(FaultPlan, TimelineFaultsAreDeterministicAndSaltDependent)
{
    sim::FaultConfig config;
    config.dropInterruptProb = 0.5;
    config.duplicateInterruptProb = 0.2;
    config.stallsPerSecond = 5.0;
    config.seed = 11;

    sim::RunTimeline a = denseTimeline();
    sim::RunTimeline b = denseTimeline();
    sim::RunTimeline c = denseTimeline();
    sim::FaultPlan(config, 42).applyToTimeline(a);
    sim::FaultPlan(config, 42).applyToTimeline(b);
    sim::FaultPlan(config, 43).applyToTimeline(c);

    ASSERT_EQ(a.stolen.size(), b.stolen.size());
    for (std::size_t i = 0; i < a.stolen.size(); ++i) {
        EXPECT_EQ(a.stolen[i].arrival, b.stolen[i].arrival);
        EXPECT_EQ(a.stolen[i].duration, b.stolen[i].duration);
        EXPECT_EQ(a.stolen[i].kind, b.stolen[i].kind);
    }
    // A different per-trace salt draws an independent fault pattern.
    bool differs = (a.stolen.size() != c.stolen.size());
    for (std::size_t i = 0; !differs && i < a.stolen.size(); ++i)
        differs = a.stolen[i].arrival != c.stolen[i].arrival;
    EXPECT_TRUE(differs);
}

TEST(FaultPlan, TruncationIsDeterministicWithinBounds)
{
    sim::FaultConfig config;
    config.truncateProb = 1.0;
    config.truncateKeepMin = 0.25;
    config.truncateKeepMax = 0.75;
    const sim::FaultPlan plan(config, 5);
    const std::size_t kept = plan.truncatedLength(1000);
    EXPECT_GE(kept, 250u);
    EXPECT_LE(kept, 750u);
    // Idempotent and call-order independent: re-asking gives the same
    // answer, regardless of the other fault streams having been drawn.
    EXPECT_EQ(plan.truncatedLength(1000), kept);
    sim::RunTimeline timeline = denseTimeline();
    plan.applyToTimeline(timeline);
    EXPECT_EQ(plan.truncatedLength(1000), kept);
    EXPECT_EQ(sim::FaultPlan(config, 5).truncatedLength(1000), kept);
}

TEST(FaultyTimer, BackstepsAreReproducibleNonNegativeAndPresent)
{
    sim::FaultConfig config;
    config.timerBackstepProb = 0.5;
    // Backsteps larger than the 100 us sampling stride below, so a
    // bucket boundary into a backstepped quantum shows up as an actual
    // non-monotonicity in the sampled reads.
    config.timerBackstepMax = 500 * kUsec;
    config.timerBackstepQuantum = kMsec;
    const sim::FaultPlan plan(config, 9);

    auto t1 = plan.wrapTimer(std::make_unique<timers::PreciseTimer>());
    auto t2 = plan.wrapTimer(std::make_unique<timers::PreciseTimer>());
    ASSERT_EQ(t1->name(), "precise+faults");

    bool any_backstep = false;
    TimeNs prev = -1;
    for (TimeNs real = 0; real <= 60 * kMsec; real += 100 * kUsec) {
        const TimeNs o1 = t1->observe(real);
        const TimeNs o2 = t2->observe(real);
        EXPECT_EQ(o1, o2) << "at real=" << real;
        EXPECT_GE(o1, 0);
        EXPECT_GE(o1, real - config.timerBackstepMax);
        EXPECT_LE(o1, real);
        if (prev >= 0 && o1 < prev)
            any_backstep = true;
        prev = o1;
    }
    EXPECT_TRUE(any_backstep);
}

TEST(FaultyTimer, SkewShiftsObservedTime)
{
    sim::FaultConfig config;
    config.timerSkewPpm = 200000.0; // 20% fast: obvious on purpose.
    const sim::FaultPlan plan(config, 2);
    auto timer = plan.wrapTimer(std::make_unique<timers::PreciseTimer>());
    EXPECT_NEAR(static_cast<double>(timer->observe(kSec)), 1.2e9, 2.0);
    EXPECT_EQ(timer->observe(0), 0);
}

core::CollectionConfig
faultyConfig()
{
    core::CollectionConfig config;
    config.seed = 2024;
    config.browser.traceDuration = 2 * kSec;
    config.faults.dropInterruptProb = 0.2;
    config.faults.duplicateInterruptProb = 0.1;
    config.faults.stallsPerSecond = 2.0;
    config.faults.timerSkewPpm = 50.0;
    config.faults.timerBackstepProb = 0.01;
    config.faults.truncateProb = 0.5;
    config.faults.truncateKeepMin = 0.3;
    config.faults.truncateKeepMax = 0.9;
    config.faults.seed = 31;
    return config;
}

TEST(FaultCollection, SameSeedReproducesBitIdenticalTraces)
{
    const auto config = faultyConfig();
    // Two independently constructed collectors: nothing may leak through
    // shared mutable state.
    const core::TraceCollector c1(config), c2(config);
    const auto site = web::amazonSignature(1);
    const auto a = c1.collectOne(attack::AttackerKind::LoopCounting, site, 3);
    const auto b = c2.collectOne(attack::AttackerKind::LoopCounting, site, 3);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    ASSERT_EQ(a.value().counts.size(), b.value().counts.size());
    for (std::size_t i = 0; i < a.value().counts.size(); ++i)
        EXPECT_DOUBLE_EQ(a.value().counts[i], b.value().counts[i]);
    ASSERT_EQ(a.value().wallTimes.size(), b.value().wallTimes.size());
    for (std::size_t i = 0; i < a.value().wallTimes.size(); ++i)
        EXPECT_EQ(a.value().wallTimes[i], b.value().wallTimes[i]);
}

TEST(FaultCollection, DifferentFaultSeedsProduceDifferentTraces)
{
    auto config = faultyConfig();
    const core::TraceCollector c1(config);
    config.faults.seed = 32;
    const core::TraceCollector c2(config);
    const auto site = web::amazonSignature(1);
    const auto a = c1.collectOne(attack::AttackerKind::LoopCounting, site, 3);
    const auto b = c2.collectOne(attack::AttackerKind::LoopCounting, site, 3);
    ASSERT_TRUE(a.isOk());
    ASSERT_TRUE(b.isOk());
    bool differs = a.value().counts.size() != b.value().counts.size();
    for (std::size_t i = 0; !differs && i < a.value().counts.size(); ++i)
        differs = a.value().counts[i] != b.value().counts[i];
    EXPECT_TRUE(differs);
}

TEST(FaultCollection, TruncationDropsAreAccounted)
{
    core::CollectionConfig config;
    config.seed = 5;
    config.browser.traceDuration = 2 * kSec;
    // Truncated traces keep at most ~2 of ~400 periods, below
    // kMinViablePeriods, so every truncation hit becomes a dropped trace.
    config.faults.truncateProb = 0.5;
    config.faults.truncateKeepMin = 0.0;
    config.faults.truncateKeepMax = 0.005;
    config.faults.seed = 8;

    const core::TraceCollector collector(config);
    const web::SiteCatalog catalog(3, 7);
    const attack::AttackerKind loop[] = {attack::AttackerKind::LoopCounting};
    std::vector<core::CollectionStats> per_attacker;
    const auto sets =
        collector.collectClosedWorldMulti(catalog, 6, loop, &per_attacker);
    ASSERT_TRUE(sets.isOk());
    ASSERT_EQ(per_attacker.size(), 1u);
    const core::CollectionStats &stats = per_attacker[0];
    EXPECT_EQ(stats.attempted, 18u);
    EXPECT_EQ(stats.collected + stats.dropped, stats.attempted);
    EXPECT_GT(stats.dropped, 0u);
    EXPECT_EQ(sets.value()[0].size(), stats.collected);
    for (const auto &trace : sets.value()[0].traces)
        EXPECT_GE(trace.counts.size(),
                  core::TraceCollector::kMinViablePeriods);
}

TEST(FaultIntegration, PipelineDegradesGracefullyUnderFaults)
{
    core::CollectionConfig config;
    config.seed = 99;
    config.browser.traceDuration = 3 * kSec;

    core::PipelineConfig pipeline;
    pipeline.numSites = 4;
    pipeline.tracesPerSite = 8;
    pipeline.featureLen = 128;
    pipeline.eval.folds = 4;
    pipeline.factory = ml::knnFactory(3);
    const attack::AttackerKind loop[] = {attack::AttackerKind::LoopCounting};
    const auto run = [&] {
        return core::runFingerprintingShared(config, loop, pipeline)
            .map([](std::vector<core::FingerprintResult> results) {
                return std::move(results[0]);
            });
    };

    const auto clean = run();
    ASSERT_TRUE(clean.isOk());
    EXPECT_EQ(clean.value().droppedTraces, 0u);

    // Table-1-style run under a non-trivial fault plan: 10% of
    // interrupts never delivered, and truncation kills some traces.
    config.faults.dropInterruptProb = 0.1;
    config.faults.truncateProb = 0.3;
    config.faults.truncateKeepMin = 0.0;
    config.faults.truncateKeepMax = 0.005;
    config.faults.seed = 17;

    const auto faulted = run();
    ASSERT_TRUE(faulted.isOk());
    const auto &result = faulted.value();
    EXPECT_GT(result.droppedTraces, 0u);
    EXPECT_EQ(result.collectedTraces + result.droppedTraces, 32u);

    // Graceful degradation: still far above chance (0.25), not wildly
    // better than the clean run.
    EXPECT_GT(result.closedWorld.top1Mean, 0.4);
    EXPECT_LE(result.closedWorld.top1Mean,
              clean.value().closedWorld.top1Mean + 0.2);

    // Bit-reproducible for a fixed seed.
    const auto again = run();
    ASSERT_TRUE(again.isOk());
    EXPECT_DOUBLE_EQ(again.value().closedWorld.top1Mean,
                     result.closedWorld.top1Mean);
    EXPECT_EQ(again.value().droppedTraces, result.droppedTraces);
    EXPECT_EQ(again.value().collectedTraces, result.collectedTraces);
}

} // namespace
} // namespace bigfish
