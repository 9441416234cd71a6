/**
 * @file
 * Cross-module integration tests: small-scale versions of the paper's
 * headline comparisons, checking *shape* relations the full benchmark
 * harness reproduces at larger scale.
 *
 * These tests intentionally run the real pipeline end to end (workload
 * realization -> interrupt synthesis -> attacker -> featurization ->
 * classifier) at reduced scale so they stay fast.
 */

#include <gtest/gtest.h>

#include "core/collector.hh"
#include "core/pipeline.hh"
#include "ktrace/attribution.hh"

namespace bigfish {
namespace {

/** Small, fast evaluation used across the integration tests. */
core::PipelineConfig
smallPipeline()
{
    core::PipelineConfig pipeline;
    pipeline.numSites = 6;
    pipeline.tracesPerSite = 10;
    pipeline.featureLen = 192;
    pipeline.eval.folds = 5;
    pipeline.factory = ml::knnFactory(3);
    return pipeline;
}

double
accuracyOf(const core::CollectionConfig &config,
           attack::AttackerKind attacker = attack::AttackerKind::LoopCounting,
           core::PipelineConfig pipeline = smallPipeline())
{
    const attack::AttackerKind attackers[] = {attacker};
    return core::runFingerprintingShared(config, attackers, pipeline)
        .valueOrDie()[0]
        .closedWorld.top1Mean;
}

TEST(Integration, LoopAttackBeatsChanceByWideMargin)
{
    core::CollectionConfig config;
    config.seed = 11;
    EXPECT_GT(accuracyOf(config), 0.7); // Chance: 1/6.
}

TEST(Integration, SweepAttackAlsoWorksButWorse)
{
    // Table 2's controlled comparison: same machine, same sites; the
    // sweep-counting attacker's coarse counter loses accuracy.
    core::CollectionConfig config;
    config.seed = 12;
    const double loop_acc = accuracyOf(config);
    const double sweep_acc =
        accuracyOf(config, attack::AttackerKind::SweepCounting);
    EXPECT_GT(sweep_acc, 0.4); // Still a working attack...
    EXPECT_GE(loop_acc, sweep_acc); // ...but not better than loop-counting.
}

TEST(Integration, InterruptNoiseHurtsMoreThanCacheNoise)
{
    // Table 2's key asymmetry, on the loop-counting attacker.
    core::CollectionConfig plain;
    plain.seed = 13;
    core::CollectionConfig cache_noise = plain;
    cache_noise.cacheSweepNoise = true;
    core::CollectionConfig irq_noise = plain;
    irq_noise.spuriousInterruptNoise = true;

    const double base = accuracyOf(plain);
    const double with_cache = accuracyOf(cache_noise);
    const double with_irq = accuracyOf(irq_noise);
    EXPECT_LT(with_irq, base);
    // Interrupt noise must hurt clearly more than cache noise.
    EXPECT_LT(with_irq, with_cache - 0.05);
}

TEST(Integration, RandomizedTimerCollapsesAccuracy)
{
    // Table 4: the randomized timer drives the attack to near chance.
    core::CollectionConfig plain;
    plain.seed = 14;
    core::CollectionConfig defended = plain;
    defended.timerOverride = timers::TimerSpec::randomizedDefense();
    const double base = accuracyOf(plain);
    const double with_defense = accuracyOf(defended);
    EXPECT_GT(base, 0.7);
    EXPECT_LT(with_defense, 0.45);
}

TEST(Integration, QuantizedTimerDegradesLessThanRandomized)
{
    core::CollectionConfig quantized;
    quantized.seed = 15;
    quantized.timerOverride = timers::TimerSpec::quantized(100 * kMsec);
    core::CollectionConfig randomized = quantized;
    randomized.timerOverride = timers::TimerSpec::randomizedDefense();
    EXPECT_GT(accuracyOf(quantized), accuracyOf(randomized));
}

TEST(Integration, IrqPinningReducesButDoesNotStopAttack)
{
    // Table 3, row 4: removing movable IRQs costs accuracy but the
    // non-movable residue keeps the attack alive.
    core::CollectionConfig defaults;
    defaults.seed = 16;
    defaults.browser = web::BrowserProfile::nativePython();
    core::CollectionConfig pinned = defaults;
    pinned.machine.routing = sim::IrqRoutingPolicy::PinnedAway;
    pinned.machine.pinnedCores = true;
    const double base = accuracyOf(defaults);
    const double isolated = accuracyOf(pinned);
    EXPECT_GT(base, 0.7);
    EXPECT_GT(isolated, 0.5); // Still far above 1/6 chance.
}

TEST(Integration, GapAttributionHoldsUnderTheAttackConfig)
{
    // The ktrace methodology applied to the exact timelines the
    // collector produces for the Python attacker.
    core::CollectionConfig config;
    config.seed = 17;
    config.browser = web::BrowserProfile::nativeRust();
    config.machine.routing = sim::IrqRoutingPolicy::PinnedAway;
    config.machine.pinnedCores = true;
    const core::TraceCollector collector(config);
    const auto timeline =
        collector.synthesizeTimeline(web::weatherSignature(2), 0);
    ktrace::AttributionReport report;
    ktrace::forEachAttributedGap(
        timeline, [&](const ktrace::AttributedGap &g) { report.add(g); });
    ASSERT_GT(report.totalGaps, 500u);
    EXPECT_GT(report.interruptFraction(), 0.985);
}

TEST(Integration, TracesReproducibleAcrossProcessRestarts)
{
    // Golden values: catching accidental changes to any stage of the
    // pipeline (workload realization, synthesis, engine, timers).
    core::CollectionConfig config;
    config.seed = 424242;
    const core::TraceCollector collector(config);
    const auto trace = collector
                           .collectOne(attack::AttackerKind::LoopCounting,
                                       web::nytimesSignature(0), 0)
                           .valueOrDie();
    ASSERT_GT(trace.size(), 2900u);
    // Self-consistency rather than brittle exact values: re-collect.
    const auto again = collector
                           .collectOne(attack::AttackerKind::LoopCounting,
                                       web::nytimesSignature(0), 0)
                           .valueOrDie();
    ASSERT_EQ(trace.counts.size(), again.counts.size());
    for (std::size_t i = 0; i < trace.counts.size(); i += 97)
        EXPECT_DOUBLE_EQ(trace.counts[i], again.counts[i]);
}

TEST(Integration, VmIsolationDoesNotStopTheAttack)
{
    // Table 3, last row: VMs fail to mitigate (and can amplify).
    core::CollectionConfig vm;
    vm.seed = 18;
    vm.browser = web::BrowserProfile::nativePython();
    vm.machine.vmIsolation = true;
    vm.machine.routing = sim::IrqRoutingPolicy::PinnedAway;
    vm.machine.pinnedCores = true;
    EXPECT_GT(accuracyOf(vm), 0.5);
}

} // namespace
} // namespace bigfish
