/**
 * @file
 * Property-based tests: invariants that must hold for *every*
 * combination of attacker, timer, browser and machine configuration.
 * These sweep the configuration space with parameterized gtest suites
 * rather than checking single hand-picked cases.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "core/collector.hh"
#include "ktrace/attribution.hh"
#include "web/catalog.hh"

namespace bigfish {
namespace {

/** The timer specs swept by the properties. */
std::vector<timers::TimerSpec>
timerSpecs()
{
    return {
        timers::TimerSpec::precise(),
        timers::TimerSpec::jittered(100 * kUsec),
        timers::TimerSpec::quantized(kMsec),
        timers::TimerSpec::quantized(100 * kMsec),
        timers::TimerSpec::randomizedDefense(),
    };
}

/** The machine configs swept by the properties. */
std::vector<sim::MachineConfig>
machineConfigs()
{
    auto pinned = sim::MachineConfig::linuxDesktop();
    pinned.pinnedCores = true;
    pinned.routing = sim::IrqRoutingPolicy::PinnedAway;
    auto vm = sim::MachineConfig::linuxDesktop();
    vm.vmIsolation = true;
    return {
        sim::MachineConfig::linuxDesktop(),
        sim::MachineConfig::windowsWorkstation(),
        sim::MachineConfig::macbook(),
        pinned,
        vm,
    };
}

using AttackCase = std::tuple<int /*attacker*/, int /*timer*/,
                              int /*machine*/>;

class AttackProperties : public ::testing::TestWithParam<AttackCase>
{
  protected:
    attack::AttackerKind
    attacker() const
    {
        return std::get<0>(GetParam()) == 0
                   ? attack::AttackerKind::LoopCounting
                   : attack::AttackerKind::SweepCounting;
    }

    core::CollectionConfig
    makeConfig() const
    {
        core::CollectionConfig config;
        config.timerOverride =
            timerSpecs()[static_cast<std::size_t>(std::get<1>(GetParam()))];
        config.machine = machineConfigs()[static_cast<std::size_t>(
            std::get<2>(GetParam()))];
        // Short traces keep the sweep fast: override the browser length.
        config.browser = web::BrowserProfile::chrome();
        config.browser.traceDuration = 3 * kSec;
        config.seed = 97;
        return config;
    }
};

TEST_P(AttackProperties, TraceIsSaneAndDeterministic)
{
    const auto config = makeConfig();
    const core::TraceCollector collector(config);
    const auto site = web::amazonSignature(1);
    const auto trace = collector.collectOne(attacker(), site, 0).valueOrDie();

    // Non-empty, all counts >= 1 (do-while semantics), wall times cover
    // the run without exceeding it.
    ASSERT_GT(trace.size(), 0u);
    TimeNs wall_total = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        EXPECT_GE(trace.counts[i], 1.0);
        EXPECT_GT(trace.wallTimes[i], 0);
        wall_total += trace.wallTimes[i];
    }
    EXPECT_LE(wall_total, config.browser.traceDuration + 100 * kMsec);

    // Bit-identical on re-collection.
    const auto again = collector.collectOne(attacker(), site, 0).valueOrDie();
    ASSERT_EQ(trace.counts.size(), again.counts.size());
    for (std::size_t i = 0; i < trace.counts.size(); ++i)
        EXPECT_DOUBLE_EQ(trace.counts[i], again.counts[i]);
}

TEST_P(AttackProperties, PeriodsRespectTimerSemantics)
{
    const auto config = makeConfig();
    const core::TraceCollector collector(config);
    const auto trace =
        collector.collectOne(attacker(), web::nytimesSignature(0), 1)
            .valueOrDie();
    const TimeNs period = config.effectivePeriod();
    const auto spec = config.effectiveTimer();

    for (std::size_t i = 0; i + 1 < trace.wallTimes.size(); ++i) {
        const TimeNs wall = trace.wallTimes[i];
        switch (spec.kind) {
          case timers::TimerKind::Precise:
            // Real elapsed time is at least P (observed == real).
            EXPECT_GE(wall, period);
            break;
          case timers::TimerKind::Quantized: {
            // t_begin is quantized *down* by up to one quantum, so the
            // period can end up to A of real time early...
            EXPECT_GE(wall, period - spec.resolution);
            // ...and at most one extra quantum late (plus handler
            // overshoot).
            EXPECT_LE(wall, period + spec.resolution + 50 * kMsec);
            break;
          }
          case timers::TimerKind::Jittered:
            // Jitter can end a period up to 2A early.
            EXPECT_GE(wall, period - 2 * spec.resolution);
            break;
          case timers::TimerKind::Randomized:
            // Anything between "instant" and the catch-up threshold.
            EXPECT_LE(wall,
                      period + spec.randomized.threshold +
                          2 * spec.randomized.resolution + 50 * kMsec);
            break;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, AttackProperties,
    ::testing::Combine(::testing::Range(0, 2), ::testing::Range(0, 5),
                       ::testing::Range(0, 5)));

class MachineProperties
    : public ::testing::TestWithParam<int>
{
};

TEST_P(MachineProperties, SynthesizedTimelinesAreWellFormed)
{
    const auto machine = machineConfigs()[static_cast<std::size_t>(
        GetParam())];
    sim::InterruptSynthesizer synth(machine);
    Rng workload_rng(5);
    const auto activity = web::realizeWorkload(
        web::weatherSignature(2), 5 * kSec, 1.0, web::RealizationNoise{},
        workload_rng);
    Rng rng(6);
    const auto timeline = synth.synthesize(activity, rng);

    ASSERT_FALSE(timeline.stolen.empty());
    for (std::size_t i = 0; i < timeline.stolen.size(); ++i) {
        const auto &s = timeline.stolen[i];
        EXPECT_GE(s.arrival, 0);
        EXPECT_GT(s.duration, 0);
        EXPECT_LE(s.end(), timeline.duration);
        if (i > 0) {
            EXPECT_GE(s.arrival, timeline.stolen[i - 1].end());
        }
    }
    for (double f : timeline.iterCostFactor) {
        EXPECT_GT(f, 0.4);
        EXPECT_LT(f, 2.0);
    }
    for (double o : timeline.occupancy) {
        EXPECT_GE(o, 0.0);
        EXPECT_LE(o, 1.0);
    }
}

TEST_P(MachineProperties, GapAttributionNeverBelow95Percent)
{
    // The >99% result is config-specific, but on *every* machine the
    // overwhelming majority of gaps must be explained by the tracer.
    const auto machine = machineConfigs()[static_cast<std::size_t>(
        GetParam())];
    sim::InterruptSynthesizer synth(machine);
    Rng workload_rng(7);
    const auto activity = web::realizeWorkload(
        web::nytimesSignature(0), 5 * kSec, 1.0, web::RealizationNoise{},
        workload_rng);
    Rng rng(8);
    const auto timeline = synth.synthesize(activity, rng);
    ktrace::AttributionReport report;
    ktrace::forEachAttributedGap(
        timeline, [&](const ktrace::AttributedGap &g) { report.add(g); });
    ASSERT_GT(report.totalGaps, 100u);
    EXPECT_GT(report.anyFraction(), 0.95);
}

INSTANTIATE_TEST_SUITE_P(Machines, MachineProperties,
                         ::testing::Range(0, 5));

class SitePropertyTest : public ::testing::TestWithParam<int>
{
};

TEST_P(SitePropertyTest, EverySiteYieldsDistinctButStableWorkloads)
{
    const web::SiteCatalog catalog(24, 7);
    const auto &site = catalog.site(GetParam());

    Rng r1(100), r2(100), r3(101);
    const auto a = web::realizeWorkload(site, 15 * kSec, 1.0,
                                        web::RealizationNoise{}, r1);
    const auto b = web::realizeWorkload(site, 15 * kSec, 1.0,
                                        web::RealizationNoise{}, r2);
    const auto c = web::realizeWorkload(site, 15 * kSec, 1.0,
                                        web::RealizationNoise{}, r3);

    double same = 0.0, diff = 0.0, total = 0.0;
    for (std::size_t i = 0; i < a.numIntervals(); ++i) {
        same += std::abs(a.at(i).netRxRate - b.at(i).netRxRate);
        diff += std::abs(a.at(i).netRxRate - c.at(i).netRxRate);
        total += a.at(i).netRxRate;
    }
    EXPECT_DOUBLE_EQ(same, 0.0); // Same seed: identical realization.
    if (total > 0.0) {
        EXPECT_GT(diff, 0.0); // Different run: some variation.
    }
}

INSTANTIATE_TEST_SUITE_P(Sites, SitePropertyTest, ::testing::Range(0, 24));

} // namespace
} // namespace bigfish
