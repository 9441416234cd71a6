/**
 * @file
 * Unit tests for src/attack: trace containers, feature extraction, and
 * the loop-counting / sweep-counting attackers (Figure 2 semantics).
 */

#include <gtest/gtest.h>

#include <algorithm>

#include "attack/attacker.hh"
#include "attack/segmentation.hh"
#include "attack/trace.hh"
#include "ktrace/attribution.hh"
#include "sim/synthesizer.hh"
#include "stats/descriptive.hh"
#include "timers/timer.hh"
#include "web/catalog.hh"
#include "web/session.hh"
#include "web/site.hh"

namespace bigfish::attack {
namespace {

TEST(Trace, MaxAndNormalization)
{
    Trace trace;
    trace.counts = {10, 20, 5};
    EXPECT_DOUBLE_EQ(trace.maxCount(), 20.0);
    const auto norm = trace.normalized();
    EXPECT_DOUBLE_EQ(norm[0], 0.5);
    EXPECT_DOUBLE_EQ(norm[1], 1.0);
    EXPECT_DOUBLE_EQ(norm[2], 0.25);
}

TEST(TraceSet, LabelsAndClasses)
{
    TraceSet set;
    Trace a, b;
    a.label = 0;
    b.label = 4;
    set.add(a);
    set.add(b);
    EXPECT_EQ(set.numClasses(), 5);
    EXPECT_EQ(set.labels(), (std::vector<Label>{0, 4}));
}

TEST(TraceSet, ToFeaturesFixedLength)
{
    TraceSet set;
    Trace a;
    a.counts.assign(1000, 5.0);
    a.counts[500] = 10.0;
    set.add(a);
    const auto features = set.toFeatures(100);
    ASSERT_EQ(features.size(), 1u);
    EXPECT_EQ(features[0].size(), 100u);
}

/** Synthesizes a timeline for one example site. */
sim::RunTimeline
exampleTimeline(std::uint64_t seed, TimeNs duration = 5 * kSec)
{
    Rng rng(seed);
    const auto site = web::amazonSignature(0);
    const auto activity = web::realizeWorkload(
        site, duration, 1.0, web::RealizationNoise{}, rng);
    sim::InterruptSynthesizer synth(sim::MachineConfig::linuxDesktop());
    Rng synth_rng(seed + 1);
    return synth.synthesize(activity, synth_rng);
}

TEST(IterationCosts, LoopIsConstantUpToMachineFactor)
{
    const auto timeline = exampleTimeline(1);
    const auto machine = sim::MachineConfig::linuxDesktop();
    AttackerParams params;
    const auto costs = iterationCosts(AttackerKind::LoopCounting, params,
                                      machine, timeline);
    ASSERT_EQ(costs.size(), timeline.iterCostFactor.size());
    for (std::size_t i = 0; i < costs.size(); ++i)
        EXPECT_NEAR(costs[i],
                    params.loopIterNs * timeline.iterCostFactor[i], 1e-9);
}

TEST(IterationCosts, SweepTracksOccupancy)
{
    // Hand-built timeline: occupancy 0 in the first step, 1 in the
    // second, no machine factor noise — the sweep cost difference must
    // be exactly the observed-occupancy miss term.
    sim::RunTimeline timeline;
    timeline.duration = 20 * kMsec;
    timeline.activityInterval = 10 * kMsec;
    timeline.iterCostFactor = {1.0, 1.0};
    timeline.occupancy = {0.0, 1.0};
    const auto machine = sim::MachineConfig::linuxDesktop();
    AttackerParams params;
    const auto costs = iterationCosts(AttackerKind::SweepCounting, params,
                                      machine, timeline);
    ASSERT_EQ(costs.size(), 2u);
    const double lines = static_cast<double>(machine.llcLines());
    EXPECT_NEAR(costs[0],
                lines * machine.sweepHitNsPerLine + params.sweepOverheadNs,
                1e-6);
    EXPECT_NEAR(costs[1] - costs[0],
                params.sweepObservedOccupancy * lines *
                    machine.sweepMissExtraNsPerLine,
                1e-6);
}

TEST(Attackers, LoopCountsAreOrdersOfMagnitudeLarger)
{
    // Paper Section 3.3: ~27,000 loop iterations vs ~32 sweeps per 5 ms.
    const auto machine = sim::MachineConfig::linuxDesktop();
    const auto timeline = exampleTimeline(3);
    AttackerParams params;
    timers::PreciseTimer t1, t2;
    const Trace loop = collectTrace(AttackerKind::LoopCounting, params,
                                    machine, timeline, t1, 5 * kMsec)
                           .valueOrDie();
    const Trace sweep = collectTrace(AttackerKind::SweepCounting, params,
                                     machine, timeline, t2, 5 * kMsec)
                            .valueOrDie();
    EXPECT_NEAR(loop.maxCount(), 27000.0, 3000.0);
    // ~32 sweeps per idle period; the max over a trace rides the
    // memory-noise tail, so allow a wider band than for the loop.
    EXPECT_NEAR(sweep.maxCount(), 32.0, 10.0);
    EXPECT_NEAR(stats::quantile(sweep.counts, 0.9), 31.0, 6.0);
}

TEST(Attackers, TraceLengthMatchesDurationOverPeriod)
{
    const auto machine = sim::MachineConfig::linuxDesktop();
    const auto timeline = exampleTimeline(4, 10 * kSec);
    AttackerParams params;
    timers::PreciseTimer timer;
    const Trace trace = collectTrace(AttackerKind::LoopCounting, params,
                                     machine, timeline, timer, 5 * kMsec)
                            .valueOrDie();
    EXPECT_NEAR(static_cast<double>(trace.size()), 2000.0, 20.0);
    EXPECT_EQ(trace.counts.size(), trace.wallTimes.size());
    EXPECT_EQ(trace.attacker, "loop-counting");
}

TEST(Attackers, BusyPhasesDepressCounts)
{
    // The amazon workload is busy in the first 2 s: counts there must be
    // lower than in the 7-8 s lull.
    const auto machine = sim::MachineConfig::linuxDesktop();
    const auto timeline = exampleTimeline(5, 10 * kSec);
    AttackerParams params;
    timers::PreciseTimer timer;
    const Trace trace = collectTrace(AttackerKind::LoopCounting, params,
                                     machine, timeline, timer, 5 * kMsec)
                            .valueOrDie();
    ASSERT_GT(trace.size(), 1800u);
    double busy = 0.0, quiet = 0.0;
    int busy_n = 0, quiet_n = 0;
    for (std::size_t i = 0; i < trace.size(); ++i) {
        const double t_ms = static_cast<double>(i) * 5.0;
        if (t_ms > 200 && t_ms < 1500) {
            busy += trace.counts[i];
            ++busy_n;
        } else if (t_ms > 7000 && t_ms < 8000) {
            quiet += trace.counts[i];
            ++quiet_n;
        }
    }
    EXPECT_GT(quiet / quiet_n, busy / busy_n);
}

TEST(Attackers, LoopAndSweepTracesCorrelate)
{
    // Figure 4: both attackers observe the same system events, so their
    // averaged normalized traces are strongly correlated.
    const auto machine = sim::MachineConfig::linuxDesktop();
    AttackerParams params;
    std::vector<std::vector<double>> loop_runs, sweep_runs;
    for (int run = 0; run < 10; ++run) {
        const auto timeline = exampleTimeline(100 + run, 10 * kSec);
        timers::PreciseTimer t1, t2;
        const Trace loop =
            collectTrace(AttackerKind::LoopCounting, params, machine,
                         timeline, t1, 5 * kMsec)
                .valueOrDie();
        const Trace sweep =
            collectTrace(AttackerKind::SweepCounting, params, machine,
                         timeline, t2, 5 * kMsec)
                .valueOrDie();
        loop_runs.push_back(
            stats::downsample(loop.normalized(), 100));
        sweep_runs.push_back(
            stats::downsample(sweep.normalized(), 100));
    }
    const auto loop_avg = stats::elementwiseMean(loop_runs);
    const auto sweep_avg = stats::elementwiseMean(sweep_runs);
    EXPECT_GT(stats::pearson(loop_avg, sweep_avg), 0.6);
}

TEST(Attackers, WallTimesMatchPeriodUnderPreciseTimer)
{
    const auto machine = sim::MachineConfig::linuxDesktop();
    const auto timeline = exampleTimeline(6);
    AttackerParams params;
    timers::PreciseTimer timer;
    const Trace trace = collectTrace(AttackerKind::LoopCounting, params,
                                     machine, timeline, timer, 5 * kMsec)
                            .valueOrDie();
    for (std::size_t i = 0; i + 1 < trace.wallTimes.size(); ++i) {
        EXPECT_GE(trace.wallTimes[i], 5 * kMsec);
        // A handler can overshoot the period end by at most one handler
        // duration plus one iteration.
        EXPECT_LE(trace.wallTimes[i], 5 * kMsec + 10 * kMsec);
    }
}

TEST(Segmentation, FindsSyntheticOnsets)
{
    // Synthetic long trace: calm at 27000 counts with two loading
    // regions (depressed counts) starting at bins 400 and 1400.
    Trace trace;
    trace.period = 5 * kMsec;
    trace.counts.assign(2400, 27000.0);
    Rng rng(9);
    for (auto &c : trace.counts)
        c += rng.normal(0.0, 60.0);
    for (std::size_t i = 400; i < 700; ++i)
        trace.counts[i] -= 3000.0;
    for (std::size_t i = 1400; i < 1750; ++i)
        trace.counts[i] -= 3000.0;

    const auto onsets = detectNavigations(trace);
    ASSERT_EQ(onsets.size(), 2u);
    EXPECT_NEAR(static_cast<double>(onsets[0]), 400.0, 50.0);
    EXPECT_NEAR(static_cast<double>(onsets[1]), 1400.0, 50.0);
}

TEST(Segmentation, MinSpacingSuppressesDoubleFires)
{
    Trace trace;
    trace.period = 5 * kMsec;
    trace.counts.assign(1200, 27000.0);
    // Two bursts only 1 s apart: must merge into one navigation.
    for (std::size_t i = 300; i < 350; ++i)
        trace.counts[i] -= 4000.0;
    for (std::size_t i = 500; i < 560; ++i)
        trace.counts[i] -= 4000.0;
    const auto onsets = detectNavigations(trace);
    EXPECT_EQ(onsets.size(), 1u);
}

TEST(Segmentation, QuietTraceHasNoOnsets)
{
    Trace trace;
    trace.period = 5 * kMsec;
    trace.counts.assign(1000, 27000.0);
    Rng rng(10);
    for (auto &c : trace.counts)
        c += rng.normal(0.0, 30.0);
    // With no sustained dip region the detector should fire rarely.
    const auto onsets = detectNavigations(trace);
    EXPECT_LE(onsets.size(), 2u);
}

TEST(Segmentation, SliceCoversTraceWithoutOverlap)
{
    Trace trace;
    trace.period = 5 * kMsec;
    for (int i = 0; i < 900; ++i)
        trace.counts.push_back(i);
    trace.wallTimes.assign(900, 5 * kMsec);
    const auto slices = sliceTrace(trace, {100, 400, 700});
    ASSERT_EQ(slices.size(), 3u);
    EXPECT_EQ(slices[0].counts.size(), 300u);
    EXPECT_EQ(slices[1].counts.size(), 300u);
    EXPECT_EQ(slices[2].counts.size(), 200u);
    EXPECT_DOUBLE_EQ(slices[0].counts.front(), 100.0);
    EXPECT_DOUBLE_EQ(slices[2].counts.back(), 899.0);
    EXPECT_EQ(slices[1].wallTimes.size(), 300u);
}

TEST(Segmentation, EndToEndOnRealSessionTrace)
{
    // Build a 3-visit session, collect the long trace, and require the
    // detector to land within 3 s of every true navigation.
    const web::SiteCatalog catalog(6, 7);
    web::BrowsingSession session;
    session.steps = {{0, 18 * kSec}, {3, 18 * kSec}, {5, 18 * kSec}};
    Rng rng(11);
    const auto activity = web::realizeSession(
        session, catalog, 1.0, web::RealizationNoise{}, rng);
    sim::InterruptSynthesizer synth(sim::MachineConfig::linuxDesktop());
    Rng synth_rng(12);
    const auto timeline = synth.synthesize(activity, synth_rng);
    timers::PreciseTimer timer;
    AttackerParams params;
    const auto trace = collectTrace(
        AttackerKind::LoopCounting, params,
        sim::MachineConfig::linuxDesktop(), timeline, timer, 5 * kMsec)
        .valueOrDie();

    const auto onsets = detectNavigations(trace);
    const auto truths = session.navigationTimes();
    for (TimeNs truth : truths) {
        bool found = false;
        for (std::size_t onset : onsets) {
            const TimeNs at =
                static_cast<TimeNs>(onset) * trace.period;
            if (std::abs(at - truth) < 3 * kSec)
                found = true;
        }
        EXPECT_TRUE(found) << "missed navigation at " << truth;
    }
}

TEST(GapTrace, ChargesStolenTimePerPeriod)
{
    sim::RunTimeline timeline;
    timeline.duration = 20 * kMsec;
    timeline.activityInterval = 10 * kMsec;
    timeline.iterCostFactor = {1.0, 1.0};
    timeline.occupancy = {0.0, 0.0};
    timeline.stolen = {
        {kMsec, 100 * kUsec, sim::InterruptKind::TimerTick},
        {2 * kMsec, 50 * kUsec, sim::InterruptKind::ReschedIpi},
        // In the second 5 ms period:
        {6 * kMsec, 200 * kUsec, sim::InterruptKind::SoftirqNetRx},
    };
    const Trace trace = collectGapTrace(timeline, 5 * kMsec).valueOrDie();
    ASSERT_EQ(trace.size(), 4u);
    EXPECT_DOUBLE_EQ(trace.counts[0], 150.0 * kUsec);
    EXPECT_DOUBLE_EQ(trace.counts[1], 200.0 * kUsec);
    EXPECT_DOUBLE_EQ(trace.counts[2], 0.0);
    EXPECT_EQ(trace.attacker, "gap-trace");
}

TEST(GapTrace, SplitsSpanAcrossPeriodBoundary)
{
    sim::RunTimeline timeline;
    timeline.duration = 10 * kMsec;
    timeline.activityInterval = 10 * kMsec;
    timeline.iterCostFactor = {1.0};
    timeline.occupancy = {0.0};
    // 2 ms handler straddling the 5 ms boundary: 1 ms in each period.
    timeline.stolen = {
        {4 * kMsec, 2 * kMsec, sim::InterruptKind::Preemption}};
    const Trace trace = collectGapTrace(timeline, 5 * kMsec).valueOrDie();
    ASSERT_EQ(trace.size(), 2u);
    EXPECT_DOUBLE_EQ(trace.counts[0], 1.0 * kMsec);
    EXPECT_DOUBLE_EQ(trace.counts[1], 1.0 * kMsec);
}

TEST(GapTrace, ThresholdFiltersTinyGaps)
{
    sim::RunTimeline timeline;
    timeline.duration = 10 * kMsec;
    timeline.activityInterval = 10 * kMsec;
    timeline.iterCostFactor = {1.0};
    timeline.occupancy = {0.0};
    timeline.stolen = {{kMsec, 40, sim::InterruptKind::TimerTick}};
    // 40 ns + 30 ns poll = 70 ns < 100 ns threshold: invisible.
    const Trace trace =
        collectGapTrace(timeline, 5 * kMsec, 30, 100).valueOrDie();
    EXPECT_DOUBLE_EQ(trace.counts[0], 0.0);
}

TEST(GapTrace, CorrelatesWithLoopTrace)
{
    // Section 5.2: different attack code, same channel — the stolen-time
    // trace must anti-correlate with the loop counter trace.
    const auto machine = sim::MachineConfig::linuxDesktop();
    const auto timeline = exampleTimeline(77, 10 * kSec);
    AttackerParams params;
    timers::PreciseTimer timer;
    const Trace loop = collectTrace(AttackerKind::LoopCounting, params,
                                    machine, timeline, timer, 5 * kMsec)
                           .valueOrDie();
    const Trace gaps = collectGapTrace(timeline, 5 * kMsec).valueOrDie();
    const auto loop_ds = stats::downsample(loop.normalized(), 200);
    const auto gap_ds = stats::downsample(gaps.counts, 200);
    EXPECT_LT(stats::pearson(loop_ds, gap_ds), -0.5);
}

/**
 * Rebuilds every back-to-back chain of @p timeline (each member arriving
 * at the previous one's end) with its members in reversed order and
 * arrivals recomputed from the chain's start: the timeline another tie
 * order in normalizeTimeline() would have produced.
 */
sim::RunTimeline
reverseChains(const sim::RunTimeline &timeline)
{
    sim::RunTimeline reversed = timeline;
    auto &stolen = reversed.stolen;
    std::size_t begin = 0;
    while (begin < stolen.size()) {
        std::size_t end = begin + 1;
        while (end < stolen.size() &&
               stolen[end].arrival == stolen[end - 1].end())
            ++end;
        TimeNs at = stolen[begin].arrival;
        std::reverse(stolen.begin() + static_cast<std::ptrdiff_t>(begin),
                     stolen.begin() + static_cast<std::ptrdiff_t>(end));
        for (std::size_t i = begin; i < end; ++i) {
            stolen[i].arrival = at;
            at = stolen[i].end();
        }
        begin = end;
    }
    return reversed;
}

/** Expects both traces to hold the same counts and wall times. */
void
expectSameTrace(const Trace &a, const Trace &b)
{
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.wallTimes, b.wallTimes);
}

TEST(TieOrder, ReachesNoAttackerTraceOrGapAttribution)
{
    // Tied arrivals serialize into one back-to-back chain whose start
    // and end do not depend on member order, and the engine charges a
    // chain as one span. So the tie order normalizeTimeline() picks
    // (input position) is a choice, not a baseline: this pins that no
    // attacker count, wall time or gap attribution can tell another
    // order from it.
    sim::MachineConfig isolated = sim::MachineConfig::linuxDesktop();
    isolated.vmIsolation = true;
    isolated.routing = sim::IrqRoutingPolicy::PinnedAway;
    const sim::MachineConfig machines[] = {
        sim::MachineConfig::linuxDesktop(),
        sim::MachineConfig::windowsWorkstation(),
        sim::MachineConfig::macbook(),
        isolated,
    };
    const timers::TimerSpec timers[] = {
        timers::TimerSpec::precise(),
        timers::TimerSpec::quantized(100 * kUsec),
        timers::TimerSpec::jittered(100 * kUsec),
    };
    const AttackerParams params;
    std::uint64_t seed = 40;
    for (const sim::MachineConfig &machine : machines) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        const auto activity = web::realizeWorkload(
            web::amazonSignature(0), 2 * kSec, 1.0,
            web::RealizationNoise{}, rng);
        Rng synth_rng(seed + 1);
        const sim::RunTimeline timeline =
            sim::InterruptSynthesizer(machine).synthesize(activity,
                                                          synth_rng);
        const sim::RunTimeline reversed = reverseChains(timeline);
        ++seed;

        // The rebuild must actually move kinds, or the checks below
        // would pass on two copies of one timeline.
        ASSERT_EQ(reversed.stolen.size(), timeline.stolen.size());
        std::size_t moved = 0;
        for (std::size_t i = 0; i < timeline.stolen.size(); ++i)
            moved += timeline.stolen[i].kind != reversed.stolen[i].kind;
        EXPECT_GT(moved, 0u);

        for (const AttackerKind kind :
             {AttackerKind::LoopCounting, AttackerKind::SweepCounting}) {
            for (const timers::TimerSpec &spec : timers) {
                SCOPED_TRACE(attackerKindName(kind) + " " + spec.name());
                const auto t1 = spec.make(seed);
                const auto t2 = spec.make(seed);
                const Trace a = collectTrace(kind, params, machine,
                                             timeline, *t1, 5 * kMsec, 9)
                                    .valueOrDie();
                const Trace b = collectTrace(kind, params, machine,
                                             reversed, *t2, 5 * kMsec, 9)
                                    .valueOrDie();
                expectSameTrace(a, b);
            }
        }
        expectSameTrace(collectGapTrace(timeline, 5 * kMsec).valueOrDie(),
                        collectGapTrace(reversed, 5 * kMsec).valueOrDie());

        // Gap for gap through the one walk: the reversed stream's gaps
        // are checked against the original's as they are visited.
        std::vector<ktrace::AttributedGap> gaps_a;
        ktrace::AttributionReport sum_a, sum_b;
        ktrace::forEachAttributedGap(
            timeline, [&](const ktrace::AttributedGap &g) {
                sum_a.add(g);
                gaps_a.push_back(g);
            });
        ktrace::forEachAttributedGap(
            reversed, [&](const ktrace::AttributedGap &g) {
                const std::size_t i = sum_b.totalGaps;
                sum_b.add(g);
                ASSERT_LT(i, gaps_a.size());
                EXPECT_EQ(gaps_a[i].gap.start, g.gap.start);
                EXPECT_EQ(gaps_a[i].gap.length, g.gap.length);
                EXPECT_EQ(gaps_a[i].kinds, g.kinds);
            });
        EXPECT_GT(sum_a.totalGaps, 0u);
        EXPECT_EQ(sum_a.totalGaps, sum_b.totalGaps);
        EXPECT_EQ(sum_a.attributedToInterrupt, sum_b.attributedToInterrupt);
        EXPECT_EQ(sum_a.attributedToAny, sum_b.attributedToAny);
    }
}

TEST(Attackers, KindNames)
{
    EXPECT_EQ(attackerKindName(AttackerKind::LoopCounting),
              "loop-counting");
    EXPECT_EQ(attackerKindName(AttackerKind::SweepCounting),
              "sweep-counting");
}

} // namespace
} // namespace bigfish::attack
