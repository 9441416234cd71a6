/**
 * @file
 * Unit tests for src/ktrace: the eBPF-analog tracer, the gap detector,
 * and the gap-to-interrupt attribution join of Section 5.2 — including
 * the paper's ">99% of gaps longer than 100 ns are interrupts" result.
 */

#include <gtest/gtest.h>

#include "ktrace/attribution.hh"
#include "ktrace/gap_detector.hh"
#include "ktrace/tracer.hh"
#include "sim/synthesizer.hh"
#include "web/catalog.hh"
#include "web/site.hh"

namespace bigfish::ktrace {
namespace {

/** Builds a timeline with explicit stolen intervals. */
sim::RunTimeline
makeTimeline(std::vector<sim::StolenInterval> stolen,
             TimeNs duration = 100 * kMsec)
{
    sim::RunTimeline timeline;
    timeline.duration = duration;
    timeline.activityInterval = 10 * kMsec;
    const std::size_t steps =
        static_cast<std::size_t>(duration / timeline.activityInterval);
    timeline.iterCostFactor.assign(steps, 1.0);
    timeline.occupancy.assign(steps, 0.0);
    sim::normalizeTimeline(stolen, duration);
    timeline.stolen = std::move(stolen);
    return timeline;
}

TEST(KernelTracer, RecordsTraceableKindsOnly)
{
    const auto timeline = makeTimeline({
        {kMsec, 2 * kUsec, sim::InterruptKind::TimerTick},
        {2 * kMsec, 2 * kUsec, sim::InterruptKind::UntraceableStall},
        {3 * kMsec, 2 * kUsec, sim::InterruptKind::ReschedIpi},
    });
    const auto records = KernelTracer().record(timeline);
    ASSERT_EQ(records.size(), 2u);
    EXPECT_EQ(records[0].kind, sim::InterruptKind::TimerTick);
    EXPECT_EQ(records[1].kind, sim::InterruptKind::ReschedIpi);
}

TEST(KernelTracer, ProfileAggregatesPerInterval)
{
    const auto timeline = makeTimeline({
        // 5 ms of softirq inside the first 100 ms interval.
        {10 * kMsec, 5 * kMsec, sim::InterruptKind::SoftirqNetRx},
        // 2 ms of resched IPI in the second interval.
        {110 * kMsec, 2 * kMsec, sim::InterruptKind::ReschedIpi},
    }, 300 * kMsec);
    const auto records = KernelTracer().record(timeline);
    const auto profile =
        KernelTracer::profile(records, timeline.duration, 100 * kMsec);
    ASSERT_EQ(profile.totalFraction.size(), 3u);
    EXPECT_NEAR(profile.softirqFraction[0], 0.05, 1e-9);
    EXPECT_NEAR(profile.reschedFraction[1], 0.02, 1e-9);
    EXPECT_NEAR(profile.totalFraction[2], 0.0, 1e-9);
}

TEST(KernelTracer, ProfileSplitsSpanningHandlers)
{
    // A handler straddling an interval boundary contributes to both.
    const auto timeline = makeTimeline(
        {{99 * kMsec, 2 * kMsec, sim::InterruptKind::TimerTick}},
        200 * kMsec);
    const auto profile = KernelTracer::profile(
        KernelTracer().record(timeline), timeline.duration, 100 * kMsec);
    EXPECT_NEAR(profile.totalFraction[0], 0.01, 1e-9);
    EXPECT_NEAR(profile.totalFraction[1], 0.01, 1e-9);
}

TEST(KernelTracer, CountByKind)
{
    const auto timeline = makeTimeline({
        {kMsec, kUsec, sim::InterruptKind::TimerTick},
        {2 * kMsec, kUsec, sim::InterruptKind::TimerTick},
        {3 * kMsec, kUsec, sim::InterruptKind::NetworkRx},
    });
    const auto counts =
        KernelTracer::countByKind(KernelTracer().record(timeline));
    EXPECT_EQ(counts[static_cast<int>(sim::InterruptKind::TimerTick)], 2u);
    EXPECT_EQ(counts[static_cast<int>(sim::InterruptKind::NetworkRx)], 1u);
}

TEST(GapDetector, FindsIsolatedGap)
{
    const auto timeline = makeTimeline(
        {{kMsec, 3 * kUsec, sim::InterruptKind::TimerTick}});
    const auto gaps = GapDetector().detect(timeline);
    ASSERT_EQ(gaps.size(), 1u);
    EXPECT_EQ(gaps[0].start, kMsec);
    // Observed jump = stolen duration + one poll cost.
    EXPECT_EQ(gaps[0].length, 3 * kUsec + 30);
}

TEST(GapDetector, MergesBackToBackIntervals)
{
    // Softirq runs immediately after the tick handler: the attacker
    // observes a single merged gap (Figure 6's coupling).
    const auto timeline = makeTimeline({
        {kMsec, 2 * kUsec, sim::InterruptKind::TimerTick},
        {kMsec + 2 * kUsec, 3 * kUsec, sim::InterruptKind::SoftirqNetRx},
    });
    const auto gaps = GapDetector().detect(timeline);
    ASSERT_EQ(gaps.size(), 1u);
    EXPECT_EQ(gaps[0].length, 5 * kUsec + 30);
}

TEST(GapDetector, SeparatedIntervalsStaySeparate)
{
    const auto timeline = makeTimeline({
        {kMsec, 2 * kUsec, sim::InterruptKind::TimerTick},
        {2 * kMsec, 2 * kUsec, sim::InterruptKind::TimerTick},
    });
    const auto gaps = GapDetector().detect(timeline);
    EXPECT_EQ(gaps.size(), 2u);
}

TEST(GapDetector, ThresholdFiltersSmallGaps)
{
    GapDetectorConfig config;
    config.threshold = 10 * kUsec;
    const auto timeline = makeTimeline({
        {kMsec, 2 * kUsec, sim::InterruptKind::TimerTick},
        {2 * kMsec, 20 * kUsec, sim::InterruptKind::NetworkRx},
    });
    const auto gaps = GapDetector(config).detect(timeline);
    ASSERT_EQ(gaps.size(), 1u);
    EXPECT_EQ(gaps[0].start, 2 * kMsec);
}

TEST(Attribution, JoinsGapsWithRecords)
{
    const auto timeline = makeTimeline({
        {kMsec, 3 * kUsec, sim::InterruptKind::ReschedIpi},
        {5 * kMsec, 2 * kUsec, sim::InterruptKind::UntraceableStall},
    });
    const auto gaps = GapDetector().detect(timeline);
    const auto records = KernelTracer().record(timeline);
    const auto attributed = attributeGaps(gaps, records);
    ASSERT_EQ(attributed.size(), 2u);
    EXPECT_TRUE(attributed[0].attributedToInterrupt);
    EXPECT_TRUE(attributed[0]
                    .kinds[static_cast<int>(sim::InterruptKind::ReschedIpi)]);
    // The SMI-like stall produced a gap with no tracer record.
    EXPECT_FALSE(attributed[1].attributedToAny);
}

TEST(Attribution, MergedGapCarriesAllKinds)
{
    const auto timeline = makeTimeline({
        {kMsec, 2 * kUsec, sim::InterruptKind::TimerTick},
        {kMsec + 2 * kUsec, 3 * kUsec, sim::InterruptKind::IrqWork},
    });
    const auto attributed = attributeGaps(
        GapDetector().detect(timeline), KernelTracer().record(timeline));
    ASSERT_EQ(attributed.size(), 1u);
    EXPECT_TRUE(attributed[0]
                    .kinds[static_cast<int>(sim::InterruptKind::TimerTick)]);
    EXPECT_TRUE(
        attributed[0].kinds[static_cast<int>(sim::InterruptKind::IrqWork)]);
}

TEST(Attribution, SummaryCountsCorrectly)
{
    std::vector<AttributedGap> gaps(4);
    gaps[0].attributedToInterrupt = gaps[0].attributedToAny = true;
    gaps[1].attributedToInterrupt = gaps[1].attributedToAny = true;
    gaps[2].attributedToAny = true; // Preemption only.
    const auto report = summarize(gaps);
    EXPECT_EQ(report.totalGaps, 4u);
    EXPECT_DOUBLE_EQ(report.interruptFraction(), 0.5);
    EXPECT_DOUBLE_EQ(report.anyFraction(), 0.75);
}

TEST(Attribution, GapLengthsForKindSelects)
{
    const auto timeline = makeTimeline({
        {kMsec, 4 * kUsec, sim::InterruptKind::NetworkRx},
        {5 * kMsec, 2 * kUsec, sim::InterruptKind::TimerTick},
    });
    const auto attributed = attributeGaps(
        GapDetector().detect(timeline), KernelTracer().record(timeline));
    const auto net_lengths = gapLengthsForKind(
        attributed, sim::InterruptKind::NetworkRx);
    ASSERT_EQ(net_lengths.size(), 1u);
    // The NET_RX hard IRQ raises a softirq that runs right after it, so
    // the observed gap covers both handlers (plus one poll).
    EXPECT_GT(net_lengths[0], 4.0 * kUsec);
}

TEST(Attribution, PaperHeadlineOver99PercentOnRealWorkload)
{
    // Reproduce the Section 5.2 experiment end to end: synthesize a real
    // site load with IRQs pinned away, detect gaps >100 ns, join with
    // the tracer, and check that interrupts explain >99% of them.
    sim::MachineConfig config = sim::MachineConfig::linuxDesktop();
    config.routing = sim::IrqRoutingPolicy::PinnedAway;
    config.pinnedCores = true;
    sim::InterruptSynthesizer synth(config);

    std::size_t total = 0, attributed_count = 0;
    for (int run = 0; run < 5; ++run) {
        Rng rng(900 + run);
        const auto activity = web::realizeWorkload(
            web::nytimesSignature(0), 15 * kSec, 1.0,
            web::RealizationNoise{}, rng);
        Rng synth_rng(950 + run);
        const auto timeline = synth.synthesize(activity, synth_rng);
        const auto report = summarize(attributeGaps(
            GapDetector().detect(timeline),
            KernelTracer().record(timeline)));
        total += report.totalGaps;
        attributed_count += report.attributedToInterrupt;
    }
    ASSERT_GT(total, 1000u);
    const double fraction =
        static_cast<double>(attributed_count) / static_cast<double>(total);
    EXPECT_GT(fraction, 0.99);
    EXPECT_LT(fraction, 1.0); // The untraceable residue exists.
}

} // namespace
} // namespace bigfish::ktrace
