/**
 * @file
 * Unit and property tests for the machine simulator: interrupt taxonomy,
 * handler-cost model, activity timelines, the synthesizer's routing
 * semantics (Table 3's isolation knobs), and the closed-form execution
 * engine — including equivalence against a brute-force iteration-by-
 * iteration reference interpreter.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <string>

#include "attack/attacker.hh"
#include "base/hash.hh"
#include "sim/activity.hh"
#include "sim/engine.hh"
#include "sim/interrupt.hh"
#include "sim/kernel_sim.hh"
#include "sim/machine.hh"
#include "sim/run_timeline.hh"
#include "sim/synthesizer.hh"
#include "stats/descriptive.hh"
#include "timers/timer.hh"

namespace bigfish::sim {
namespace {

TEST(InterruptKinds, MovabilityMatchesPaper)
{
    // Device IRQs are movable.
    EXPECT_TRUE(isMovable(InterruptKind::NetworkRx));
    EXPECT_TRUE(isMovable(InterruptKind::Graphics));
    EXPECT_TRUE(isMovable(InterruptKind::Disk));
    EXPECT_TRUE(isMovable(InterruptKind::Usb));
    // Ticks, softirqs, IPIs are non-movable (Takeaway 5).
    EXPECT_FALSE(isMovable(InterruptKind::TimerTick));
    EXPECT_FALSE(isMovable(InterruptKind::SoftirqNetRx));
    EXPECT_FALSE(isMovable(InterruptKind::SoftirqTimer));
    EXPECT_FALSE(isMovable(InterruptKind::IrqWork));
    EXPECT_FALSE(isMovable(InterruptKind::ReschedIpi));
    EXPECT_FALSE(isMovable(InterruptKind::TlbShootdown));
}

TEST(InterruptKinds, InterruptVsOtherStalls)
{
    EXPECT_TRUE(isInterrupt(InterruptKind::TimerTick));
    EXPECT_TRUE(isInterrupt(InterruptKind::SpuriousNoise));
    EXPECT_FALSE(isInterrupt(InterruptKind::Preemption));
    EXPECT_FALSE(isInterrupt(InterruptKind::UntraceableStall));
}

TEST(InterruptKinds, TraceabilityExcludesSmiStalls)
{
    EXPECT_TRUE(isTraceable(InterruptKind::TimerTick));
    EXPECT_TRUE(isTraceable(InterruptKind::Preemption));
    EXPECT_FALSE(isTraceable(InterruptKind::UntraceableStall));
}

TEST(InterruptKinds, NamesAreDistinct)
{
    std::set<std::string> names;
    for (int k = 0; k < kNumInterruptKinds; ++k)
        names.insert(interruptKindName(static_cast<InterruptKind>(k)));
    EXPECT_EQ(names.size(), static_cast<std::size_t>(kNumInterruptKinds));
}

TEST(HandlerCostModel, GapsExceedContextSwitchFloor)
{
    // Figure 6: all interrupt gaps exceed ~1.5 us due to kernel-entry
    // overhead from Meltdown-era mitigations.
    HandlerCostModel model;
    Rng rng(1);
    for (int i = 0; i < 2000; ++i) {
        const TimeNs cost =
            model.sample(InterruptKind::ReschedIpi, rng, false);
        EXPECT_GT(cost, model.contextSwitchNs);
    }
}

TEST(HandlerCostModel, VmIsolationAmplifiesCosts)
{
    HandlerCostModel model;
    Rng r1(5), r2(5);
    double native = 0.0, vm = 0.0;
    for (int i = 0; i < 3000; ++i) {
        native += static_cast<double>(
            model.sample(InterruptKind::NetworkRx, r1, false));
        vm += static_cast<double>(
            model.sample(InterruptKind::NetworkRx, r2, true));
    }
    // Host + guest double handling substantially amplifies stolen time.
    EXPECT_GT(vm, native * 1.4);
}

TEST(HandlerCostModel, WorkScaleScalesBody)
{
    HandlerCostModel model;
    Rng r1(6), r2(6);
    double light = 0.0, heavy = 0.0;
    for (int i = 0; i < 3000; ++i) {
        light += static_cast<double>(
            model.sample(InterruptKind::SoftirqNetRx, r1, false, 1.0));
        heavy += static_cast<double>(
            model.sample(InterruptKind::SoftirqNetRx, r2, false, 2.0));
    }
    EXPECT_GT(heavy, light * 1.3);
}

TEST(HandlerCostModel, KindsHaveCharacteristicMedians)
{
    // Figure 6 / Takeaway 6: distinct kinds have distinct distributions.
    HandlerCostModel model;
    EXPECT_NE(model.params(InterruptKind::TimerTick).median,
              model.params(InterruptKind::IrqWork).median);
    EXPECT_GT(model.params(InterruptKind::IrqWork).median,
              model.params(InterruptKind::ReschedIpi).median);
}

TEST(NormalizeTimeline, SortsAndSerializesOverlaps)
{
    std::vector<StolenInterval> stolen = {
        {100, 50, InterruptKind::TimerTick},
        {50, 100, InterruptKind::NetworkRx}, // Overlaps the first.
        {500, 10, InterruptKind::ReschedIpi},
    };
    normalizeTimeline(stolen, kMsec);
    ASSERT_EQ(stolen.size(), 3u);
    EXPECT_EQ(stolen[0].arrival, 50);
    EXPECT_EQ(stolen[1].arrival, 150); // Queued behind the first handler.
    EXPECT_EQ(stolen[2].arrival, 500);
    for (std::size_t i = 1; i < stolen.size(); ++i)
        EXPECT_GE(stolen[i].arrival, stolen[i - 1].end());
}

TEST(NormalizeTimeline, ClipsSerializedHandlersToTheRunEnd)
{
    // Serialization queues the second handler to 950..1050: it straddles
    // the 1000 ns run end and is cut there; the third, queued to 1050,
    // starts after the run and is dropped.
    std::vector<StolenInterval> stolen = {
        {900, 50, InterruptKind::TimerTick},
        {920, 100, InterruptKind::NetworkRx},
        {930, 40, InterruptKind::ReschedIpi},
    };
    normalizeTimeline(stolen, 1000);
    ASSERT_EQ(stolen.size(), 2u);
    EXPECT_EQ(stolen[1].arrival, 950);
    EXPECT_EQ(stolen[1].duration, 50);
    EXPECT_EQ(stolen[1].end(), 1000);
}

/** Field-wise equality; StolenInterval deliberately has no operator==. */
bool
sameIntervals(const std::vector<StolenInterval> &a,
              const std::vector<StolenInterval> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i) {
        if (a[i].arrival != b[i].arrival || a[i].duration != b[i].duration ||
            a[i].kind != b[i].kind)
            return false;
    }
    return true;
}

/** A run end past every interval tieHeavyStream() draws (up to 600
 *  groups), so normalization never clips those streams. */
constexpr TimeNs kTieStreamEnd = 10 * kSec;

/** A stream where most arrivals collide: every tick lands piggybacked
 *  softirq/IRQ-work entries at exactly the same nanosecond, the
 *  real-world tie source (emitTicks emits both at tick.end()). */
std::vector<StolenInterval>
tieHeavyStream(std::size_t groups, std::size_t per_group,
               std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<StolenInterval> stolen;
    stolen.reserve(groups * per_group);
    const InterruptKind kinds[] = {
        InterruptKind::TimerTick, InterruptKind::SoftirqTimer,
        InterruptKind::IrqWork, InterruptKind::ReschedIpi,
    };
    for (std::size_t g = 0; g < groups; ++g) {
        // Unsorted group starts so both merge paths see ties.
        const TimeNs at = static_cast<TimeNs>(
            rng.uniform() * 1e6 * static_cast<double>(groups));
        for (std::size_t i = 0; i < per_group; ++i) {
            StolenInterval s;
            s.arrival = at; // Every entry in the group ties.
            s.duration = 100 + static_cast<TimeNs>(rng.uniform() * 900.0);
            s.kind = kinds[i % (sizeof(kinds) / sizeof(kinds[0]))];
            stolen.push_back(s);
        }
    }
    return stolen;
}

TEST(NormalizeTimeline, TieHeavyStreamsNormalizeDeterministically)
{
    // byArrival compares with strict `<` — a valid strict weak ordering
    // that treats tied arrivals as equivalent. What order equivalent
    // elements end up in is the library sort's business in the bucket
    // fallback; this property pins the part we rely on: for a fixed
    // input the result is reproducible call over call, sorted, and
    // loses no events. Exercises both the short-tail merge (small
    // stream) and the bucket sort (large stream).
    for (const std::size_t groups : {8u, 600u}) {
        const auto original = tieHeavyStream(groups, 6, 2022);
        auto first = original;
        normalizeTimeline(first, kTieStreamEnd);
        auto second = original;
        normalizeTimeline(second, kTieStreamEnd);
        EXPECT_TRUE(sameIntervals(first, second)) << groups << " groups";
        ASSERT_EQ(first.size(), original.size());
        TimeNs busy = 0;
        for (const StolenInterval &s : first) {
            EXPECT_GE(s.arrival, busy); // Sorted and serialized.
            busy = s.end();
        }
        // Same work, just reordered: durations survive as a multiset.
        std::multiset<TimeNs> want, got;
        for (const StolenInterval &s : original)
            want.insert(s.duration);
        for (const StolenInterval &s : first)
            got.insert(s.duration);
        EXPECT_EQ(want, got);
    }
}

TEST(NormalizeTimeline, TiedTailEntriesStayBehindTiedPrefixEntries)
{
    // The short-tail merge path must be *stable*: entries appended
    // after an already-normalized prefix (browser stalls, injected
    // faults) that tie with a prefix arrival go after the prefix
    // entry, matching the std::inplace_merge contract the explicit
    // tail merge replaced.
    std::vector<StolenInterval> stolen;
    for (int i = 0; i < 40; ++i) {
        StolenInterval s;
        s.arrival = 1000 * (i + 1);
        s.duration = 10;
        s.kind = InterruptKind::TimerTick; // Marks "prefix".
        stolen.push_back(s);
    }
    for (int i = 0; i < 10; ++i) {
        StolenInterval s;
        s.arrival = 1000 * (4 * i + 1); // Ties an existing prefix arrival.
        s.duration = 10;
        s.kind = InterruptKind::NetworkRx; // Marks "appended tail".
        stolen.push_back(s);
    }
    normalizeTimeline(stolen, kMsec);
    ASSERT_EQ(stolen.size(), 50u);
    // Wherever a tail entry landed, the prefix entry it tied with must
    // be directly before it (serialization preserves vector order).
    for (std::size_t i = 0; i < stolen.size(); ++i) {
        if (stolen[i].kind == InterruptKind::NetworkRx) {
            ASSERT_GT(i, 0u);
            EXPECT_EQ(stolen[i - 1].kind, InterruptKind::TimerTick)
                << "tail entry overtook its tied prefix entry at " << i;
        }
    }
}

TEST(NormalizeTimeline, CounterOverloadIsBitIdenticalToPlainCall)
{
    // The PerfCounters* overload must never change results — counters
    // observe the work, they don't participate in it.
    for (const std::size_t groups : {8u, 600u}) {
        auto plain = tieHeavyStream(groups, 6, 7);
        auto counted = plain;
        normalizeTimeline(plain, kTieStreamEnd);
        PerfCounters perf;
        normalizeTimeline(counted, kTieStreamEnd, &perf);
        EXPECT_TRUE(sameIntervals(plain, counted)) << groups << " groups";
        EXPECT_GT(perf.bytesSorted, 0);
    }
}

TEST(ActivityTimeline, IndexingAndClamping)
{
    ActivityTimeline timeline(100 * kMsec, 10 * kMsec);
    EXPECT_EQ(timeline.numIntervals(), 10u);
    EXPECT_EQ(timeline.indexAt(0), 0u);
    EXPECT_EQ(timeline.indexAt(95 * kMsec), 9u);
    EXPECT_EQ(timeline.indexAt(500 * kMsec), 9u); // Clamped.
    EXPECT_EQ(timeline.indexAt(-5), 0u);
}

TEST(ActivityTimeline, AddSpanDepositsWeightedContribution)
{
    ActivityTimeline timeline(100 * kMsec, 10 * kMsec);
    ActivitySample s;
    s.netRxRate = 100.0;
    // Span covers half of interval 0 and all of interval 1.
    timeline.addSpan(5 * kMsec, 15 * kMsec, s);
    EXPECT_NEAR(timeline.at(0).netRxRate, 50.0, 1e-9);
    EXPECT_NEAR(timeline.at(1).netRxRate, 100.0, 1e-9);
    EXPECT_NEAR(timeline.at(2).netRxRate, 0.0, 1e-9);
}

TEST(ActivityTimeline, AddSpanClipsToDuration)
{
    ActivityTimeline timeline(50 * kMsec, 10 * kMsec);
    ActivitySample s;
    s.cpuLoad = 1.0;
    timeline.addSpan(40 * kMsec, 100 * kMsec, s); // Extends past the end.
    EXPECT_NEAR(timeline.at(4).cpuLoad, 1.0, 1e-9);
}

TEST(ActivityTimeline, SuperimposeAddsElementwise)
{
    ActivityTimeline a(40 * kMsec, 10 * kMsec);
    ActivityTimeline b(40 * kMsec, 10 * kMsec);
    ActivitySample s;
    s.reschedRate = 5.0;
    a.addSpan(0, 40 * kMsec, s);
    b.addSpan(0, 40 * kMsec, s);
    a.superimpose(b);
    EXPECT_NEAR(a.at(2).reschedRate, 10.0, 1e-9);
}

TEST(ActivityTimeline, ClampPhysicalBoundsOccupancy)
{
    ActivityTimeline timeline(20 * kMsec, 10 * kMsec);
    ActivitySample s;
    s.cacheOccupancy = 3.0;
    s.netRxRate = -5.0;
    timeline.addSpan(0, 20 * kMsec, s);
    timeline.clampPhysical();
    EXPECT_LE(timeline.at(0).cacheOccupancy, 1.0);
    EXPECT_GE(timeline.at(0).netRxRate, 0.0);
}

TEST(OsProfiles, PresetsDiffer)
{
    const auto linux_os = OsProfile::linux();
    const auto windows_os = OsProfile::windows();
    const auto macos_os = OsProfile::macos();
    EXPECT_LT(linux_os.backgroundIrqRate, windows_os.backgroundIrqRate);
    EXPECT_NE(linux_os.tickHz, windows_os.tickHz);
    EXPECT_NE(macos_os.name, linux_os.name);
}

TEST(MachineConfig, LlcGeometry)
{
    const auto config = MachineConfig::linuxDesktop();
    EXPECT_EQ(config.llcLines(), 8LL * 1024 * 1024 / 64);
    EXPECT_EQ(config.tickPeriod(), kSec / config.os.tickHz);
}

/** A quiet 1-second activity timeline. */
ActivityTimeline
idleActivity(TimeNs duration = kSec)
{
    return ActivityTimeline(duration);
}

/** A 1-second timeline with a busy network phase in the middle. */
ActivityTimeline
busyActivity(TimeNs duration = kSec)
{
    ActivityTimeline activity(duration);
    ActivitySample s;
    s.netRxRate = 800.0;
    s.softirqWork = 1.0;
    s.reschedRate = 100.0;
    s.tlbRate = 50.0;
    s.cpuLoad = 2.0;
    s.cacheOccupancy = 0.5;
    activity.addSpan(duration / 4, duration / 2, s);
    return activity;
}

TEST(Synthesizer, ProducesSortedNonOverlappingTimeline)
{
    InterruptSynthesizer synth(MachineConfig::linuxDesktop());
    Rng rng(17);
    const RunTimeline timeline = synth.synthesize(busyActivity(), rng);
    ASSERT_FALSE(timeline.stolen.empty());
    for (std::size_t i = 1; i < timeline.stolen.size(); ++i)
        EXPECT_GE(timeline.stolen[i].arrival, timeline.stolen[i - 1].end());
    EXPECT_LE(timeline.stolen.back().end(), timeline.duration);
    EXPECT_GE(timeline.stolen.front().arrival, 0);
}

TEST(Synthesizer, TimerTicksAlwaysPresent)
{
    InterruptSynthesizer synth(MachineConfig::linuxDesktop());
    Rng rng(18);
    const RunTimeline timeline = synth.synthesize(idleActivity(), rng);
    std::size_t ticks = 0;
    for (const auto &s : timeline.stolen)
        if (s.kind == InterruptKind::TimerTick)
            ++ticks;
    // 250 Hz for 1 second, minus edge effects.
    EXPECT_NEAR(static_cast<double>(ticks), 250.0, 15.0);
}

TEST(Synthesizer, BusyVictimStealsMoreTime)
{
    InterruptSynthesizer synth(MachineConfig::linuxDesktop());
    Rng r1(19), r2(19);
    const auto idle = synth.synthesize(idleActivity(), r1);
    const auto busy = synth.synthesize(busyActivity(), r2);
    EXPECT_GT(busy.totalStolenAll(), idle.totalStolenAll());
}

TEST(Synthesizer, IrqPinningRemovesMovableOnly)
{
    MachineConfig pinned = MachineConfig::linuxDesktop();
    pinned.routing = IrqRoutingPolicy::PinnedAway;
    InterruptSynthesizer synth(pinned);
    Rng rng(20);
    const auto timeline = synth.synthesize(busyActivity(), rng);
    std::size_t movable = 0, non_movable = 0;
    for (const auto &s : timeline.stolen) {
        if (isMovable(s.kind))
            ++movable;
        else if (isInterrupt(s.kind))
            ++non_movable;
    }
    EXPECT_EQ(movable, 0u);
    // Softirqs, IPIs and ticks still leak (the paper's key finding).
    EXPECT_GT(non_movable, 100u);
}

TEST(Synthesizer, SoftirqLeakageSurvivesIrqPinning)
{
    MachineConfig pinned = MachineConfig::linuxDesktop();
    pinned.routing = IrqRoutingPolicy::PinnedAway;
    InterruptSynthesizer synth(pinned);
    Rng r1(21), r2(22);
    const auto idle = synth.synthesize(idleActivity(), r1);
    const auto busy = synth.synthesize(busyActivity(), r2);
    auto softirq_time = [](const RunTimeline &t) {
        return t.totalStolen([](const StolenInterval &s) {
            return s.kind == InterruptKind::SoftirqNetRx ||
                   s.kind == InterruptKind::SoftirqTimer;
        });
    };
    // Victim network work raises softirq time on the attacker core even
    // though every device IRQ is pinned away.
    EXPECT_GT(softirq_time(busy), softirq_time(idle) * 2);
}

TEST(Synthesizer, PinnedCoresRemovePreemptions)
{
    MachineConfig config = MachineConfig::linuxDesktop();
    config.pinnedCores = true;
    InterruptSynthesizer synth(config);
    Rng rng(23);
    const auto timeline = synth.synthesize(busyActivity(), rng);
    for (const auto &s : timeline.stolen)
        EXPECT_NE(s.kind, InterruptKind::Preemption);
}

TEST(Synthesizer, UnpinnedBusyVictimCausesPreemptions)
{
    MachineConfig config = MachineConfig::linuxDesktop();
    config.pinnedCores = false;
    InterruptSynthesizer synth(config);
    std::size_t preemptions = 0;
    for (int run = 0; run < 10; ++run) {
        Rng rng(100 + run);
        const auto timeline = synth.synthesize(busyActivity(), rng);
        for (const auto &s : timeline.stolen)
            if (s.kind == InterruptKind::Preemption)
                ++preemptions;
    }
    EXPECT_GT(preemptions, 0u);
}

TEST(Synthesizer, FrequencyScalingTracksLoad)
{
    MachineConfig config = MachineConfig::linuxDesktop();
    config.frequencyScaling = true;
    InterruptSynthesizer synth(config);
    Rng rng(24);
    const auto timeline = synth.synthesize(busyActivity(), rng);
    // The busy middle section runs the attacker slower than the idle
    // edges (higher iteration-cost factor).
    const double edge = timeline.iterCostFactor.front();
    const double middle =
        timeline.iterCostFactor[timeline.iterCostFactor.size() / 2];
    EXPECT_GT(middle, edge);
}

TEST(Synthesizer, DisabledFrequencyScalingIsFlat)
{
    MachineConfig config = MachineConfig::linuxDesktop();
    config.frequencyScaling = false;
    InterruptSynthesizer synth(config);
    Rng rng(25);
    const auto timeline = synth.synthesize(busyActivity(), rng);
    for (double f : timeline.iterCostFactor)
        EXPECT_DOUBLE_EQ(f, 1.0);
}

TEST(Synthesizer, VmIsolationIncreasesStolenTime)
{
    MachineConfig native = MachineConfig::linuxDesktop();
    MachineConfig vm = native;
    vm.vmIsolation = true;
    Rng r1(26), r2(26);
    const auto t_native =
        InterruptSynthesizer(native).synthesize(busyActivity(), r1);
    const auto t_vm = InterruptSynthesizer(vm).synthesize(busyActivity(), r2);
    EXPECT_GT(t_vm.totalStolenAll(),
              static_cast<TimeNs>(
        static_cast<double>(t_native.totalStolenAll()) * 1.5));
}

TEST(Synthesizer, OccupancyMirrorsActivity)
{
    InterruptSynthesizer synth(MachineConfig::linuxDesktop());
    Rng rng(29);
    const auto timeline = synth.synthesize(busyActivity(), rng);
    const std::size_t mid = timeline.occupancy.size() / 2;
    EXPECT_GT(timeline.occupancy[mid], 0.3);
    EXPECT_LT(timeline.occupancy.front(), 0.1);
}

TEST(KernelSim, ProducesWellFormedTimeline)
{
    KernelSim kernel(MachineConfig::linuxDesktop());
    Rng rng(31);
    const RunTimeline timeline = kernel.run(busyActivity(), rng);
    ASSERT_FALSE(timeline.stolen.empty());
    for (std::size_t i = 1; i < timeline.stolen.size(); ++i)
        EXPECT_GE(timeline.stolen[i].arrival,
                  timeline.stolen[i - 1].end());
    EXPECT_LE(timeline.stolen.back().end(), timeline.duration);
}

TEST(KernelSim, IrqPinningRemovesMovableFromAttackerCore)
{
    MachineConfig pinned = MachineConfig::linuxDesktop();
    pinned.routing = IrqRoutingPolicy::PinnedAway;
    // Core 0 receives all pinned IRQs, so the attacker must not be 0
    // (default attacker core is 1).
    KernelSim kernel(pinned);
    Rng rng(32);
    const RunTimeline timeline = kernel.run(busyActivity(), rng);
    std::size_t movable = 0, softirq = 0;
    for (const auto &s : timeline.stolen) {
        if (isMovable(s.kind))
            ++movable;
        if (s.kind == InterruptKind::SoftirqNetRx)
            ++softirq;
    }
    EXPECT_EQ(movable, 0u);
    // The ksoftirqd migration path still delivers deferred work.
    EXPECT_GT(softirq, 0u);
}

TEST(KernelSim, SpreadRoutingDeliversRoughlyOneNthOfIrqs)
{
    // Mechanistic check of the synthesizer's 1/numCores thinning: with
    // round-robin routing over 4 cores the attacker should see about a
    // quarter of the system-wide device IRQs.
    MachineConfig config = MachineConfig::linuxDesktop();
    KernelSim kernel(config);
    ActivityTimeline activity(2 * kSec);
    ActivitySample s;
    s.gfxRate = 1000.0; // Pure movable stream, no softirq coupling.
    activity.addSpan(0, 2 * kSec, s);
    Rng rng(33);
    const RunTimeline timeline = kernel.run(activity, rng);
    std::size_t gfx = 0;
    for (const auto &e : timeline.stolen)
        if (e.kind == InterruptKind::Graphics)
            ++gfx;
    // 2000 expected system-wide; ~500 on the attacker's core.
    EXPECT_NEAR(static_cast<double>(gfx), 500.0, 90.0);
}

TEST(KernelSim, CrossValidatesAgainstSynthesizer)
{
    // The event-driven kernel and the statistical synthesizer must
    // agree on the aggregate: total interrupt time stolen from the
    // attacker's core for the same workload, within a loose band.
    const MachineConfig config = MachineConfig::linuxDesktop();
    KernelSim kernel(config);
    InterruptSynthesizer synth(config);

    double kernel_total = 0.0, synth_total = 0.0;
    const int runs = 8;
    for (int run = 0; run < runs; ++run) {
        Rng r1(500 + run), r2(800 + run);
        const auto a = busyActivity(2 * kSec);
        const auto t_kernel = kernel.run(a, r1);
        const auto t_synth = synth.synthesize(a, r2);
        auto interrupt_time = [](const RunTimeline &t) {
            return static_cast<double>(t.totalStolen(
                [](const StolenInterval &s) {
                    return isInterrupt(s.kind);
                }));
        };
        kernel_total += interrupt_time(t_kernel);
        synth_total += interrupt_time(t_synth);
    }
    // Same order of magnitude, within 2x either way.
    EXPECT_GT(kernel_total, synth_total * 0.5);
    EXPECT_LT(kernel_total, synth_total * 2.0);
}

TEST(KernelSim, AttackerTracesFromBothModelsLookAlike)
{
    // End-to-end: run the loop attacker over both models' timelines for
    // the same site and compare counter statistics.
    const MachineConfig config = MachineConfig::linuxDesktop();
    KernelSim kernel(config);
    InterruptSynthesizer synth(config);
    Rng w1(41), w2(41), r1(42), r2(43);
    const auto site_activity_a = busyActivity(3 * kSec);
    const auto site_activity_b = busyActivity(3 * kSec);

    bigfish::attack::AttackerParams params;
    timers::PreciseTimer timer_a, timer_b;
    const auto trace_kernel = bigfish::attack::collectTrace(
        bigfish::attack::AttackerKind::LoopCounting, params, config,
        kernel.run(site_activity_a, r1), timer_a, 5 * kMsec)
        .valueOrDie();
    const auto trace_synth = bigfish::attack::collectTrace(
        bigfish::attack::AttackerKind::LoopCounting, params, config,
        synth.synthesize(site_activity_b, r2), timer_b, 5 * kMsec)
        .valueOrDie();

    EXPECT_NEAR(trace_kernel.maxCount(), trace_synth.maxCount(),
                trace_synth.maxCount() * 0.05);
    const double mean_kernel = bigfish::stats::mean(trace_kernel.counts);
    const double mean_synth = bigfish::stats::mean(trace_synth.counts);
    EXPECT_NEAR(mean_kernel, mean_synth, mean_synth * 0.05);
}

TEST(KernelSim, OutputDigestIsPinned)
{
    // The tests above are statistical and would not notice a change in
    // the order phase 2 processes events in (each event draws from the
    // shared rng, so any reordering moves every later draw). This pins
    // the whole output for one machine, seed and activity.
    KernelSim kernel(MachineConfig::linuxDesktop());
    Rng rng(2022);
    const RunTimeline timeline = kernel.run(busyActivity(2 * kSec), rng);
    ASSERT_GT(timeline.stolen.size(), 1000u);
    std::string canon;
    for (const StolenInterval &s : timeline.stolen)
        canon += std::to_string(s.arrival) + ' ' +
                 std::to_string(s.duration) + ' ' +
                 std::to_string(static_cast<int>(s.kind)) + '\n';
    for (double f : timeline.iterCostFactor)
        canon += hexDouble(f) + '\n';
    for (double o : timeline.occupancy)
        canon += hexDouble(o) + '\n';
    EXPECT_EQ(hex16(fnv64(canon)), "3755aa2ae934a1e7");
}

TEST(RunTimeline, StepLookupAndEnds)
{
    RunTimeline timeline;
    timeline.duration = 100 * kMsec;
    timeline.activityInterval = 10 * kMsec;
    timeline.iterCostFactor = std::vector<double>(10, 1.0);
    timeline.iterCostFactor[3] = 2.0;
    timeline.occupancy = std::vector<double>(10, 0.0);
    EXPECT_EQ(timeline.stepAt(35 * kMsec), 3u);
    EXPECT_DOUBLE_EQ(timeline.iterCostFactorAt(35 * kMsec), 2.0);
    EXPECT_EQ(timeline.stepEnd(35 * kMsec), 40 * kMsec);
    EXPECT_EQ(timeline.stepEnd(95 * kMsec), 100 * kMsec);
}

/**
 * Brute-force reference: simulates the attacker loop one iteration at a
 * time (no closed-form shortcuts), each iteration costing
 * @p step_costs of the activity step it starts in. Used to validate
 * ExecutionEngine.
 */
std::vector<std::int64_t>
referenceAttacker(const RunTimeline &timeline, timers::TimerModel &timer,
                  TimeNs period, const std::vector<double> &step_costs)
{
    std::vector<std::int64_t> counts;
    double t = 0.0;
    std::size_t idx = 0;
    const auto &stolen = timeline.stolen;
    const double duration = static_cast<double>(timeline.duration);
    while (t < duration) {
        // Skip any stolen interval already begun.
        while (idx < stolen.size() &&
               static_cast<double>(stolen[idx].arrival) <= t) {
            t = std::max(t, static_cast<double>(stolen[idx].end()));
            ++idx;
        }
        if (t >= duration)
            break;
        const TimeNs begin_obs =
            timer.observe(static_cast<TimeNs>(std::llround(t)));
        std::int64_t counter = 0;
        while (true) {
            // One iteration, charging mid-iteration interrupts.
            double rem =
                step_costs[timeline.stepAt(static_cast<TimeNs>(t))];
            while (idx < stolen.size() &&
                   static_cast<double>(stolen[idx].arrival) <= t + rem) {
                rem -= std::max(
                    0.0, static_cast<double>(stolen[idx].arrival) - t);
                t = static_cast<double>(stolen[idx].end());
                ++idx;
            }
            t += rem;
            ++counter;
            if (timer.observe(static_cast<TimeNs>(std::llround(t))) -
                    begin_obs >=
                period)
                break;
            if (t >= duration)
                break;
        }
        counts.push_back(counter);
    }
    return counts;
}

/** Builds a small timeline with hand-placed interrupts. */
RunTimeline
handTimeline()
{
    RunTimeline timeline;
    timeline.duration = 100 * kMsec;
    timeline.activityInterval = 10 * kMsec;
    timeline.iterCostFactor = std::vector<double>(10, 1.0);
    timeline.occupancy = std::vector<double>(10, 0.0);
    Rng rng(55);
    std::vector<StolenInterval> stolen;
    for (int i = 0; i < 60; ++i) {
        StolenInterval s;
        s.arrival = static_cast<TimeNs>(rng.uniform(0.0, 99.0) * kMsec);
        s.duration = static_cast<TimeNs>(rng.uniform(2.0, 40.0) * kUsec);
        s.kind = InterruptKind::TimerTick;
        stolen.push_back(s);
    }
    normalizeTimeline(stolen, timeline.duration);
    timeline.stolen = std::move(stolen);
    return timeline;
}

/**
 * Replays handTimeline() under timer kind @p timerKind (0 precise, 1
 * quantized, 2 jittered, 3 randomized defense) with the engine and with
 * referenceAttacker, at @p step_costs ns per iteration in each activity
 * step, and expects the same count in every period.
 */
void
expectEngineMatchesReference(int timerKind,
                             const std::vector<double> &step_costs)
{
    const RunTimeline timeline = handTimeline();

    timers::TimerSpec spec;
    switch (timerKind) {
      case 0:
        spec = timers::TimerSpec::precise();
        break;
      case 1:
        spec = timers::TimerSpec::quantized(100 * kUsec);
        break;
      case 2:
        spec = timers::TimerSpec::jittered(100 * kUsec);
        break;
      case 3:
        spec = timers::TimerSpec::randomizedDefense(
            {kMsec, 2, 6, 2, 6, 20 * kMsec});
        break;
    }

    auto timer_engine = spec.make(1234);
    auto timer_ref = spec.make(1234);

    ExecutionEngine engine(timeline, step_costs);
    std::vector<std::int64_t> engine_counts;
    PeriodResult result;
    while (engine.runPeriod(*timer_engine, 5 * kMsec, result))
        engine_counts.push_back(result.iterations);

    const auto ref_counts =
        referenceAttacker(timeline, *timer_ref, 5 * kMsec, step_costs);

    ASSERT_EQ(engine_counts.size(), ref_counts.size());
    for (std::size_t i = 0; i < ref_counts.size(); ++i)
        EXPECT_EQ(engine_counts[i], ref_counts[i]) << "period " << i;
}

class EngineVsReference : public ::testing::TestWithParam<int>
{
};

TEST_P(EngineVsReference, MatchesBruteForceExactly)
{
    expectEngineMatchesReference(GetParam(), std::vector<double>(10, 185.0));
}

TEST_P(EngineVsReference, MatchesBruteForceAtHalfNanosecondCost)
{
    // A 185.5 ns iteration puts every other iteration boundary between
    // interrupts on an exact x.5 ns, so the engine's roundNs meets
    // std::llround's halfway case on every period.
    expectEngineMatchesReference(GetParam(), std::vector<double>(10, 185.5));
}

TEST_P(EngineVsReference, MatchesBruteForceWithPerStepCosts)
{
    // A different cost in every 10 ms activity step: the engine must
    // switch cost, and split its closed-form stretches, exactly at each
    // step boundary its step cursor crosses. Multiples of 0.5 ns keep
    // the reference's running sum exact.
    expectEngineMatchesReference(
        GetParam(), {185.0, 240.5, 150.0, 320.0, 185.5, 199.0, 260.0,
                     170.5, 210.0, 230.0});
}

TEST_P(EngineVsReference, RoundNsMatchesLlroundAtEdges)
{
    // The engine's inline rounding against the libm call it replaced,
    // on the cases a trunc-based or floor(x + 0.5) rounding gets wrong.
    const double kTwo52 = 4503599627370496.0;
    std::vector<double> edges = {
        0.0,        -0.0,        0.5,           -0.5,
        1.5,        -1.5,        2.5,           -2.5,
        1e6 + 0.5,  -1e6 - 0.5,  0.49999999999999994,
        -0.49999999999999994,    std::nextafter(0.5, 1.0),
        std::nextafter(-0.5, -1.0),             kTwo52 - 0.5,
        -(kTwo52 - 0.5),         kTwo52,        kTwo52 + 1.0,
        -(kTwo52 + 1.0),         2.0 * kTwo52 + 2.0,
        9.2e18,     -9.2e18};
    Rng rng(static_cast<std::uint64_t>(GetParam()));
    for (int i = 0; i < 1000; ++i) {
        const double whole = std::floor(rng.uniform(-1e12, 1e12));
        edges.push_back(whole + 0.5);
        edges.push_back(rng.uniform(-1e9, 1e9));
    }
    for (const double x : edges)
        EXPECT_EQ(roundNs(x), std::llround(x)) << std::hexfloat << x;
}

INSTANTIATE_TEST_SUITE_P(Timers, EngineVsReference,
                         ::testing::Range(0, 4));

TEST(ExecutionEngine, IdleThroughputMatchesClosedForm)
{
    RunTimeline timeline;
    timeline.duration = kSec;
    timeline.activityInterval = 10 * kMsec;
    timeline.iterCostFactor = std::vector<double>(100, 1.0);
    timeline.occupancy = std::vector<double>(100, 0.0);

    timers::PreciseTimer timer;
    ExecutionEngine engine(timeline, std::vector<double>(100, 200.0));
    PeriodResult result;
    ASSERT_TRUE(engine.runPeriod(timer, 5 * kMsec, result));
    // 5 ms / 200 ns = 25,000 iterations, exact on an idle machine.
    EXPECT_EQ(result.iterations, 25000);
    EXPECT_EQ(result.wallTime, 5 * kMsec);
}

TEST(ExecutionEngine, InterruptsReduceCounts)
{
    RunTimeline idle;
    idle.duration = 100 * kMsec;
    idle.activityInterval = 10 * kMsec;
    idle.iterCostFactor = std::vector<double>(10, 1.0);
    idle.occupancy = std::vector<double>(10, 0.0);

    RunTimeline busy = idle;
    // One 1 ms handler per 5 ms period.
    for (TimeNs t = 2 * kMsec; t < busy.duration; t += 5 * kMsec)
        busy.stolen.push_back({t, kMsec, InterruptKind::NetworkRx});

    timers::PreciseTimer timer;
    ExecutionEngine idle_engine(idle, std::vector<double>(10, 200.0));
    ExecutionEngine busy_engine(busy, std::vector<double>(10, 200.0));
    PeriodResult r_idle, r_busy;
    ASSERT_TRUE(idle_engine.runPeriod(timer, 5 * kMsec, r_idle));
    ASSERT_TRUE(busy_engine.runPeriod(timer, 5 * kMsec, r_busy));
    // The busy period loses ~1 ms of 5 ms: ~20% fewer iterations.
    EXPECT_NEAR(static_cast<double>(r_busy.iterations),
                static_cast<double>(r_idle.iterations) * 0.8,
                static_cast<double>(r_idle.iterations) * 0.02);
}

TEST(ExecutionEngine, ConsumesWholeRun)
{
    const RunTimeline timeline = handTimeline();
    timers::PreciseTimer timer;
    ExecutionEngine engine(
        timeline, std::vector<double>(timeline.iterCostFactor.size(), 185.0));
    PeriodResult result;
    TimeNs covered = 0;
    while (engine.runPeriod(timer, 5 * kMsec, result))
        covered += result.wallTime;
    EXPECT_TRUE(engine.atEnd());
    // Wall times plus skipped leading stolen time cover the duration.
    EXPECT_GE(covered, timeline.duration * 95 / 100);
    EXPECT_FALSE(engine.runPeriod(timer, 5 * kMsec, result));
}

TEST(ExecutionEngine, RestartReproducesExactly)
{
    const RunTimeline timeline = handTimeline();
    ExecutionEngine engine(
        timeline, std::vector<double>(timeline.iterCostFactor.size(), 185.0));
    timers::PreciseTimer timer;
    std::vector<std::int64_t> first, second;
    PeriodResult result;
    while (engine.runPeriod(timer, 5 * kMsec, result))
        first.push_back(result.iterations);
    engine.restart();
    while (engine.runPeriod(timer, 5 * kMsec, result))
        second.push_back(result.iterations);
    EXPECT_EQ(first, second);
}

TEST(ExecutionEngine, DoWhileSemanticsAlwaysCountsOne)
{
    // With a huge iteration cost, each period still counts >= 1.
    RunTimeline timeline;
    timeline.duration = 100 * kMsec;
    timeline.activityInterval = 10 * kMsec;
    timeline.iterCostFactor = std::vector<double>(10, 1.0);
    timeline.occupancy = std::vector<double>(10, 0.0);
    timers::PreciseTimer timer;
    // 20 ms per iteration with a 5 ms period.
    ExecutionEngine engine(
        timeline, std::vector<double>(10, 20.0 * kMsec));
    PeriodResult result;
    int periods = 0;
    while (engine.runPeriod(timer, 5 * kMsec, result)) {
        EXPECT_EQ(result.iterations, 1);
        ++periods;
    }
    EXPECT_EQ(periods, 5); // 100 ms / 20 ms per (single-iteration) period.
}

TEST(ExecutionEngine, QuantizedTimerStretchesPeriods)
{
    RunTimeline timeline;
    timeline.duration = kSec;
    timeline.activityInterval = 10 * kMsec;
    timeline.iterCostFactor = std::vector<double>(100, 1.0);
    timeline.occupancy = std::vector<double>(100, 0.0);
    timers::QuantizedTimer timer(100 * kMsec);
    ExecutionEngine engine(timeline, std::vector<double>(100, 200.0));
    PeriodResult result;
    std::size_t periods = 0;
    while (engine.runPeriod(timer, 5 * kMsec, result)) {
        ++periods;
        if (engine.atEnd())
            break;
        // Tor-style 100 ms quantization: the 5 ms period cannot end until
        // the observed clock ticks over a 100 ms boundary.
        EXPECT_GE(result.wallTime, 5 * kMsec);
        EXPECT_LE(result.wallTime, 100 * kMsec + kMsec);
    }
    EXPECT_NEAR(static_cast<double>(periods), 10.0, 2.0);
}

} // namespace
} // namespace bigfish::sim
