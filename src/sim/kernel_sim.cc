#include "sim/kernel_sim.hh"

#include <algorithm>
#include <cmath>
#include <vector>

#include "base/logging.hh"

namespace bigfish::sim {

namespace {

/** One raw event before kernel processing. */
struct RawEvent
{
    TimeNs at = 0;
    enum class Type
    {
        DeviceIrq,  ///< Hard IRQ delivered to `core`.
        Tick,       ///< Scheduler tick on `core`.
        ReschedIpi, ///< Wakeup IPI targeting `core`.
        TlbFlush,   ///< Broadcast shootdown (reaches every core).
        Stall,      ///< SMI-like stall on `core`.
        Preempt,    ///< Scheduler gives `core` to a victim thread.
    } type = Type::Tick;
    InterruptKind irq = InterruptKind::NetworkRx;
    CoreId core = 0;
    double work = 1.0; ///< Work scale (softirq backlog, timeslice...).
    /** Global emission index: the deterministic tie-break for events
     *  that land on the same nanosecond. */
    long long seq = 0;
};

/**
 * Orders events by time, breaking ties by emission order. `seq` is
 * unique, so this is a total order and the sorted stream does not
 * depend on the standard library's sort.
 */
bool
byTimeSeq(const RawEvent &a, const RawEvent &b)
{
    if (a.at != b.at)
        return a.at < b.at;
    return a.seq < b.seq;
}

} // namespace

KernelSim::KernelSim(MachineConfig config) : config_(std::move(config))
{
    fatalIf(config_.numCores < 2,
            "KernelSim needs at least two cores (attacker + victim)");
    fatalIf(config_.attackerCore < 0 ||
                config_.attackerCore >= config_.numCores,
            "attacker core out of range");
}

RunTimeline
KernelSim::run(const ActivityTimeline &activity, Rng &rng,
               PerfCounters *perf) const
{
    RunTimeline timeline;
    timeline.duration = activity.duration();
    timeline.activityInterval = activity.interval();
    timeline.iterCostFactor.resize(activity.numIntervals(), 1.0);
    timeline.occupancy.resize(activity.numIntervals(), 0.0);

    const CoreId attacker = config_.attackerCore;
    const int cores = config_.numCores;

    // ---- Background noise overlay (same model as the synthesizer). ----
    ActivityTimeline noisy(activity.duration(), activity.interval());
    noisy.superimpose(activity);
    const double duration_s = static_cast<double>(activity.duration()) /
                              static_cast<double>(kSec);
    const int hk_bursts =
        rng.poisson(config_.os.housekeepingBurstRate * duration_s);
    for (int b = 0; b < hk_bursts; ++b) {
        const TimeNs start = static_cast<TimeNs>(
            rng.uniform() * static_cast<double>(activity.duration()));
        const TimeNs len = static_cast<TimeNs>(std::clamp(
            rng.lognormal(150.0 * kMsec, 0.7),
            static_cast<double>(30 * kMsec),
            static_cast<double>(800 * kMsec)));
        const double intensity =
            config_.os.housekeepingIntensity * rng.uniform(0.5, 1.6);
        ActivitySample hk;
        hk.softirqWork = 0.6 * intensity;
        hk.reschedRate = 250.0 * intensity;
        hk.tlbRate = 80.0 * intensity;
        hk.cpuLoad = 0.45 * intensity;
        noisy.addSpan(start, len, hk);
    }
    noisy.clampPhysical();

    // ---- Phase 1: generate raw events, then sort them once. -----------
    long long seq = 0;
    std::vector<RawEvent> events;
    int round_robin = 0;
    auto route = [&]() -> CoreId {
        switch (config_.routing) {
          case IrqRoutingPolicy::Spread:
            return round_robin++ % cores;
          case IrqRoutingPolicy::PinnedAway:
            return 0; // irqbalance binds all movable IRQs to core 0.
        }
        return 0;
    };

    // Per-core scheduler ticks with distinct phases.
    const TimeNs tick_period = config_.tickPeriod();
    for (CoreId c = 0; c < cores; ++c) {
        const TimeNs phase = static_cast<TimeNs>(
            rng.uniform() * static_cast<double>(tick_period));
        for (TimeNs t = phase; t < activity.duration(); t += tick_period) {
            RawEvent e;
            e.at = t;
            e.type = RawEvent::Type::Tick;
            e.core = c;
            e.seq = seq++;
            events.push_back(e);
        }
    }

    for (std::size_t step = 0; step < noisy.numIntervals(); ++step) {
        const ActivitySample &sample = noisy.at(step);
        const TimeNs lo = static_cast<TimeNs>(step) * noisy.interval();
        const TimeNs hi =
            std::min(lo + noisy.interval(), noisy.duration());
        const double dt =
            static_cast<double>(hi - lo) / static_cast<double>(kSec);
        auto at_uniform = [&]() {
            return lo + static_cast<TimeNs>(
                            rng.uniform() *
                            static_cast<double>(hi - lo));
        };

        // System-wide device IRQs: the full victim rate, each routed to
        // a concrete core. (The synthesizer instead thins the rate by
        // the attacker's routing share.)
        struct DeviceRate
        {
            InterruptKind kind;
            double rate;
        };
        const DeviceRate devices[] = {
            {InterruptKind::NetworkRx, sample.netRxRate},
            {InterruptKind::Graphics, sample.gfxRate},
            {InterruptKind::Disk, sample.diskRate},
            {InterruptKind::Usb, config_.os.backgroundIrqRate},
        };
        for (const auto &device : devices) {
            const int n = rng.poisson(device.rate * dt);
            for (int i = 0; i < n; ++i) {
                RawEvent e;
                e.at = at_uniform();
                e.type = RawEvent::Type::DeviceIrq;
                e.irq = device.kind;
                e.core = route();
                e.work = 0.6 + sample.softirqWork;
                e.seq = seq++;
                events.push_back(e);
            }
        }

        // Wakeup IPIs targeting the attacker's core (per-core rate, as
        // in the synthesizer) and broadcast TLB shootdowns.
        const double resched_rate =
            sample.reschedRate +
            config_.os.backgroundReschedRate / cores;
        const int ipis = rng.poisson(resched_rate * dt);
        for (int i = 0; i < ipis; ++i) {
            RawEvent e;
            e.at = at_uniform();
            e.type = RawEvent::Type::ReschedIpi;
            e.core = attacker;
            e.seq = seq++;
            events.push_back(e);
        }
        const int flushes = rng.poisson(sample.tlbRate * dt);
        for (int i = 0; i < flushes; ++i) {
            RawEvent e;
            e.at = at_uniform();
            e.type = RawEvent::Type::TlbFlush;
            e.seq = seq++;
            events.push_back(e);
        }
        const int stalls =
            rng.poisson(config_.os.untraceableStallRate * dt);
        for (int i = 0; i < stalls; ++i) {
            RawEvent e;
            e.at = at_uniform();
            e.type = RawEvent::Type::Stall;
            e.core = attacker;
            e.seq = seq++;
            events.push_back(e);
        }
        if (!config_.pinnedCores && sample.cpuLoad > 0.0) {
            const double share =
                std::min(1.0, sample.cpuLoad / cores);
            const int n = rng.poisson(1.2 * share * dt);
            for (int i = 0; i < n; ++i) {
                RawEvent e;
                e.at = at_uniform();
                e.type = RawEvent::Type::Preempt;
                e.core = attacker;
                e.seq = seq++;
                events.push_back(e);
            }
        }

        // Machine state (same DVFS model as the synthesizer; the walk
        // is re-derived below so both models share the formula).
        timeline.occupancy[step] = std::clamp(
            sample.cacheOccupancy * rng.lognormal(1.0, 0.6) +
                rng.uniform(0.0, 0.05),
            0.0, 1.0);
    }

    // DVFS factor with the turbo random walk.
    double walk = rng.normal(0.0, config_.frequencyWalkSigma);
    const double walk_a = std::exp(
        -static_cast<double>(activity.interval()) /
        static_cast<double>(std::max<TimeNs>(config_.frequencyWalkTau, 1)));
    const double walk_noise =
        config_.frequencyWalkSigma * std::sqrt(1.0 - walk_a * walk_a);
    for (std::size_t step = 0; step < noisy.numIntervals(); ++step) {
        double factor = 1.0;
        if (config_.frequencyScaling) {
            const double load =
                std::min(1.0, noisy.at(step).cpuLoad / cores);
            walk = walk_a * walk + rng.normal(0.0, walk_noise);
            factor = 1.0 + config_.frequencyLoadDip * load + walk +
                     rng.normal(0.0, 0.006);
        }
        timeline.iterCostFactor[step] = std::max(0.5, factor);
    }

    std::sort(events.begin(), events.end(), byTimeSeq);
    if (perf) {
        perf->bytesSorted +=
            static_cast<long long>(events.size() * sizeof(RawEvent));
    }

    // ---- Phase 2: kernel processing. ----------------------------------
    // Pending deferred softirq batches queued to the attacker's core.
    double pending_batches = 0.0;
    auto &out = timeline.stolen;

    auto emit = [&](TimeNs at, InterruptKind kind, double work) {
        StolenInterval s;
        s.arrival = at;
        s.kind = kind;
        s.duration = static_cast<TimeNs>(
            static_cast<double>(
                config_.handlerCosts.sample(kind, rng, config_.vmIsolation,
                                        work)) *
            config_.os.handlerScale);
        out.push_back(s);
        return s.end();
    };

    for (const RawEvent &e : events) {
        switch (e.type) {
          case RawEvent::Type::DeviceIrq: {
            const bool here = e.core == attacker;
            if (here) {
                const TimeNs end = emit(e.at, e.irq, e.work);
                if (e.irq == InterruptKind::NetworkRx)
                    emit(end, InterruptKind::SoftirqNetRx, e.work);
            }
            // NET_RX processing raises deferred backlog; ksoftirqd may
            // queue the batch onto the attacker's core no matter where
            // the IRQ ran (non-movable leakage, Takeaway 5). The 0.06
            // batch weight calibrates the mechanistic path to the
            // synthesizer's statistical storm rate (~0.1 storms per
            // victim packet times the softirq share).
            if (e.irq == InterruptKind::NetworkRx &&
                rng.bernoulli(config_.os.softirqShare)) {
                pending_batches += 0.06 * e.work;
            }
            break;
          }
          case RawEvent::Type::Tick: {
            if (e.core != attacker)
                break;
            const ActivitySample &sample = noisy.sampleAt(e.at);
            const double work = 1.0 + 0.5 * sample.softirqWork;
            TimeNs end = emit(e.at, InterruptKind::TimerTick, work);
            if (rng.bernoulli(
                    std::min(0.6, 0.08 + 0.4 * sample.softirqWork))) {
                end = emit(end, InterruptKind::SoftirqTimer,
                           1.0 + sample.softirqWork);
            }
            if (rng.bernoulli(
                    std::min(0.3, 0.02 + 0.15 * sample.softirqWork))) {
                end = emit(end, InterruptKind::IrqWork, 1.0);
            }
            // Drain pending deferred work as a storm train.
            if (pending_batches >= 1.0) {
                const int train =
                    1 + rng.poisson(22.0 * (0.7 + sample.softirqWork));
                TimeNs at = end;
                for (int k = 0;
                     k < train && at < timeline.duration; ++k) {
                    at = emit(at, InterruptKind::SoftirqNetRx,
                              rng.uniform(0.8, 1.6));
                    at += static_cast<TimeNs>(
                        rng.exponential(12.0 * kUsec));
                }
                pending_batches -= 1.0;
            }
            break;
          }
          case RawEvent::Type::ReschedIpi:
            emit(e.at, InterruptKind::ReschedIpi, 1.0);
            break;
          case RawEvent::Type::TlbFlush:
            emit(e.at, InterruptKind::TlbShootdown, 1.0);
            break;
          case RawEvent::Type::Stall:
            emit(e.at, InterruptKind::UntraceableStall, 1.0);
            break;
          case RawEvent::Type::Preempt: {
            StolenInterval s;
            s.arrival = e.at;
            s.kind = InterruptKind::Preemption;
            s.duration = static_cast<TimeNs>(std::min(
                rng.lognormal(250.0 * kUsec, 0.8),
                static_cast<double>(config_.timesliceNs)));
            out.push_back(s);
            break;
          }
        }
    }

    if (perf) {
        perf->eventsSimulated += static_cast<long long>(
            out.size() + noisy.numIntervals());
        for (const StolenInterval &s : out) {
            if (isInterrupt(s.kind))
                ++perf->interruptsSynthesized;
        }
    }

    normalizeTimeline(out, timeline.duration, perf);
    return timeline;
}

} // namespace bigfish::sim
