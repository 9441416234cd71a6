#include "sim/synthesizer.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace bigfish::sim {

InterruptSynthesizer::InterruptSynthesizer(MachineConfig config)
    : config_(std::move(config))
{
    fatalIf(config_.numCores < 2,
            "InterruptSynthesizer needs at least two cores (attacker + "
            "victim)");
}

double
InterruptSynthesizer::movableRouteFraction() const
{
    switch (config_.routing) {
      case IrqRoutingPolicy::Spread:
        return 1.0 / static_cast<double>(config_.numCores);
      case IrqRoutingPolicy::PinnedAway:
        return 0.0;
    }
    return 0.0;
}

void
InterruptSynthesizer::emitPoisson(InterruptKind kind, double expected_count,
                                  TimeNs lo, TimeNs hi, double work_scale,
                                  Rng &rng,
                                  std::vector<StolenInterval> &out) const
{
    if (expected_count <= 0.0 || hi <= lo)
        return;
    const int n = rng.poisson(expected_count);
    for (int i = 0; i < n; ++i) {
        StolenInterval interval;
        interval.arrival =
            lo + static_cast<TimeNs>(rng.uniform() *
                                     static_cast<double>(hi - lo));
        interval.kind = kind;
        interval.duration = static_cast<TimeNs>(
            static_cast<double>(
                config_.handlerCosts.sample(kind, rng, config_.vmIsolation,
                                        work_scale)) *
            config_.os.handlerScale);
        out.push_back(interval);

        // A network RX IRQ taken on this core immediately raises a NET_RX
        // softirq that runs right after the hard handler returns.
        if (kind == InterruptKind::NetworkRx) {
            StolenInterval softirq;
            softirq.arrival = interval.end();
            softirq.kind = InterruptKind::SoftirqNetRx;
            softirq.duration = static_cast<TimeNs>(
                static_cast<double>(
                    config_.handlerCosts.sample(InterruptKind::SoftirqNetRx, rng,
                                            config_.vmIsolation,
                                            work_scale)) *
                config_.os.handlerScale);
            out.push_back(softirq);
        }
    }
}

void
InterruptSynthesizer::emitTicks(const ActivityTimeline &activity, Rng &rng,
                                std::vector<StolenInterval> &out) const
{
    const TimeNs period = config_.tickPeriod();
    for (TimeNs t = period; t < activity.duration(); t += period) {
        const ActivitySample &sample = activity.sampleAt(t);
        StolenInterval tick;
        tick.arrival = t + static_cast<TimeNs>(rng.uniform(0.0, 20.0) *
                                               static_cast<double>(kUsec) /
                                               20.0);
        tick.kind = InterruptKind::TimerTick;
        // The tick handler does more work when deferred work is pending.
        const double work = 1.0 + 0.5 * sample.softirqWork;
        tick.duration = static_cast<TimeNs>(
            static_cast<double>(
                config_.handlerCosts.sample(InterruptKind::TimerTick, rng,
                                        config_.vmIsolation, work)) *
            config_.os.handlerScale);
        out.push_back(tick);

        // Timer softirq processing piggybacks on busy ticks.
        if (rng.bernoulli(std::min(0.6, 0.08 + 0.4 * sample.softirqWork))) {
            StolenInterval softirq;
            softirq.arrival = tick.end();
            softirq.kind = InterruptKind::SoftirqTimer;
            softirq.duration = static_cast<TimeNs>(
                static_cast<double>(
                    config_.handlerCosts.sample(InterruptKind::SoftirqTimer, rng,
                                            config_.vmIsolation,
                                            1.0 + sample.softirqWork)) *
                config_.os.handlerScale);
            out.push_back(softirq);
        }

        // IRQ work cannot run on its own; it is typically processed while
        // handling a timer interrupt (Section 5.3), so the IRQ-work gap
        // length observed by the attacker includes the tick as well.
        if (rng.bernoulli(std::min(0.3, 0.02 + 0.15 * sample.softirqWork))) {
            StolenInterval irq_work;
            irq_work.arrival = tick.end();
            irq_work.kind = InterruptKind::IrqWork;
            irq_work.duration = static_cast<TimeNs>(
                static_cast<double>(
                    config_.handlerCosts.sample(InterruptKind::IrqWork, rng,
                                            config_.vmIsolation, 1.0)) *
                config_.os.handlerScale);
            out.push_back(irq_work);
        }
    }
}

RunTimeline
InterruptSynthesizer::synthesize(const ActivityTimeline &activity,
                                 Rng &rng, PerfCounters *perf) const
{
    RunTimeline timeline;
    timeline.duration = activity.duration();
    timeline.activityInterval = activity.interval();
    timeline.iterCostFactor.resize(activity.numIntervals(), 1.0);
    timeline.occupancy.resize(activity.numIntervals(), 0.0);

    std::vector<StolenInterval> &out = timeline.stolen;
    const double route = movableRouteFraction();
    const double cores = static_cast<double>(config_.numCores);

    // OS housekeeping bursts: low-frequency background churn (page
    // reclaim, log flushes, service wakeups) whose schedule is redrawn
    // every run. The bursts raise softirq/IPI activity *and* CPU load
    // (hence DVFS droop); they are what bounds the SNR of coarse-
    // timescale amplitude measurements (Table 4's quantized-timer row
    // sits at 86%, not ~100%).
    ActivityTimeline noisy(activity.duration(), activity.interval());
    noisy.superimpose(activity);
    const double duration_s = static_cast<double>(activity.duration()) /
                              static_cast<double>(kSec);
    const int bursts =
        rng.poisson(config_.os.housekeepingBurstRate * duration_s);
    for (int b = 0; b < bursts; ++b) {
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

    // Ticks (plus their piggybacked softirq/irq-work entries) are the
    // bulk of the stream; reserving up front avoids repeated multi-MB
    // regrowth of the interval vector on the collection hot path.
    out.reserve(static_cast<std::size_t>(
        activity.duration() / std::max<TimeNs>(config_.tickPeriod(), 1) + 1) *
        2);
    emitTicks(noisy, rng, out);

    // Slow turbo-budget drift (Ornstein-Uhlenbeck over activity steps):
    // materialized once per run, applied inside the per-step loop.
    double walk = 0.0;
    const double walk_a = std::exp(
        -static_cast<double>(activity.interval()) /
        static_cast<double>(std::max<TimeNs>(config_.frequencyWalkTau, 1)));
    const double walk_noise =
        config_.frequencyWalkSigma * std::sqrt(1.0 - walk_a * walk_a);
    walk = rng.normal(0.0, config_.frequencyWalkSigma);

    for (std::size_t step = 0; step < activity.numIntervals(); ++step) {
        const ActivitySample &sample = noisy.at(step);
        const TimeNs lo = static_cast<TimeNs>(step) * activity.interval();
        const TimeNs hi =
            std::min(lo + activity.interval(), activity.duration());
        const double dt =
            static_cast<double>(hi - lo) / static_cast<double>(kSec);

        // Movable device IRQs raised by the victim's page load.
        emitPoisson(InterruptKind::NetworkRx, sample.netRxRate * dt * route,
                    lo, hi, 0.6 + sample.softirqWork, rng, out);
        emitPoisson(InterruptKind::Graphics, sample.gfxRate * dt * route, lo,
                    hi, 1.0, rng, out);
        emitPoisson(InterruptKind::Disk, sample.diskRate * dt * route, lo,
                    hi, 1.0, rng, out);

        // Stationary background device IRQs (OS housekeeping, peripherals).
        emitPoisson(InterruptKind::Usb,
                    config_.os.backgroundIrqRate * dt * route, lo, hi, 1.0,
                    rng, out);

        // Deferred softirq work raised by the victim's processing lands on
        // the attacker's core with an OS share regardless of IRQ routing:
        // the kernel picks where ksoftirqd/timer processing runs and
        // offers no user interface to prevent it (Takeaway 5). Pending
        // work drains in *storms*: ksoftirqd processes a backlog as a
        // train of short handler executions in quick succession. Each
        // individual gap stays in the few-microsecond range (Figure 6),
        // but a storm inside one 5 ms measurement period removes a
        // sizeable slice of it — the dark bands of Figure 3.
        const double storm_rate =
            0.10 * sample.netRxRate + 15.0 * sample.softirqWork;
        const int storms =
            rng.poisson(storm_rate * dt * config_.os.softirqShare);
        for (int i = 0; i < storms; ++i) {
            TimeNs at =
                lo + static_cast<TimeNs>(rng.uniform() *
                                         static_cast<double>(hi - lo));
            const int train_len =
                1 + rng.poisson(22.0 * (0.7 + sample.softirqWork));
            for (int k = 0; k < train_len && at < activity.duration();
                 ++k) {
                StolenInterval softirq;
                softirq.arrival = at;
                softirq.kind = InterruptKind::SoftirqNetRx;
                softirq.duration = static_cast<TimeNs>(
                    static_cast<double>(
                        config_.handlerCosts.sample(
                        InterruptKind::SoftirqNetRx, rng,
                        config_.vmIsolation, rng.uniform(0.8, 1.6))) *
                    config_.os.handlerScale);
                at = softirq.end() + static_cast<TimeNs>(
                                         rng.exponential(12.0 * kUsec));
                out.push_back(softirq);
            }
        }

        // Rescheduling IPIs: victim thread wakeups targeting this core
        // plus the stationary background share.
        const double resched_rate =
            sample.reschedRate +
            config_.os.backgroundReschedRate / cores;
        emitPoisson(InterruptKind::ReschedIpi, resched_rate * dt, lo, hi,
                    1.0, rng, out);

        // TLB shootdowns broadcast to every core.
        emitPoisson(InterruptKind::TlbShootdown, sample.tlbRate * dt, lo, hi,
                    1.0, rng, out);

        // SMI-like stalls no kernel tracer can observe.
        emitPoisson(InterruptKind::UntraceableStall,
                    config_.os.untraceableStallRate * dt, lo, hi, 1.0, rng,
                    out);

        // Scheduler contention: without pinning, a loaded victim
        // occasionally gets this core for a timeslice.
        if (!config_.pinnedCores && sample.cpuLoad > 0.0) {
            // With free cores available the scheduler rarely displaces
            // the spinning attacker; Table 3 shows pinning is worth only
            // ~0.2 accuracy points.
            const double share = std::min(1.0, sample.cpuLoad / cores);
            const double preempt_rate = 1.2 * share; // preemptions / s
            const int n = rng.poisson(preempt_rate * dt);
            for (int i = 0; i < n; ++i) {
                StolenInterval preempt;
                preempt.arrival = lo + static_cast<TimeNs>(
                                           rng.uniform() *
                                           static_cast<double>(hi - lo));
                preempt.kind = InterruptKind::Preemption;
                // Interactive victim threads run in short bursts, not
                // full timeslices: a spinning attacker loses a few
                // hundred microseconds per displacement.
                preempt.duration = static_cast<TimeNs>(std::min(
                    rng.lognormal(250.0 * kUsec, 0.8),
                    static_cast<double>(config_.timesliceNs)));
                out.push_back(preempt);
            }
        }

        // DVFS: victim load nudges the chip-wide frequency, slowing the
        // attacker's loop slightly — a secondary signal (Table 3, row 2).
        double factor = 1.0;
        if (config_.frequencyScaling) {
            const double load = std::min(1.0, sample.cpuLoad / cores);
            walk = walk_a * walk + rng.normal(0.0, walk_noise);
            factor = 1.0 + config_.frequencyLoadDip * load + walk +
                     rng.normal(0.0, 0.006);
        }
        timeline.iterCostFactor[step] = std::max(0.5, factor);
        // The victim's LLC residency is volatile: the attacker's own
        // sweeps, other processes and prefetchers churn it continuously,
        // so the occupancy a sweeping attacker actually observes is a
        // noisy version of the victim's working-set demand. This is the
        // modeled reason the cache-occupancy channel is *weaker* than it
        // looks — the paper's central claim.
        timeline.occupancy[step] = std::clamp(
            sample.cacheOccupancy * rng.lognormal(1.0, 0.6) +
                rng.uniform(0.0, 0.05),
            0.0, 1.0);
    }

    if (perf) {
        // Events are counted as emitted, before normalization clamps the
        // stream: one per stolen interval plus one per activity step
        // update, a pure function of the run content.
        perf->eventsSimulated +=
            static_cast<long long>(out.size() + activity.numIntervals());
        for (const StolenInterval &s : out) {
            if (isInterrupt(s.kind))
                ++perf->interruptsSynthesized;
        }
    }

    normalizeTimeline(out, timeline.duration, perf);
    return timeline;
}

} // namespace bigfish::sim
