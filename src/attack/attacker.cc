#include "attack/attacker.hh"

#include <algorithm>

#include "base/logging.hh"
#include "sim/engine.hh"

namespace bigfish::attack {

std::string
attackerKindName(AttackerKind kind)
{
    switch (kind) {
      case AttackerKind::LoopCounting:
        return "loop-counting";
      case AttackerKind::SweepCounting:
        return "sweep-counting";
    }
    return "unknown";
}

std::vector<double>
iterationCosts(AttackerKind kind, const AttackerParams &params,
               const sim::MachineConfig &machine,
               const sim::RunTimeline &timeline, Rng *rng)
{
    std::vector<double> costs(timeline.iterCostFactor.size(), 0.0);
    const double lines = static_cast<double>(machine.llcLines());
    for (std::size_t step = 0; step < costs.size(); ++step) {
        const double factor = timeline.iterCostFactor[step];
        switch (kind) {
          case AttackerKind::LoopCounting:
            costs[step] = params.loopIterNs * factor;
            break;
          case AttackerKind::SweepCounting: {
            // One iteration sweeps the whole LLC-sized buffer: resident
            // lines hit, victim-evicted lines miss to DRAM.
            const double occ = timeline.occupancy[step] *
                               params.sweepObservedOccupancy;
            const double sweep = lines * machine.sweepHitNsPerLine +
                                 occ * lines * machine.sweepMissExtraNsPerLine;
            // Memory-system variance of the sweeping loop itself.
            const double mem_noise =
                rng != nullptr ? rng->lognormal(1.0, params.sweepCostSigma)
                               : 1.0;
            costs[step] =
                (sweep + params.sweepOverheadNs) * factor * mem_noise;
            break;
          }
        }
        panicIf(costs[step] <= 0.0, "non-positive iteration cost");
    }
    return costs;
}

Result<Trace>
collectTrace(AttackerKind kind, const AttackerParams &params,
             const sim::MachineConfig &machine,
             const sim::RunTimeline &timeline, timers::TimerModel &timer,
             TimeNs period, std::uint64_t noise_seed)
{
    if (period <= 0)
        return Status(
            invalidArgumentError("attacker period must be positive"));
    Trace trace;
    trace.period = period;
    trace.attacker = attackerKindName(kind);

    Rng noise(mix64(noise_seed) ^ 0xa77acbeULL);
    sim::ExecutionEngine engine(
        timeline, iterationCosts(kind, params, machine, timeline, &noise));

    sim::PeriodResult result;
    // Reserve assuming periods roughly match P (fuzzed timers may differ).
    const std::size_t expected_periods =
        static_cast<std::size_t>(timeline.duration / period + 1);
    trace.counts.reserve(expected_periods);
    trace.wallTimes.reserve(expected_periods);
    while (engine.runPeriod(timer, period, result)) {
        trace.counts.push_back(static_cast<double>(result.iterations));
        trace.wallTimes.push_back(result.wallTime);
    }
    return trace;
}

Result<Trace>
collectGapTrace(const sim::RunTimeline &timeline, TimeNs period,
                TimeNs poll_cost_ns, TimeNs threshold)
{
    if (period <= 0)
        return Status(
            invalidArgumentError("gap-trace period must be positive"));
    if (poll_cost_ns <= 0)
        return Status(invalidArgumentError("poll cost must be positive"));
    Trace trace;
    trace.period = period;
    trace.attacker = "gap-trace";
    const std::size_t bins =
        static_cast<std::size_t>((timeline.duration + period - 1) / period);
    trace.counts.assign(bins, 0.0);
    trace.wallTimes.assign(bins, period);

    // Each observed jump (RunTimeline::forEachObservedGap, the scan
    // ktrace::GapDetector runs) charges its stolen span, the jump minus
    // one poll, to the bins it overlaps.
    timeline.forEachObservedGap(
        poll_cost_ns, threshold, [&](TimeNs gap_start, TimeNs observed) {
            const TimeNs gap_end = gap_start + observed - poll_cost_ns;
            TimeNs t = gap_start;
            while (t < gap_end) {
                const std::size_t bin =
                    std::min(static_cast<std::size_t>(t / period), bins - 1);
                const TimeNs bin_end = (static_cast<TimeNs>(bin) + 1) * period;
                const TimeNs slice = std::min(gap_end, bin_end) - t;
                trace.counts[bin] += static_cast<double>(slice);
                t += slice;
            }
        });
    return trace;
}

} // namespace bigfish::attack
