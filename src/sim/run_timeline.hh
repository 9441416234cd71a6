/**
 * @file
 * The fully materialized schedule of one trace-collection run.
 *
 * A RunTimeline is what the attacker's core actually experiences while a
 * victim loads a page: a sorted, non-overlapping sequence of stolen
 * intervals (interrupt handlers, preemptions, stalls) plus the
 * piecewise-constant machine state (frequency factor, LLC occupancy)
 * the attacker's instruction stream runs against. It is produced by the
 * InterruptSynthesizer and consumed by the ExecutionEngine, the kernel
 * tracer and the gap detector — all observers share this single ground
 * truth, which is what lets the attribution experiment of Section 5.2 be
 * a real join rather than an assumption.
 */

#ifndef BF_SIM_RUN_TIMELINE_HH
#define BF_SIM_RUN_TIMELINE_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "base/types.hh"
#include "sim/interrupt.hh"

namespace bigfish::sim {

/** The materialized schedule of one run on the attacker's core. */
struct RunTimeline
{
    /** Total run length. */
    TimeNs duration = 0;
    /** Step width of the piecewise-constant vectors below. */
    TimeNs activityInterval = 10 * kMsec;

    /** Sorted, non-overlapping intervals of stolen core time. */
    std::vector<StolenInterval> stolen;

    /**
     * Per-step multiplier on the attacker's iteration cost (DVFS plus
     * run-level throughput noise); 1.0 means nominal speed.
     */
    std::vector<double> iterCostFactor;

    /** Per-step victim LLC occupancy in [0, 1]. */
    std::vector<double> occupancy;

    // The step accessors are inline: the execution engine calls them on
    // every segment of every measurement period (tens of millions of
    // times per run), and out-of-line they cost a call plus a repeated
    // t / activityInterval division the caller could otherwise CSE.

    /** Step index for real time @p t, clamped to the last step. */
    std::size_t
    stepAt(TimeNs t) const
    {
        if (t < 0 || iterCostFactor.empty())
            return 0;
        const std::size_t index =
            static_cast<std::size_t>(t / activityInterval);
        return std::min(index, iterCostFactor.size() - 1);
    }

    /** Iteration-cost factor in effect at real time @p t. */
    double
    iterCostFactorAt(TimeNs t) const
    {
        if (iterCostFactor.empty())
            return 1.0;
        return iterCostFactor[stepAt(t)];
    }

    /** Real time at which the step containing @p t ends. */
    TimeNs
    stepEnd(TimeNs t) const
    {
        const TimeNs end =
            (static_cast<TimeNs>(stepAt(t)) + 1) * activityInterval;
        return std::min(end, duration);
    }

    /** Sum of stolen durations for which @p predicate holds. */
    template <typename Predicate>
    TimeNs
    totalStolen(Predicate predicate) const
    {
        TimeNs total = 0;
        for (const StolenInterval &s : stolen)
            if (predicate(s))
                total += s.duration;
        return total;
    }

    /** Sum of all stolen durations. */
    TimeNs totalStolenAll() const;
};

} // namespace bigfish::sim

#endif // BF_SIM_RUN_TIMELINE_HH
