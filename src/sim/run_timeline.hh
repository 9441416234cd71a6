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

    /**
     * The observed-gap scan: replays a loop that spins reading the
     * monotonic clock, each read costing @p poll_cost ns, over this
     * schedule (the gap detector and the gap-trace attacker of Section
     * 5.2 both run it).
     *
     * Between stolen intervals consecutive readings differ by exactly
     * one poll, so only stolen time produces a jump. Intervals less
     * than one poll apart leave no room for a reading in between and
     * merge into one jump. The reading before a jump happened up to one
     * poll earlier and the one after it one poll later, so the observed
     * jump is the merged stolen span plus one poll. Calls
     * `visit(start, length)` in time order for every jump whose length
     * reaches @p threshold; the stolen span is [start, start + length -
     * poll_cost).
     */
    template <typename Visit>
    void
    forEachObservedGap(TimeNs poll_cost, TimeNs threshold,
                       Visit &&visit) const
    {
        std::size_t i = 0;
        while (i < stolen.size()) {
            const TimeNs start = stolen[i].arrival;
            TimeNs end = stolen[i].end();
            std::size_t j = i + 1;
            while (j < stolen.size() && stolen[j].arrival - end < poll_cost) {
                end = stolen[j].end();
                ++j;
            }
            const TimeNs observed = (end - start) + poll_cost;
            if (observed >= threshold)
                visit(start, observed);
            i = j;
        }
    }
};

} // namespace bigfish::sim

#endif // BF_SIM_RUN_TIMELINE_HH
