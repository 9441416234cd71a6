/**
 * @file
 * KernelTracer: the eBPF-analog kernel instrumentation of Section 5.2.
 *
 * The paper attaches eBPF programs to kprobes/tracepoints that fire when
 * interrupt handlers run, logging (timestamp, cause). Our tracer plays
 * the same role against the simulator: it observes the RunTimeline the
 * way kprobes observe the kernel — it sees every *traceable* handler
 * entry/exit, but not SMI-like stalls (Linux forbids probing some entry
 * paths; the paper similarly disables Turbo Boost to suppress gaps it
 * cannot attribute).
 *
 * Crucially the tracer does NOT share code with the GapDetector: the
 * attribution experiment joins two independently produced event streams
 * on their timestamps, as the paper does with the shared monotonic
 * clock. (forEachAttributedGap in attribution.hh reads the tracer's
 * view — the traceable intervals — straight from the stream instead of
 * from record()'s copy; the join is the same.)
 */

#ifndef BF_KTRACE_TRACER_HH
#define BF_KTRACE_TRACER_HH

#include <array>
#include <vector>

#include "base/types.hh"
#include "sim/run_timeline.hh"

namespace bigfish::ktrace {

/** One logged handler execution. */
struct InterruptRecord
{
    TimeNs start = 0;
    TimeNs duration = 0;
    sim::InterruptKind kind = sim::InterruptKind::TimerTick;

    TimeNs end() const { return start + duration; }
};

/** Per-100ms-interval interrupt-time aggregation (Figure 5). */
struct InterruptTimeProfile
{
    TimeNs interval = 100 * kMsec;
    /** Fraction of each interval spent in softirq handlers. */
    std::vector<double> softirqFraction;
    /** Fraction of each interval spent in rescheduling-IPI handlers. */
    std::vector<double> reschedFraction;
    /** Fraction of each interval spent in any interrupt handler. */
    std::vector<double> totalFraction;
};

/** Records interrupt handler executions from a run. */
class KernelTracer
{
  public:
    /**
     * Observes one run, logging every traceable handler execution.
     * Preemptions are visible (sched tracepoints exist) but are not
     * interrupts; untraceable stalls are invisible.
     */
    std::vector<InterruptRecord>
    record(const sim::RunTimeline &timeline) const;

    /**
     * Aggregates records into Figure 5's per-interval time-in-handler
     * fractions.
     *
     * @param records Tracer output.
     * @param duration Run length.
     * @param interval Aggregation interval (paper: 100 ms).
     */
    static InterruptTimeProfile
    profile(const std::vector<InterruptRecord> &records, TimeNs duration,
            TimeNs interval = 100 * kMsec);

    /** Count of records per interrupt kind. */
    static std::array<std::size_t, sim::kNumInterruptKinds>
    countByKind(const std::vector<InterruptRecord> &records);
};

} // namespace bigfish::ktrace

#endif // BF_KTRACE_TRACER_HH
