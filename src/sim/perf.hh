/**
 * @file
 * Lightweight simulator perf counters (DESIGN.md §13).
 *
 * Cold runs are dominated by trace collection — millions of synthesized
 * interrupt events per run — and before these counters existed the
 * per-stage table could only say *that* the Collect stage was slow,
 * never *why*. PerfCounters attributes the cycles: how many discrete
 * events the sim layer produced, how many of them were genuine
 * interrupts, and how many bytes flowed through ordering operations
 * (sorts and merges). StageReports carry them into `--explain` and the
 * schemaVersion-4 artifact.
 *
 * Counter semantics are chosen to be *deterministic*: every field is a
 * pure function of the work content, never of the machine state, so
 * the counts are bit-identical across BF_THREADS and BF_SIMD settings
 * (asserted by tests/sim_perf_test.cc):
 *
 *  - eventsSimulated counts emitted stolen intervals, per-step activity
 *    updates and attacker measurement periods — not wall-clock samples.
 *  - bytesSorted counts each sort/merge once over the span it ordered.
 *  - Cells replayed from the stage cache report zero: counters
 *    measure work *performed*, exactly like cpuSeconds.
 */

#ifndef BF_SIM_PERF_HH
#define BF_SIM_PERF_HH

namespace bigfish::sim {

/** Deterministic counters of simulator hot-path work. */
struct PerfCounters
{
    /** Discrete events simulated: emitted stolen intervals + activity
     *  step updates + attacker measurement periods. */
    long long eventsSimulated = 0;
    /** Subset of emitted intervals that are genuine interrupts
     *  (isInterrupt(kind); excludes preemptions and SMI stalls). */
    long long interruptsSynthesized = 0;
    /** Bytes that flowed through an ordering operation, counted once
     *  per sort/merge over the span it ordered. */
    long long bytesSorted = 0;

    PerfCounters &
    operator+=(const PerfCounters &other)
    {
        eventsSimulated += other.eventsSimulated;
        interruptsSynthesized += other.interruptsSynthesized;
        bytesSorted += other.bytesSorted;
        return *this;
    }

    /** True when no work has been recorded (cache replays). */
    bool
    empty() const
    {
        return eventsSimulated == 0 && interruptsSynthesized == 0 &&
               bytesSorted == 0;
    }
};

inline PerfCounters
operator+(PerfCounters a, const PerfCounters &b)
{
    a += b;
    return a;
}

} // namespace bigfish::sim

#endif // BF_SIM_PERF_HH
