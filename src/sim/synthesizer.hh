/**
 * @file
 * InterruptSynthesizer: turns a victim ActivityTimeline plus a
 * MachineConfig into the concrete RunTimeline the attacker's core
 * experiences.
 *
 * Interrupt arrivals are inhomogeneous Poisson processes modulated by the
 * victim's activity rates; the routing semantics implement exactly the
 * isolation knobs of Table 3:
 *
 *  - Movable device IRQs reach the attacker's core with probability
 *    1/numCores under the default spread policy and never under
 *    irqbalance pinning.
 *  - Deferred softirq work raised by the victim's processing lands on the
 *    attacker's core with an OS-specific share *regardless* of IRQ
 *    routing (ksoftirqd / timer-tick processing) — the non-movable
 *    leakage path.
 *  - Rescheduling IPIs and TLB shootdowns always reach the attacker.
 *  - Timer ticks are periodic per core, and their handler cost grows with
 *    pending deferred work; softirq and IRQ-work processing piggybacks on
 *    them (Figure 6's coupled distributions).
 *  - When cores are not pinned, the scheduler occasionally gives the
 *    attacker's core to a victim thread for a timeslice.
 *  - Under VM isolation every handler is amplified by host+guest double
 *    handling (which *helps* the attacker, as the paper observes).
 */

#ifndef BF_SIM_SYNTHESIZER_HH
#define BF_SIM_SYNTHESIZER_HH

#include "base/rng.hh"
#include "sim/activity.hh"
#include "sim/machine.hh"
#include "sim/perf.hh"
#include "sim/run_timeline.hh"

namespace bigfish::sim {

/** Builds RunTimelines from victim activity descriptions. */
class InterruptSynthesizer
{
  public:
    /** @param config The machine/OS under test. */
    explicit InterruptSynthesizer(MachineConfig config);

    /** The machine configuration in use. */
    const MachineConfig &config() const { return config_; }

    /**
     * Synthesizes the attacker-core schedule for one run, building the
     * interval stream in place in the result.
     *
     * @param activity The victim's activity over the run.
     * @param rng Per-run randomness (fork one stream per trace).
     * @param perf When non-null, accumulates emitted events, synthesized
     *             interrupts and sorted bytes.
     * @return The normalized timeline.
     */
    RunTimeline synthesize(const ActivityTimeline &activity, Rng &rng,
                           PerfCounters *perf = nullptr) const;

  private:
    /** Fraction of movable IRQs routed to the attacker's core. */
    double movableRouteFraction() const;

    /** Emits periodic timer ticks with piggybacked deferred work. */
    void emitTicks(const ActivityTimeline &activity, Rng &rng,
                   std::vector<StolenInterval> &out) const;

    /** Emits Poisson arrivals for one kind during one activity step. */
    void emitPoisson(InterruptKind kind, double expected_count, TimeNs lo,
                     TimeNs hi, double work_scale, Rng &rng,
                     std::vector<StolenInterval> &out) const;

    MachineConfig config_;
};

} // namespace bigfish::sim

#endif // BF_SIM_SYNTHESIZER_HH
