/**
 * @file
 * KernelSim: an event-driven multi-core kernel model.
 *
 * The InterruptSynthesizer (synthesizer.hh) generates the attacker
 * core's schedule *statistically* — Poisson streams thinned by routing
 * probabilities. KernelSim builds the same schedule *mechanistically*:
 * a discrete-event simulation in which
 *
 *  - devices (NIC, GPU, disk, USB) raise IRQs that the interrupt
 *    controller routes to a concrete core according to the active
 *    routing policy (round-robin spread, or everything pinned to
 *    core 0);
 *  - a NET_RX hard handler on any core raises pending softirq work on
 *    that core; ksoftirqd occasionally migrates backlogs between cores
 *    (the non-movable leakage path);
 *  - each core takes periodic scheduler ticks that drain part of its
 *    pending deferred work as storm trains;
 *  - victim thread wakeups send rescheduling IPIs, and page-table
 *    updates broadcast TLB shootdowns to every core;
 *  - each core executes one handler at a time; concurrent arrivals
 *    queue (the per-core serialization normalizeTimeline() applies).
 *
 * The output is a RunTimeline for the attacker's core, directly
 * comparable with the synthesizer's. The test suite cross-validates the
 * two models: same activity in, statistically consistent interrupt-time
 * profiles out. Keeping both is deliberate — the synthesizer is ~an
 * order of magnitude faster and drives the large benchmark sweeps,
 * while KernelSim grounds its routing semantics in an actual mechanism.
 */

#ifndef BF_SIM_KERNEL_SIM_HH
#define BF_SIM_KERNEL_SIM_HH

#include "base/rng.hh"
#include "sim/activity.hh"
#include "sim/machine.hh"
#include "sim/perf.hh"
#include "sim/run_timeline.hh"

namespace bigfish::sim {

/** Event-driven kernel model producing attacker-core schedules. */
class KernelSim
{
  public:
    /** @param config The machine/OS under test. */
    explicit KernelSim(MachineConfig config);

    const MachineConfig &config() const { return config_; }

    /**
     * Runs the event-driven simulation for one trace.
     *
     * Raw events from every source (per-core tick trains, per-step
     * device, IPI, shootdown, stall and preemption draws) are sorted
     * once by (time, emission order), a total deterministic order.
     *
     * @param activity The victim's activity over the run.
     * @param rng Per-run randomness.
     * @param perf When non-null, accumulates simulated-event counters.
     * @return The attacker-core timeline (sorted, serialized), with the
     *         same iteration-cost-factor and occupancy semantics as the
     *         statistical synthesizer.
     */
    RunTimeline run(const ActivityTimeline &activity, Rng &rng,
                    PerfCounters *perf = nullptr) const;

  private:
    MachineConfig config_;
};

} // namespace bigfish::sim

#endif // BF_SIM_KERNEL_SIM_HH
