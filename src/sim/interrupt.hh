/**
 * @file
 * Interrupt taxonomy and handler-cost models (Sections 2.2 and 5.3).
 *
 * The paper's central causal claim is about *which classes* of interrupt
 * leak victim activity, so the taxonomy is modeled explicitly:
 *
 *  - Device IRQs (network RX, graphics, disk, USB) are *movable*: the OS
 *    can route them away from the attacker's core (irqbalance).
 *  - Local timer ticks, softirqs, IRQ work, rescheduling IPIs and TLB
 *    shootdowns are *non-movable*: they execute on every core and Linux
 *    offers no interface to displace them. These carry the residual
 *    leakage that survives every isolation mechanism in Table 3.
 *
 * Each kind has a characteristic handler-cost distribution (Figure 6),
 * right-skewed and floored by the context-switch overhead that Meltdown
 * era mitigations impose on every kernel entry (~1.5 us in the paper).
 */

#ifndef BF_SIM_INTERRUPT_HH
#define BF_SIM_INTERRUPT_HH

#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "sim/perf.hh"

namespace bigfish::sim {

/** Every way the attacker's core can have time stolen from it. */
enum class InterruptKind
{
    TimerTick,        ///< Local APIC timer (non-movable).
    NetworkRx,        ///< NIC device IRQ (movable).
    Graphics,         ///< GPU device IRQ (movable).
    Disk,             ///< SATA/NVMe device IRQ (movable).
    Usb,              ///< USB device IRQ (movable).
    SoftirqNetRx,     ///< NET_RX softirq (non-movable, deferred work).
    SoftirqTimer,     ///< Timer softirq (non-movable).
    IrqWork,          ///< IRQ-work entries piggybacking on ticks.
    ReschedIpi,       ///< Rescheduling IPI (non-movable).
    TlbShootdown,     ///< TLB-shootdown IPI, broadcast (non-movable).
    SpuriousNoise,    ///< Interrupts injected by the noise countermeasure.
    Preemption,       ///< Scheduler timeslice given to another process.
    UntraceableStall, ///< SMI-like stall invisible to the kernel tracer.
    NumKinds,
};

/** Number of interrupt kinds, for arrays indexed by kind. */
constexpr int kNumInterruptKinds = static_cast<int>(InterruptKind::NumKinds);

/** Human-readable kind name ("softirq:net_rx", "resched_ipi", ...). */
std::string interruptKindName(InterruptKind kind);

/**
 * True for device IRQs, which irqbalance can bind to a remote core.
 * Everything else (ticks, softirqs, IPIs) is non-movable.
 */
bool isMovable(InterruptKind kind);

// isInterrupt and isTraceable are inline: the gap attribution walk asks
// them of every interval in the stream.

/** True for genuine interrupts (excludes preemption and SMI stalls). */
inline bool
isInterrupt(InterruptKind kind)
{
    return kind != InterruptKind::Preemption &&
           kind != InterruptKind::UntraceableStall &&
           kind != InterruptKind::NumKinds;
}

/**
 * True when the kind is visible to the eBPF-analog kernel tracer. The
 * paper notes Linux restricts which entry points can be kprobe'd; we model
 * the untraceable residue with the UntraceableStall kind.
 */
inline bool
isTraceable(InterruptKind kind)
{
    return kind != InterruptKind::UntraceableStall &&
           kind != InterruptKind::NumKinds;
}

/**
 * One interval of time stolen from the attacker's core.
 *
 * `duration` includes the kernel-entry context-switch overhead; `arrival`
 * is when user execution pauses.
 */
struct StolenInterval
{
    TimeNs arrival = 0;
    TimeNs duration = 0;
    InterruptKind kind = InterruptKind::TimerTick;

    /** Time at which user execution resumes. */
    TimeNs end() const { return arrival + duration; }
};

/** Parameters of one kind's right-skewed handler-cost distribution. */
struct HandlerCostParams
{
    TimeNs median = 2 * kUsec; ///< Median handler body cost.
    double sigma = 0.3;        ///< Lognormal shape (skew).

    bool operator==(const HandlerCostParams &) const = default;
};

/**
 * Samples handler costs per interrupt kind.
 *
 * Costs are lognormal around a per-kind median (Figure 6 shows distinct,
 * characteristic distributions per kind) plus a fixed context-switch
 * overhead, optionally amplified when the victim runs inside a VM
 * (Section 5.1: VM entries/exits are far more expensive than process
 * context switches, which *increases* the attack's signal).
 */
class HandlerCostModel
{
  public:
    /** Builds the default cost table used throughout the evaluation. */
    HandlerCostModel();

    /** Overrides one kind's distribution. */
    void setParams(InterruptKind kind, HandlerCostParams params);

    /** Reads back one kind's distribution. */
    HandlerCostParams params(InterruptKind kind) const;

    /** Fixed kernel-entry overhead added to every handler (default 1.5us). */
    TimeNs contextSwitchNs = 1500;

    /** Multiplier applied under VM isolation (host + guest handling). */
    double vmAmplification = 2.0;

    /** Extra VM-exit / VM-entry cost per interrupt under VM isolation. */
    TimeNs vmExitNs = kUsec;

    /**
     * Samples the total stolen duration for one interrupt.
     *
     * @param kind Interrupt kind.
     * @param rng Randomness source.
     * @param vmIsolated Whether the attacker runs inside a VM.
     * @param workScale Extra multiplicative work factor (softirq backlog).
     */
    TimeNs sample(InterruptKind kind, Rng &rng, bool vmIsolated = false,
                  double workScale = 1.0) const;

    bool operator==(const HandlerCostModel &) const = default;

  private:
    HandlerCostParams table_[kNumInterruptKinds];
    /** log(median) per kind, cached so sample() skips a std::log. */
    double logMedian_[kNumInterruptKinds];
};

/**
 * Sorts intervals by arrival, serializes overlaps and clips the stream
 * to the run: when an interrupt arrives while another handler is still
 * running it queues and executes immediately afterwards, exactly as a
 * single core would process it; handlers that serialization pushes to
 * or past @p duration are dropped, and the one straddling it is cut.
 *
 * Order (DESIGN.md §13): by (arrival, input position) on every path, a
 * total order that does not depend on the standard library. Equal
 * arrivals are common (tick-piggybacked softirq/IRQ-work entries
 * arrive at exactly the tick's end); they keep their input order, so
 * entries appended to a normalized stream go after the entries they
 * tie with.
 *
 * @param duration The run's length; the output ends by it.
 * @param perf When non-null, accumulates the bytes sorted and merged.
 */
void normalizeTimeline(std::vector<StolenInterval> &stolen, TimeNs duration,
                       PerfCounters *perf = nullptr);

} // namespace bigfish::sim

#endif // BF_SIM_INTERRUPT_HH
