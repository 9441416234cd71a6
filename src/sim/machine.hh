/**
 * @file
 * Machine and OS configuration for the simulated testbed.
 *
 * A MachineConfig captures everything Table 3 toggles: DVFS (frequency
 * scaling), core pinning, IRQ routing (irqbalance), and VM isolation —
 * plus the per-OS parameters (tick rate, background interrupt load,
 * softirq dispatch share) that differentiate the Linux / Windows / macOS
 * rows of Table 1.
 */

#ifndef BF_SIM_MACHINE_HH
#define BF_SIM_MACHINE_HH

#include <cstdint>
#include <string>

#include "base/types.hh"
#include "sim/interrupt.hh"

namespace bigfish::sim {

/** How the OS distributes *movable* device IRQs among cores. */
enum class IrqRoutingPolicy
{
    /** Default: device IRQs are spread over all cores round-robin. */
    Spread,
    /**
     * irqbalance --banirq style pinning: all movable IRQs are bound to
     * core 0, away from the attacker. Non-movable interrupts (ticks,
     * softirqs, IPIs) still reach every core — the paper's key point.
     */
    PinnedAway,
};

/** Per-operating-system behavioral parameters. */
struct OsProfile
{
    std::string name = "linux";
    /** Scheduler tick frequency on each core (Hz). */
    int tickHz = 250;
    /** Multiplier on all interrupt handler costs. */
    double handlerScale = 1.0;
    /**
     * Fraction of victim-raised deferred softirq work that the kernel
     * dispatches onto the attacker's core (via ksoftirqd / timer-tick
     * processing). This is the non-movable leakage path of Takeaway 5.
     */
    double softirqShare = 0.35;
    /** Stationary background device-IRQ rate per core (per second). */
    double backgroundIrqRate = 40.0;
    /** Stationary background rescheduling-IPI rate (per second). */
    double backgroundReschedRate = 15.0;
    /** Untraceable SMI-like stall rate (per second), invisible to eBPF. */
    double untraceableStallRate = 0.4;

    /**
     * OS housekeeping bursts per second (page reclaim, log flushes,
     * background services). Each burst raises softirq/IPI activity for
     * 50-500 ms at a random time — the low-frequency system noise that
     * limits how much signal survives coarse (100 ms-scale) timers.
     */
    double housekeepingBurstRate = 1.0;
    /** Intensity multiplier on housekeeping burst activity. */
    double housekeepingIntensity = 1.0;

    /** Ubuntu 20.04 on the paper's Core-i5 desktops. */
    static OsProfile linux();
    /** Windows 10 Enterprise on the Xeon workstation. */
    static OsProfile windows();
    /** macOS Big Sur 11.5 on the MacBook. */
    static OsProfile macos();

    bool operator==(const OsProfile &) const = default;
};

/** The full simulated-machine configuration. */
struct MachineConfig
{
    /** Number of physical cores (paper machines: 4, no hyperthreading). */
    int numCores = 4;
    /** Core the attacker runs on. */
    CoreId attackerCore = 1;

    OsProfile os = OsProfile::linux();

    /**
     * DVFS enabled. When true, chip-wide frequency reacts to victim load
     * and modulates the attacker's instruction throughput — a secondary
     * signal Table 3 shows is worth about one accuracy point.
     */
    bool frequencyScaling = true;
    /**
     * Relative frequency dip at full load when scaling is enabled. A
     * secondary signal: Table 3 attributes only about one accuracy
     * point to DVFS, so the dip is small relative to interrupt effects.
     */
    double frequencyLoadDip = 0.03;

    /**
     * Stationary sigma of the slow turbo-budget random walk (thermal
     * state, co-tenant load). This drift decorrelates coarse-timescale
     * amplitudes between runs — the reason Table 3 attributes only ~1
     * accuracy point to DVFS and Table 4's randomized timer (which
     * leaves only coarse amplitude readable) collapses the attack.
     */
    double frequencyWalkSigma = 0.010;
    /** Correlation time of the turbo random walk. */
    TimeNs frequencyWalkTau = kSec;

    /**
     * Attacker and victim pinned to distinct cores (taskset). When false
     * the scheduler occasionally runs victim threads on the attacker's
     * core, stealing whole timeslices.
     */
    bool pinnedCores = false;

    /** Movable-IRQ routing policy (irqbalance). */
    IrqRoutingPolicy routing = IrqRoutingPolicy::Spread;

    /** Attacker and victim in separate VMs (Section 5.1, last row). */
    bool vmIsolation = false;

    /** Handler cost distributions. */
    HandlerCostModel handlerCosts;

    /** Scheduler timeslice used for contention preemptions. */
    TimeNs timesliceNs = 4 * kMsec;

    /** LLC capacity in bytes (paper-era Core-i5: ~8 MiB). */
    std::int64_t llcBytes = 8LL * 1024 * 1024;
    /** Cache line size in bytes. */
    int lineBytes = 64;

    /**
     * Nanoseconds to touch one resident (hit) LLC line during a sweep.
     * 1.2 ns/line puts an idle full-LLC sweep at ~157 us, i.e. ~32
     * sweeps per idle 5 ms period — the paper's observed maximum.
     */
    double sweepHitNsPerLine = 1.2;
    /**
     * Extra nanoseconds per line when the line was evicted. Sequential
     * sweeps are heavily prefetched, so the *effective* per-line miss
     * penalty is ~1 ns, not a full DRAM round trip — one reason the
     * cache-occupancy channel is weaker than it looks.
     */
    double sweepMissExtraNsPerLine = 1.2;

    /** Number of LLC lines (llcBytes / lineBytes). */
    std::int64_t llcLines() const { return llcBytes / lineBytes; }

    /** Period of the local timer tick. */
    TimeNs tickPeriod() const { return kSec / os.tickHz; }

    /** Preset matching the paper's Ubuntu 20.04 Core-i5 desktops. */
    static MachineConfig linuxDesktop();
    /** Preset matching the Windows 10 Xeon workstation. */
    static MachineConfig windowsWorkstation();
    /** Preset matching the macOS Big Sur MacBook. */
    static MachineConfig macbook();

    bool operator==(const MachineConfig &) const = default;
};

} // namespace bigfish::sim

#endif // BF_SIM_MACHINE_HH
