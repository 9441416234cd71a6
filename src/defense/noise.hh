/**
 * @file
 * Noise-injection countermeasures and workload overlays (Sections 4.3
 * and 6.2), plus the background-applications workload of Section 4.2.
 *
 * All three are expressed as ActivityTimeline overlays superimposed on
 * the victim's workload, so they generate interrupts / cache pressure
 * through exactly the same synthesizer paths as real activity:
 *
 *  - SpuriousInterruptInjector (ours, the Chrome extension): schedules
 *    thousands of random activity bursts and network pings while sites
 *    load, flooding the attacker's core with unpredictable interrupts.
 *  - CacheSweepNoise (Shusterman et al.'s defense): a thread repeatedly
 *    sweeps the whole LLC, pinning victim-visible occupancy near 1 and
 *    adding a little scheduler churn — but very few interrupts, which is
 *    why it barely dents either attack (Table 2).
 *  - BackgroundApps (Slack + Spotify playing music): moderate stationary
 *    network/audio/render activity.
 */

#ifndef BF_DEFENSE_NOISE_HH
#define BF_DEFENSE_NOISE_HH

#include "base/rng.hh"
#include "base/types.hh"
#include "sim/activity.hh"

namespace bigfish::defense {

/** Parameters of the spurious-interrupt countermeasure. */
struct SpuriousInterruptParams
{
    /** Mean bursts scheduled per second. */
    double burstsPerSecond = 8.0;
    /** Mean burst length. */
    TimeNs burstMean = 40 * kMsec;
    /** Network pings per second inside a burst. */
    double burstNetRate = 2500.0;
    /** Rescheduling wakeups per second inside a burst. */
    double burstReschedRate = 400.0;
    /** Deferred softirq work level inside a burst. */
    double burstSoftirqWork = 1.2;
    /** Stationary ping rate between bursts. */
    double baselineNetRate = 120.0;

    bool operator==(const SpuriousInterruptParams &) const = default;
};

/**
 * Builds the spurious-interrupt overlay for one run. Each run draws a
 * fresh random burst schedule — the randomness is the defense.
 */
sim::ActivityTimeline
spuriousInterruptOverlay(TimeNs duration, const SpuriousInterruptParams &p,
                         Rng &rng);

/** Parameters of the cache-sweep countermeasure. */
struct CacheSweepParams
{
    /** Occupancy the sweeping thread maintains. */
    double sweepOccupancy = 0.9;
    /** CPU the sweeping thread burns (cores). */
    double sweepCpuLoad = 1.0;
    /** Wakeups per second caused by the sweeping thread. */
    double sweepReschedRate = 20.0;

    bool operator==(const CacheSweepParams &) const = default;
};

/** Builds the cache-sweep overlay (constant over the run). */
sim::ActivityTimeline cacheSweepOverlay(TimeNs duration,
                                        const CacheSweepParams &p);

/** Builds the Slack + Spotify background-noise overlay of Section 4.2. */
sim::ActivityTimeline backgroundAppsOverlay(TimeNs duration, Rng &rng);

/**
 * Estimated page-load slowdown factor caused by an overlay: the extra
 * interrupt handling and CPU demand steal victim cycles. The paper
 * measures 3.12 s -> 3.61 s (+15.7%) for the spurious-interrupt
 * extension.
 *
 * @param overlay The countermeasure overlay.
 * @param numCores Cores sharing the extra load.
 * @return Multiplicative load-time factor (>= 1).
 */
double loadTimeOverheadFactor(const sim::ActivityTimeline &overlay,
                              int numCores);

} // namespace bigfish::defense

#endif // BF_DEFENSE_NOISE_HH
