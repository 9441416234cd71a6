/**
 * @file
 * Synthetic website workload models.
 *
 * A SiteSignature is the stable, site-identifying description of what a
 * page load does to the system: an ordered set of activity phases
 * (network fetches, parse/layout, script/GC churn, rendering, media),
 * each contributing rates to every interrupt-generating subsystem, plus
 * optional late periodic activity (ads/media heartbeats) and fixed-time
 * activity spikes. The *signature* is deterministic per site; the
 * per-run *realization* (TraceWorkload) adds the load-to-load variation
 * a real page exhibits: timing jitter, rate noise, and a global
 * slow/fast-load factor.
 *
 * Three hand-crafted signatures reproduce the qualitative descriptions
 * the paper gives of its running examples (Figures 3-5): nytimes.com
 * concentrates activity in the first ~4 s; amazon.com is busy for ~2 s
 * with extra spikes near 5 s and 10 s; weather.com routinely triggers
 * rescheduling IPIs alongside TLB shootdowns.
 */

#ifndef BF_WEB_SITE_HH
#define BF_WEB_SITE_HH

#include <string>
#include <vector>

#include "base/rng.hh"
#include "base/types.hh"
#include "sim/activity.hh"

namespace bigfish::web {

/** The flavor of one activity phase; determines which rates dominate. */
enum class PhaseType
{
    NetworkFetch, ///< Resource download burst: NIC IRQs + NET_RX softirqs.
    ParseLayout,  ///< HTML/CSS processing: CPU + memory churn.
    Script,       ///< JS execution and GC: CPU, TLB shootdowns, wakeups.
    Render,       ///< Paint/composite: graphics IRQs.
    Media,        ///< Video/audio: sustained periodic NIC + GPU activity.
};

/** One phase of a page load. */
struct ActivityPhase
{
    PhaseType type = PhaseType::NetworkFetch;
    TimeNs start = 0;    ///< Offset from navigation start.
    TimeNs duration = 0; ///< Phase length.
    double intensity = 1.0; ///< Scales the type's characteristic rates.
};

/** A short burst of activity at a fixed offset (amazon's 5 s/10 s spikes). */
struct ActivitySpike
{
    TimeNs at = 0;
    TimeNs duration = 200 * kMsec;
    double intensity = 1.0;
    PhaseType type = PhaseType::NetworkFetch;
};

/** The stable identity of one website's load behaviour. */
struct SiteSignature
{
    SiteId id = 0;
    std::string name;
    std::vector<ActivityPhase> phases;
    std::vector<ActivitySpike> spikes;
    /** Baseline idle activity after load completes (ads, heartbeats). */
    double idleIntensity = 0.05;
    /** Bias of this site toward resched/TLB churn (weather.com-like). */
    double reschedBias = 1.0;
    /** Bias toward cache-heavy working sets. */
    double cacheBias = 1.0;
    /**
     * Bias of this site's deferred-softirq pressure (packet-batch sizes
     * and ksoftirqd storm intensity). Together with reschedBias this
     * gives each site a fine-timescale interrupt *texture* fingerprint
     * that survives macro-timing jitter between loads.
     */
    double softirqBias = 1.0;
    /**
     * Sub-100 ms activity cadence: render-frame pacing and packet-burst
     * trains give each site a characteristic micro-rhythm. This is the
     * structure a 0.1 ms timer can exploit but a 100 ms quantized timer
     * averages away (Table 4's jittered-vs-quantized gap).
     */
    TimeNs microPeriod = 60 * kMsec;
    /** Fraction of each micro-period that is active. */
    double microDuty = 0.5;
};

/** Per-run variation parameters applied when realizing a signature. */
struct RealizationNoise
{
    double phaseStartJitterMs = 150.0; ///< Stddev of phase start shifts.
    double phaseDurationSigma = 0.18;  ///< Lognormal sigma on durations.
    double rateSigma = 0.22;           ///< Lognormal sigma on phase rates.
    double runLoadSigma = 0.15;        ///< Lognormal sigma shared per run.

    bool operator==(const RealizationNoise &) const = default;
};

/**
 * Converts the characteristic rates of a phase type into an
 * ActivitySample, scaled by the phase intensity and signature biases.
 */
sim::ActivitySample phaseRates(PhaseType type, double intensity,
                               const SiteSignature &signature);

/**
 * Realizes one run of one site as a victim ActivityTimeline.
 *
 * @param signature The site to load.
 * @param duration Trace length.
 * @param loadTimeScale Stretch factor on the load (Tor Browser ~3x).
 * @param noise Per-run variation parameters.
 * @param rng Per-run randomness.
 */
sim::ActivityTimeline realizeWorkload(const SiteSignature &signature,
                                      TimeNs duration, double loadTimeScale,
                                      const RealizationNoise &noise,
                                      Rng &rng);

} // namespace bigfish::web

#endif // BF_WEB_SITE_HH
