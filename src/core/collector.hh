/**
 * @file
 * TraceCollector: the end-to-end trace-collection pipeline.
 *
 * One CollectionConfig describes a full experimental configuration — the
 * machine and OS (Table 1 rows, Table 3 isolation knobs), the browser
 * (timer + load behavior), the attacker kind (Figure 2a vs 2b), an
 * optional timer override (Table 4 defenses), optional noise
 * countermeasures (Table 2), and an optional FaultConfig (dropped or
 * duplicated interrupts, skewed/non-monotonic timers, attacker stalls,
 * truncated traces). TraceCollector realizes victim workloads,
 * synthesizes interrupt timelines, applies browser runtime effects,
 * defense overlays and injected faults, runs the attacker, and returns
 * labeled traces.
 *
 * Seeding is fully deterministic: trace (site, run) under the same
 * config always reproduces bit-identically, faults included.
 *
 * Error contract: per-trace collection returns Result<Trace>; a trace
 * degraded below usability (e.g. truncated to a handful of periods) is
 * an error, not a crash. The closed/open-world collectors drop such
 * traces with accounting (CollectionStats) instead of aborting the run.
 */

#ifndef BF_CORE_COLLECTOR_HH
#define BF_CORE_COLLECTOR_HH

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "attack/attacker.hh"
#include "attack/trace.hh"
#include "base/result.hh"
#include "defense/noise.hh"
#include "sim/faults.hh"
#include "sim/machine.hh"
#include "sim/perf.hh"
#include "sim/synthesizer.hh"
#include "timers/timer.hh"
#include "web/browser.hh"
#include "web/catalog.hh"

namespace bigfish::core {

class StageCache;

/** One full experimental configuration. */
struct CollectionConfig
{
    sim::MachineConfig machine = sim::MachineConfig::linuxDesktop();
    web::BrowserProfile browser = web::BrowserProfile::chrome();
    attack::AttackerKind attacker = attack::AttackerKind::LoopCounting;
    attack::AttackerParams attackerParams;

    /** Replaces the browser's timer (Table 4 timer defenses). */
    std::optional<timers::TimerSpec> timerOverride;
    /** Period length P; 0 means "use the browser default". */
    TimeNs period = 0;

    /** Enables the spurious-interrupt countermeasure (Section 6.2). */
    bool spuriousInterruptNoise = false;
    defense::SpuriousInterruptParams spuriousParams;
    /** Enables the cache-sweep countermeasure (Shusterman et al.). */
    bool cacheSweepNoise = false;
    defense::CacheSweepParams cacheSweepParams;
    /** Runs Slack + Spotify in the background (Section 4.2). */
    bool backgroundApps = false;

    /** Run-to-run victim variation. */
    web::RealizationNoise realization;

    /**
     * Injected faults (sim/faults.hh); disabled by default. Fault
     * randomness derives from (faults.seed, site, run), so any
     * Table-1/2/3 configuration re-runs bit-identically under faults.
     */
    sim::FaultConfig faults;

    /** Master seed; everything derives from it. */
    std::uint64_t seed = 42;

    /** Effective period (override or browser default). */
    TimeNs effectivePeriod() const
    {
        return period > 0 ? period : browser.period;
    }

    /** Effective timer spec (override or browser timer). */
    timers::TimerSpec effectiveTimer() const
    {
        return timerOverride ? *timerOverride : browser.timer;
    }
};

/** Accounting of one closed/open-world collection sweep. */
struct CollectionStats
{
    std::size_t attempted = 0; ///< Traces collection was attempted for.
    std::size_t collected = 0; ///< Traces that made it into the set.
    std::size_t dropped = 0;   ///< Traces dropped as unusable.
};

/** Collects traces for one configuration. */
class TraceCollector
{
  public:
    /** Fewest periods a trace must keep to be usable by the pipeline. */
    static constexpr std::size_t kMinViablePeriods = 4;

    explicit TraceCollector(CollectionConfig config);

    const CollectionConfig &config() const { return config_; }

    /**
     * Attaches a stage cache (core/stage_cache.hh): completed (world,
     * site, run) cells are replayed from its "cell" entries instead of
     * being recollected, and fresh cells are stored as soon as they
     * finish. Cells are keyed by @p fingerprint — the run's
     * collectionFingerprint() — mixed with (world, site, run). Because
     * every cell is a pure function of (config, site, run), the cache
     * never changes *what* is collected — only whether the work is
     * redone — which is the bit-identical-resume contract. @p cache
     * must outlive the collection calls; nullptr detaches.
     */
    void setCache(StageCache *cache, std::uint64_t fingerprint)
    {
        cache_ = cache;
        cacheFingerprint_ = fingerprint;
    }

    /**
     * Synthesizes the attacker-core timeline for (site, run) —
     * deterministic in (config seed, site id, run index). Exposed so the
     * kernel tracer and gap detector can observe the same ground truth
     * the attacker measured. Timeline-level faults (dropped/duplicated
     * interrupts, stalls) are already applied, so observers and the
     * attacker keep sharing one ground truth under injected faults.
     *
     * @param perf When non-null, accumulates simulator work counters
     *             (sim/perf.hh) for this synthesis.
     */
    sim::RunTimeline synthesizeTimeline(const web::SiteSignature &site,
                                        int run_index,
                                        sim::PerfCounters *perf =
                                            nullptr) const;

    /**
     * Collects one trace of @p site. Fails (without terminating) when
     * the trace comes back unusable — e.g. fault-truncated below
     * kMinViablePeriods or empty.
     */
    [[nodiscard]] Result<attack::Trace> collectOne(const web::SiteSignature &site,
                                     int run_index) const;

    /** collectOne() that fatal()s on failure (binary boundaries only). */
    attack::Trace collectOneOrDie(const web::SiteSignature &site,
                                  int run_index) const;

    /**
     * Collects one trace of @p site per attacker in @p attackers, all
     * from a single timeline synthesis. Timeline synthesis, timer
     * seeding and fault planning are attacker-independent, so each
     * returned trace is bit-identical to a separate collectOne() call
     * under a config whose only difference is `attacker` — but the
     * expensive synthesis runs once instead of attackers.size() times.
     * The config's own `attacker` field is ignored.
     */
    [[nodiscard]] std::vector<Result<attack::Trace>>
    collectOneMulti(const web::SiteSignature &site, int run_index,
                    std::span<const attack::AttackerKind> attackers,
                    sim::PerfCounters *perf = nullptr) const;

    /**
     * Closed-world dataset: @p traces_per_site traces of every catalog
     * site, labeled by site id. Unusable traces are dropped with
     * accounting in @p stats (optional); the call fails only when the
     * configuration is invalid or no trace at all survived.
     */
    [[nodiscard]] Result<attack::TraceSet>
    collectClosedWorld(const web::SiteCatalog &catalog, int traces_per_site,
                       CollectionStats *stats = nullptr) const;

    /** collectClosedWorld() that fatal()s on failure. */
    attack::TraceSet
    collectClosedWorldOrDie(const web::SiteCatalog &catalog,
                            int traces_per_site,
                            CollectionStats *stats = nullptr) const;

    /**
     * Closed-world collection for several attackers sharing every
     * synthesized timeline (see collectOneMulti). Returns one TraceSet
     * per attacker, each bit-identical to a collectClosedWorld() under
     * the corresponding single-attacker config; @p stats (optional) is
     * resized to one entry per attacker. @p perf (optional) accumulates
     * simulator work counters, summed over cells in serial order so the
     * totals are identical at any thread count; cells replayed from the
     * cache contribute zero (counters measure work performed).
     */
    [[nodiscard]] Result<std::vector<attack::TraceSet>>
    collectClosedWorldMulti(const web::SiteCatalog &catalog,
                            int traces_per_site,
                            std::span<const attack::AttackerKind> attackers,
                            std::vector<CollectionStats> *stats = nullptr,
                            sim::PerfCounters *perf = nullptr) const;

    /**
     * Open-world extension: @p num_extra traces, each of a distinct
     * one-off site, all labeled @p non_sensitive_label. Unusable traces
     * are dropped with accounting in @p stats (optional).
     */
    [[nodiscard]] Result<attack::TraceSet>
    collectOpenWorld(const web::SiteCatalog &catalog, int num_extra,
                     Label non_sensitive_label,
                     CollectionStats *stats = nullptr) const;

    /** collectOpenWorld() that fatal()s on failure. */
    attack::TraceSet
    collectOpenWorldOrDie(const web::SiteCatalog &catalog, int num_extra,
                          Label non_sensitive_label,
                          CollectionStats *stats = nullptr) const;

    /** Open-world counterpart of collectClosedWorldMulti(). */
    [[nodiscard]] Result<std::vector<attack::TraceSet>>
    collectOpenWorldMulti(const web::SiteCatalog &catalog, int num_extra,
                          Label non_sensitive_label,
                          std::span<const attack::AttackerKind> attackers,
                          std::vector<CollectionStats> *stats = nullptr,
                          sim::PerfCounters *perf = nullptr) const;

  private:
    /** Per-(site, run) root randomness. */
    Rng traceRng(SiteId site_id, int run_index) const;

    /** Per-(site, run) fault-plan salt (independent of traceRng). */
    std::uint64_t faultSalt(SiteId site_id, int run_index) const;

    /**
     * Runs @p attacker over an already-synthesized timeline: fresh timer
     * from the (attacker-independent) @p timer_seed, fault wrapping,
     * attack, truncation and viability checks. collectOne() and
     * collectOneMulti() share this path, which is what makes the shared
     * timeline bit-compatible with separate single-attacker collections.
     */
    [[nodiscard]] Result<attack::Trace>
    collectForAttacker(attack::AttackerKind attacker,
                       const web::SiteSignature &site, int run_index,
                       const sim::RunTimeline &timeline,
                       const sim::FaultPlan &plan,
                       std::uint64_t timer_seed,
                       sim::PerfCounters *perf = nullptr) const;

    /**
     * Replays (world, site_key, run) from the attached cache when it
     * was completed earlier; otherwise collects and stores it. The
     * no-cache path is a plain collectOneMulti() call.
     */
    [[nodiscard]] std::vector<Result<attack::Trace>>
    collectCellCached(int world, SiteId site_key,
                      const web::SiteSignature &site, int run_index,
                      std::span<const attack::AttackerKind> attackers,
                      sim::PerfCounters *perf = nullptr) const;

    CollectionConfig config_;
    sim::InterruptSynthesizer synthesizer_;
    StageCache *cache_ = nullptr;
    std::uint64_t cacheFingerprint_ = 0;
};

/**
 * Deterministic fingerprint of everything a collected trace's content
 * depends on: the full CollectionConfig (signal faults included, IO
 * faults excluded — they never alter content), the catalog geometry and
 * the attacker set. Two configurations hash equal iff their collected
 * cells are interchangeable.
 */
[[nodiscard]] std::uint64_t
collectionFingerprint(const CollectionConfig &config,
                      std::uint64_t catalog_seed, int num_sites,
                      int open_world_extra,
                      std::span<const attack::AttackerKind> attackers);

} // namespace bigfish::core

#endif // BF_CORE_COLLECTOR_HH
