/**
 * @file
 * TraceCollector: the end-to-end trace-collection pipeline.
 *
 * One CollectionConfig describes a full experimental configuration — the
 * machine and OS (Table 1 rows, Table 3 isolation knobs), the browser
 * (timer + load behavior), an optional timer override (Table 4
 * defenses), optional noise countermeasures (Table 2), and an optional
 * FaultConfig (dropped or duplicated interrupts, skewed/non-monotonic
 * timers, attacker stalls, truncated traces). TraceCollector realizes
 * victim workloads, synthesizes interrupt timelines, applies browser
 * runtime effects, defense overlays and injected faults, runs the
 * attackers, and returns labeled traces.
 *
 * The attacker kind (Figure 2a vs 2b) is an argument of every
 * collection call, not part of the config: both attackers watch the
 * same victim, and synthesis, timer seeding and fault planning never
 * depend on which one measures, so one synthesized timeline serves
 * every attacker of a call.
 *
 * Seeding is fully deterministic: trace (site, run) under the same
 * config always reproduces bit-identically, faults included.
 *
 * The victim's base timeline (everything before applyBrowserRuntime)
 * depends only on TimelineInputs. Configs that agree on them — Chrome,
 * Firefox and Safari on one OS, or Table 4's timer variants — form a
 * group, and collectClosedWorldGroup()/collectOpenWorldGroup()
 * synthesize each (site, run) base once for the whole group.
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

/**
 * Everything TraceCollector reads to synthesize the base timeline of a
 * (site, run), i.e. before the browser runtime and injected faults are
 * applied: the machine, the realization noise, the browser's three load
 * fields, the defense overlays with their parameters, and the seed.
 * The base synthesis takes only this type, so two configs with equal
 * TimelineInputs synthesize byte-identical base timelines and equality
 * cannot miss an input.
 */
struct TimelineInputs
{
    sim::MachineConfig machine;
    web::RealizationNoise realization;
    TimeNs traceDuration = 0;
    double loadTimeScale = 1.0;
    double loadVariability = 1.0;
    bool spuriousInterruptNoise = false;
    defense::SpuriousInterruptParams spuriousParams;
    bool cacheSweepNoise = false;
    defense::CacheSweepParams cacheSweepParams;
    bool backgroundApps = false;
    std::uint64_t seed = 0;

    /** The timeline inputs of @p config. */
    static TimelineInputs of(const CollectionConfig &config);

    bool operator==(const TimelineInputs &) const = default;
};

/** Accounting of one closed/open-world collection sweep. */
struct CollectionStats
{
    std::size_t attempted = 0; ///< Traces collection was attempted for.
    std::size_t collected = 0; ///< Traces that made it into the set.
    std::size_t dropped = 0;   ///< Traces dropped as unusable.
};

/** One group member's collection: a TraceSet per attacker, with stats. */
struct MemberCollection
{
    std::vector<attack::TraceSet> sets;
    std::vector<CollectionStats> stats;
};

/** Collects traces for one configuration. */
class TraceCollector
{
  public:
    /** Fewest periods a trace must keep to be usable by the pipeline. */
    static constexpr std::size_t kMinViablePeriods = 4;

    explicit TraceCollector(CollectionConfig config);

    const CollectionConfig &config() const { return config_; }

    const TimelineInputs &timelineInputs() const { return inputs_; }

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
     * Collects one trace of @p site with @p attacker. Fails (without
     * terminating) when the trace comes back unusable — e.g.
     * fault-truncated below kMinViablePeriods or empty.
     */
    [[nodiscard]] Result<attack::Trace>
    collectOne(attack::AttackerKind attacker, const web::SiteSignature &site,
               int run_index) const;

    /**
     * Closed-world dataset: @p traces_per_site traces of every catalog
     * site, labeled by site id, as one TraceSet per attacker in
     * @p attackers; all attackers share every synthesized timeline.
     * Unusable traces are dropped with accounting in @p stats (optional,
     * resized to one entry per attacker); the call fails only when the
     * configuration is invalid or an attacker kept no trace at all.
     * @p perf (optional) accumulates simulator work counters, summed over
     * cells in serial order so the totals are identical at any thread
     * count; cells replayed from the cache contribute zero (counters
     * measure work performed).
     */
    [[nodiscard]] Result<std::vector<attack::TraceSet>>
    collectClosedWorldMulti(const web::SiteCatalog &catalog,
                            int traces_per_site,
                            std::span<const attack::AttackerKind> attackers,
                            std::vector<CollectionStats> *stats = nullptr,
                            sim::PerfCounters *perf = nullptr) const;

    /**
     * Open-world extension of collectClosedWorldMulti(): @p num_extra
     * traces, each of a distinct one-off site, all labeled
     * @p non_sensitive_label.
     */
    [[nodiscard]] Result<std::vector<attack::TraceSet>>
    collectOpenWorldMulti(const web::SiteCatalog &catalog, int num_extra,
                          Label non_sensitive_label,
                          std::span<const attack::AttackerKind> attackers,
                          std::vector<CollectionStats> *stats = nullptr,
                          sim::PerfCounters *perf = nullptr) const;

    /**
     * Closed-world collection for several collectors whose configs have
     * equal TimelineInputs (the call fails otherwise). Every (site, run)
     * task synthesizes the base timeline once, and only when some
     * member's cell is not in that member's cache. Each member that
     * needs the cell finishes its own copy of the base (browser runtime,
     * faults) and runs every attacker with its own timer and period, so
     * its sets are bit-identical to its own collectClosedWorldMulti(),
     * which is this call with one member. @p perf (optional) sums the
     * whole group's work in serial cell order: a synthesis is counted
     * once.
     */
    [[nodiscard]] static Result<std::vector<MemberCollection>>
    collectClosedWorldGroup(std::span<const TraceCollector *const> members,
                            const web::SiteCatalog &catalog,
                            int traces_per_site,
                            std::span<const attack::AttackerKind> attackers,
                            sim::PerfCounters *perf = nullptr);

    /** Open-world counterpart of collectClosedWorldGroup(). */
    [[nodiscard]] static Result<std::vector<MemberCollection>>
    collectOpenWorldGroup(std::span<const TraceCollector *const> members,
                          const web::SiteCatalog &catalog, int num_extra,
                          Label non_sensitive_label,
                          std::span<const attack::AttackerKind> attackers,
                          sim::PerfCounters *perf = nullptr);

  private:
    /** Per-(site, run) fault-plan salt (independent of the trace RNG). */
    std::uint64_t faultSalt(SiteId site_id, int run_index) const;

    /**
     * Turns a base timeline (TimelineInputs only) into this config's
     * ground truth: browser runtime effects drawn from @p browser_rng,
     * then timeline-level faults.
     */
    void finishTimeline(sim::RunTimeline &timeline, Rng &browser_rng,
                        const web::SiteSignature &site,
                        int run_index) const;

    /**
     * Runs @p attacker over an already-synthesized timeline: fresh timer
     * from the (attacker-independent) @p timer_seed, fault wrapping,
     * attack, truncation and viability checks. Every collection call
     * shares this path, which is what makes the shared timeline
     * bit-compatible with separate single-attacker collections.
     */
    [[nodiscard]] Result<attack::Trace>
    collectForAttacker(attack::AttackerKind attacker,
                       const web::SiteSignature &site, int run_index,
                       const sim::RunTimeline &timeline,
                       const sim::FaultPlan &plan,
                       std::uint64_t timer_seed,
                       sim::PerfCounters *perf = nullptr) const;

    /** Every attacker over one finished timeline of (site, run). */
    [[nodiscard]] std::vector<Result<attack::Trace>>
    attackTimeline(const web::SiteSignature &site, int run_index,
                   const sim::RunTimeline &timeline,
                   std::span<const attack::AttackerKind> attackers,
                   sim::PerfCounters *perf) const;

    /**
     * Cell (world, site_key, run) of every member, each replayed from
     * that member's cache or collected over one shared base timeline,
     * which is synthesized only if some member needs it.
     */
    [[nodiscard]] static std::vector<std::vector<Result<attack::Trace>>>
    collectGroupCell(std::span<const TraceCollector *const> members,
                     int world, SiteId site_key,
                     const web::SiteSignature &site, int run_index,
                     std::span<const attack::AttackerKind> attackers,
                     sim::PerfCounters *perf);

    /** Cell (world, site_key, run) from the attached cache, if stored. */
    [[nodiscard]] std::optional<std::vector<Result<attack::Trace>>>
    replayCell(int world, SiteId site_key, int run_index,
               std::size_t attackers) const;

    /** Stores a freshly collected cell in the attached cache, if any. */
    void storeCell(int world, SiteId site_key, int run_index,
                   const std::vector<Result<attack::Trace>> &cell) const;

    CollectionConfig config_;
    TimelineInputs inputs_;
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
