#include "core/collector.hh"

#include <cmath>

#include "base/hash.hh"
#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "core/stage_cache.hh"

namespace bigfish::core {

namespace {

/** The two collection worlds, separate cell key spaces. */
constexpr int kClosedWorldCell = 0;
constexpr int kOpenWorldCell = 1;

/** The "cell" entry key of (world, site, run) under @p fingerprint. */
std::uint64_t
cellKey(std::uint64_t fingerprint, int world, SiteId site, int run)
{
    std::uint64_t key = fingerprint;
    for (const int part : {world, static_cast<int>(site), run})
        key = mix64(key ^ static_cast<std::uint64_t>(part));
    return key;
}

/** One-line-per-field canonical form of a config, for fingerprinting. */
struct Canonical
{
    std::string text;

    void
    add(const char *key, const std::string &value)
    {
        text += key;
        text += '=';
        text += value;
        text += '\n';
    }
    void add(const char *key, double v) { add(key, hexDouble(v)); }
    void add(const char *key, bool v) { add(key, std::string(v ? "1" : "0")); }
    void
    add(const char *key, std::int64_t v)
    {
        add(key, std::to_string(v));
    }
    void add(const char *key, int v) { add(key, std::int64_t(v)); }
    void
    add(const char *key, std::uint64_t v)
    {
        add(key, hex16(v));
    }
};

/** One collected cell and the simulator work it took (zero when
 *  replayed from the cache). */
using CellResult = std::pair<CollectedCell, sim::PerfCounters>;

/**
 * Accounts collected cells in serial order into one TraceSet per
 * attacker: drops are counted, kept traces are relabeled to @p relabel
 * when set, and the cells' perf counters are summed in that same order,
 * so the sets, @p stats and @p perf are identical at any thread count.
 * Fails when an attacker kept no trace of a non-empty @p world.
 */
Result<std::vector<attack::TraceSet>>
accountCells(std::vector<CellResult> &results, std::size_t attackers,
             const char *world, std::optional<Label> relabel,
             std::vector<CollectionStats> *stats, sim::PerfCounters *perf)
{
    std::vector<CollectionStats> local(attackers);
    std::vector<attack::TraceSet> sets(attackers);
    for (attack::TraceSet &set : sets)
        set.traces.reserve(results.size());
    for (auto &[cell, cell_perf] : results) {
        if (perf != nullptr)
            *perf += cell_perf;
        for (std::size_t a = 0; a < attackers; ++a) {
            ++local[a].attempted;
            if (!cell[a].isOk()) {
                ++local[a].dropped;
                warnOnce("collector/dropped-trace",
                         "dropping unusable trace(s); first: " +
                             cell[a].status().toString());
                continue;
            }
            ++local[a].collected;
            if (relabel)
                cell[a].value().label = *relabel;
            sets[a].add(std::move(cell[a].value()));
        }
    }
    if (stats != nullptr)
        *stats = local;
    for (std::size_t a = 0; a < attackers; ++a) {
        if (!results.empty() && sets[a].traces.empty())
            return Status(exhaustedError(
                std::string(world) + " collection dropped all " +
                std::to_string(local[a].attempted) + " traces"));
    }
    return sets;
}

void
addTimerSpec(Canonical &canon, const char *prefix,
             const timers::TimerSpec &spec)
{
    const std::string p(prefix);
    canon.add((p + ".kind").c_str(), static_cast<int>(spec.kind));
    canon.add((p + ".resolution").c_str(),
              static_cast<std::int64_t>(spec.resolution));
    canon.add((p + ".rand.resolution").c_str(),
              static_cast<std::int64_t>(spec.randomized.resolution));
    canon.add((p + ".rand.alphaLo").c_str(), spec.randomized.alphaLo);
    canon.add((p + ".rand.alphaHi").c_str(), spec.randomized.alphaHi);
    canon.add((p + ".rand.betaLo").c_str(), spec.randomized.betaLo);
    canon.add((p + ".rand.betaHi").c_str(), spec.randomized.betaHi);
    canon.add((p + ".rand.threshold").c_str(),
              static_cast<std::int64_t>(spec.randomized.threshold));
}

} // namespace

TraceCollector::TraceCollector(CollectionConfig config)
    : config_(std::move(config)), synthesizer_(config_.machine)
{
}

Rng
TraceCollector::traceRng(SiteId site_id, int run_index) const
{
    return Rng(mix64(config_.seed) ^
               mix64(static_cast<std::uint64_t>(site_id) * 1000003ULL +
                     static_cast<std::uint64_t>(run_index) + 17ULL));
}

std::uint64_t
TraceCollector::faultSalt(SiteId site_id, int run_index) const
{
    return mix64(static_cast<std::uint64_t>(site_id) * 2654435761ULL +
                 static_cast<std::uint64_t>(run_index) + 101ULL);
}

sim::RunTimeline
TraceCollector::synthesizeTimeline(const web::SiteSignature &site,
                                   int run_index,
                                   sim::PerfCounters *perf) const
{
    Rng rng = traceRng(site.id, run_index);
    Rng workload_rng = rng.fork(1);
    Rng synth_rng = rng.fork(2);
    Rng browser_rng = rng.fork(3);
    Rng defense_rng = rng.fork(4);

    // The browser's connection path scales how repeatable loads are
    // (Tor circuits make the same page load very differently each time).
    web::RealizationNoise noise = config_.realization;
    noise.phaseStartJitterMs *= config_.browser.loadVariability;
    noise.phaseDurationSigma *= config_.browser.loadVariability;
    noise.rateSigma *= config_.browser.loadVariability;
    noise.runLoadSigma *= config_.browser.loadVariability;

    sim::ActivityTimeline activity = web::realizeWorkload(
        site, config_.browser.traceDuration, config_.browser.loadTimeScale,
        noise, workload_rng);

    if (config_.spuriousInterruptNoise) {
        activity.superimpose(defense::spuriousInterruptOverlay(
            activity.duration(), config_.spuriousParams, defense_rng));
    }
    if (config_.cacheSweepNoise) {
        activity.superimpose(defense::cacheSweepOverlay(
            activity.duration(), config_.cacheSweepParams));
    }
    if (config_.backgroundApps) {
        activity.superimpose(defense::backgroundAppsOverlay(
            activity.duration(), defense_rng));
    }
    activity.clampPhysical();

    sim::RunTimeline timeline =
        synthesizer_.synthesize(activity, synth_rng, perf);
    web::applyBrowserRuntime(timeline, config_.browser, browser_rng);

    // Injected delivery faults and stalls mutate the shared ground
    // truth, so the kernel tracer / gap detector observe the same
    // faulted schedule the attacker measured.
    if (config_.faults.enabled()) {
        const sim::FaultPlan plan(config_.faults,
                                  faultSalt(site.id, run_index));
        plan.applyToTimeline(timeline);
    }
    return timeline;
}

Result<attack::Trace>
TraceCollector::collectForAttacker(attack::AttackerKind attacker,
                                   const web::SiteSignature &site,
                                   int run_index,
                                   const sim::RunTimeline &timeline,
                                   const sim::FaultPlan &plan,
                                   std::uint64_t timer_seed,
                                   sim::PerfCounters *perf) const
{
    auto timer = config_.effectiveTimer().make(timer_seed);
    if (plan.enabled())
        timer = plan.wrapTimer(std::move(timer));

    Result<attack::Trace> collected = attack::collectTrace(
        attacker, config_.attackerParams, config_.machine, timeline,
        *timer, config_.effectivePeriod(), timer_seed ^ 0x5eedULL);
    if (!collected.isOk())
        return collected;
    attack::Trace trace = std::move(collected.value());
    trace.siteId = site.id;
    trace.label = site.id;
    if (perf != nullptr) {
        // One simulated event per attacker measurement period, counted
        // before truncation faults trim the record: the work happened.
        perf->eventsSimulated +=
            static_cast<long long>(trace.counts.size());
        perf->allocations += 2; // counts + wallTimes materialization
    }

    if (plan.enabled()) {
        // Truncation faults cut the recorded suffix (victim navigated
        // away, tab killed); the counts/wallTimes stay aligned.
        const std::size_t keep = plan.truncatedLength(trace.counts.size());
        if (keep < trace.counts.size()) {
            trace.counts.resize(keep);
            if (trace.wallTimes.size() > keep)
                trace.wallTimes.resize(keep);
        }
    }

    if (trace.counts.size() < kMinViablePeriods) {
        return Status(dataError(
            "trace of site " + std::to_string(site.id) + " run " +
            std::to_string(run_index) + " has " +
            std::to_string(trace.counts.size()) + " periods (< " +
            std::to_string(kMinViablePeriods) + " required)"));
    }
    for (double c : trace.counts) {
        if (!std::isfinite(c))
            return Status(dataError(
                "trace of site " + std::to_string(site.id) + " run " +
                std::to_string(run_index) + " has non-finite counts"));
    }
    return trace;
}

Result<attack::Trace>
TraceCollector::collectOne(const web::SiteSignature &site,
                           int run_index) const
{
    if (config_.effectivePeriod() <= 0)
        return Status(invalidArgumentError(
            "collection period must be positive (browser default and "
            "override are both unset)"));
    const sim::RunTimeline timeline = synthesizeTimeline(site, run_index);
    const auto timer_seed =
        mix64(config_.seed ^ 0x71e4aeedULL) ^
        mix64(static_cast<std::uint64_t>(site.id) * 7919ULL +
              static_cast<std::uint64_t>(run_index));
    const sim::FaultPlan plan(config_.faults,
                              faultSalt(site.id, run_index));
    return collectForAttacker(config_.attacker, site, run_index, timeline,
                              plan, timer_seed);
}

std::vector<Result<attack::Trace>>
TraceCollector::collectOneMulti(
    const web::SiteSignature &site, int run_index,
    std::span<const attack::AttackerKind> attackers,
    sim::PerfCounters *perf) const
{
    std::vector<Result<attack::Trace>> out;
    out.reserve(attackers.size());
    if (config_.effectivePeriod() <= 0) {
        for (std::size_t i = 0; i < attackers.size(); ++i)
            out.emplace_back(Status(invalidArgumentError(
                "collection period must be positive (browser default and "
                "override are both unset)")));
        return out;
    }
    // Everything up to the attack itself — victim workload, timeline
    // synthesis, browser runtime, fault plan, timer seed — depends only
    // on (config seed, site, run). Synthesize once and run each attacker
    // over the shared ground truth with its own freshly seeded timer.
    const sim::RunTimeline timeline =
        synthesizeTimeline(site, run_index, perf);
    const auto timer_seed =
        mix64(config_.seed ^ 0x71e4aeedULL) ^
        mix64(static_cast<std::uint64_t>(site.id) * 7919ULL +
              static_cast<std::uint64_t>(run_index));
    const sim::FaultPlan plan(config_.faults,
                              faultSalt(site.id, run_index));
    for (attack::AttackerKind attacker : attackers)
        out.push_back(collectForAttacker(attacker, site, run_index,
                                         timeline, plan, timer_seed, perf));
    return out;
}

std::vector<Result<attack::Trace>>
TraceCollector::collectCellCached(
    int world, SiteId site_key, const web::SiteSignature &site,
    int run_index, std::span<const attack::AttackerKind> attackers,
    sim::PerfCounters *perf) const
{
    if (cache_ == nullptr)
        return collectOneMulti(site, run_index, attackers, perf);
    const std::uint64_t key =
        cellKey(cacheFingerprint_, world, site_key, run_index);
    if (const auto payload = cache_->lookup(kCellKind, key)) {
        // A cell stored under a different attacker set cannot occur (the
        // fingerprint keys the attacker list), but stay defensive: an
        // undecodable or mis-sized cell is dropped and recollected.
        // Replayed cells deliberately add nothing to *perf: the counters
        // measure work performed, exactly like cpuSeconds.
        auto cached = decodeCell(*payload);
        if (cached.has_value() && cached->size() == attackers.size())
            return std::move(*cached);
        cache_->remove(kCellKind, key);
    }
    auto cell = collectOneMulti(site, run_index, attackers, perf);
    // A cache that stops accepting entries (disk full, directory
    // deleted) only costs resumability, never the run itself.
    const Status stored = cache_->put(kCellKind, key, encodeCell(cell));
    if (!stored.isOk())
        warnOnce("collector/cell-store",
                 "storing a collected cell failed (run continues without "
                 "resumability): " +
                     stored.toString());
    return cell;
}

attack::Trace
TraceCollector::collectOneOrDie(const web::SiteSignature &site,
                                int run_index) const
{
    // OrDie wrapper implementation: abort-on-error is the contract.
    // bigfish-lint: allow(ordie-outside-binary)
    return collectOne(site, run_index).valueOrDie();
}

Result<attack::TraceSet>
TraceCollector::collectClosedWorld(const web::SiteCatalog &catalog,
                                   int traces_per_site,
                                   CollectionStats *stats) const
{
    const attack::AttackerKind attackers[] = {config_.attacker};
    std::vector<CollectionStats> multi_stats;
    Result<std::vector<attack::TraceSet>> sets = collectClosedWorldMulti(
        catalog, traces_per_site, attackers,
        stats != nullptr ? &multi_stats : nullptr);
    if (!sets.isOk())
        return Status(sets.status());
    if (stats != nullptr)
        *stats = multi_stats[0];
    return std::move(sets.value()[0]);
}

Result<std::vector<attack::TraceSet>>
TraceCollector::collectClosedWorldMulti(
    const web::SiteCatalog &catalog, int traces_per_site,
    std::span<const attack::AttackerKind> attackers,
    std::vector<CollectionStats> *stats, sim::PerfCounters *perf) const
{
    if (traces_per_site <= 0)
        return Status(
            invalidArgumentError("traces_per_site must be positive"));
    if (attackers.empty())
        return Status(
            invalidArgumentError("need at least one attacker kind"));
    const std::size_t cells =
        static_cast<std::size_t>(catalog.size()) *
        static_cast<std::size_t>(traces_per_site);

    // Every (site, run) cell derives its randomness from the config seed
    // alone, so the cells are independent and collect in parallel; each
    // result lands in its own pre-sized slot. The accounting pass below
    // walks the slots in serial order, so the produced TraceSets, the
    // dropped-trace stats and the summed perf counters are identical at
    // any thread count.
    auto results = parallelMap(cells, [&](std::size_t idx) {
        const SiteId id = static_cast<SiteId>(
            idx / static_cast<std::size_t>(traces_per_site));
        const int run = static_cast<int>(
            idx % static_cast<std::size_t>(traces_per_site));
        sim::PerfCounters cell_perf;
        auto traces = collectCellCached(
            kClosedWorldCell, id, catalog.site(id), run, attackers,
            perf != nullptr ? &cell_perf : nullptr);
        return std::make_pair(std::move(traces), cell_perf);
    });
    return accountCells(results, attackers.size(), "closed-world",
                        std::nullopt, stats, perf);
}

attack::TraceSet
TraceCollector::collectClosedWorldOrDie(const web::SiteCatalog &catalog,
                                        int traces_per_site,
                                        CollectionStats *stats) const
{
    // OrDie wrapper implementation: abort-on-error is the contract.
    // bigfish-lint: allow(ordie-outside-binary)
    return collectClosedWorld(catalog, traces_per_site, stats).valueOrDie();
}

Result<attack::TraceSet>
TraceCollector::collectOpenWorld(const web::SiteCatalog &catalog,
                                 int num_extra, Label non_sensitive_label,
                                 CollectionStats *stats) const
{
    const attack::AttackerKind attackers[] = {config_.attacker};
    std::vector<CollectionStats> multi_stats;
    Result<std::vector<attack::TraceSet>> sets = collectOpenWorldMulti(
        catalog, num_extra, non_sensitive_label, attackers,
        stats != nullptr ? &multi_stats : nullptr);
    if (!sets.isOk())
        return Status(sets.status());
    if (stats != nullptr)
        *stats = multi_stats[0];
    return std::move(sets.value()[0]);
}

Result<std::vector<attack::TraceSet>>
TraceCollector::collectOpenWorldMulti(
    const web::SiteCatalog &catalog, int num_extra,
    Label non_sensitive_label,
    std::span<const attack::AttackerKind> attackers,
    std::vector<CollectionStats> *stats, sim::PerfCounters *perf) const
{
    if (attackers.empty())
        return Status(
            invalidArgumentError("need at least one attacker kind"));
    const std::size_t cells =
        static_cast<std::size_t>(std::max(num_extra, 0));
    // Each open-world trace visits a distinct one-off site (the paper's
    // 5,000 unique non-sensitive pages); the cells are independent, so
    // they collect in parallel with the same slot-then-account scheme as
    // the closed world.
    // The cache keys open-world cells by extension index (not the
    // one-off site id), which is stable across catalog id schemes.
    auto results = parallelMap(cells, [&](std::size_t i) {
        sim::PerfCounters cell_perf;
        auto traces = collectCellCached(
            kOpenWorldCell, static_cast<SiteId>(i),
            catalog.openWorldSite(static_cast<int>(i)), 0, attackers,
            perf != nullptr ? &cell_perf : nullptr);
        return std::make_pair(std::move(traces), cell_perf);
    });
    return accountCells(results, attackers.size(), "open-world",
                        non_sensitive_label, stats, perf);
}

attack::TraceSet
TraceCollector::collectOpenWorldOrDie(const web::SiteCatalog &catalog,
                                      int num_extra,
                                      Label non_sensitive_label,
                                      CollectionStats *stats) const
{
    return collectOpenWorld(catalog, num_extra, non_sensitive_label, stats)
        // OrDie wrapper implementation: abort-on-error is the contract.
        // bigfish-lint: allow(ordie-outside-binary)
        .valueOrDie();
}

std::uint64_t
collectionFingerprint(const CollectionConfig &config,
                      std::uint64_t catalog_seed, int num_sites,
                      int open_world_extra,
                      std::span<const attack::AttackerKind> attackers)
{
    Canonical canon;
    canon.add("format", std::string("bigfish-collection-v1"));
    canon.add("catalog.seed", catalog_seed);
    canon.add("catalog.sites", num_sites);
    canon.add("catalog.openExtra", open_world_extra);
    for (const auto kind : attackers)
        canon.add("attacker", attack::attackerKindName(kind));

    const sim::MachineConfig &m = config.machine;
    canon.add("machine.numCores", m.numCores);
    canon.add("machine.attackerCore", m.attackerCore);
    canon.add("machine.os.name", m.os.name);
    canon.add("machine.os.tickHz", m.os.tickHz);
    canon.add("machine.os.handlerScale", m.os.handlerScale);
    canon.add("machine.os.softirqShare", m.os.softirqShare);
    canon.add("machine.os.backgroundIrqRate", m.os.backgroundIrqRate);
    canon.add("machine.os.backgroundReschedRate",
              m.os.backgroundReschedRate);
    canon.add("machine.os.untraceableStallRate", m.os.untraceableStallRate);
    canon.add("machine.os.housekeepingBurstRate",
              m.os.housekeepingBurstRate);
    canon.add("machine.os.housekeepingIntensity",
              m.os.housekeepingIntensity);
    canon.add("machine.frequencyScaling", m.frequencyScaling);
    canon.add("machine.frequencyLoadDip", m.frequencyLoadDip);
    canon.add("machine.frequencyWalkSigma", m.frequencyWalkSigma);
    canon.add("machine.frequencyWalkTau",
              static_cast<std::int64_t>(m.frequencyWalkTau));
    canon.add("machine.pinnedCores", m.pinnedCores);
    canon.add("machine.routing", static_cast<int>(m.routing));
    canon.add("machine.vmIsolation", m.vmIsolation);
    for (int kind = 0; kind < sim::kNumInterruptKinds; ++kind) {
        const auto params = m.handlerCosts.params(
            static_cast<sim::InterruptKind>(kind));
        const std::string key = "machine.handler." + std::to_string(kind);
        canon.add((key + ".median").c_str(),
                  static_cast<std::int64_t>(params.median));
        canon.add((key + ".sigma").c_str(), params.sigma);
    }
    canon.add("machine.contextSwitchNs",
              static_cast<std::int64_t>(m.handlerCosts.contextSwitchNs));
    canon.add("machine.vmAmplification", m.handlerCosts.vmAmplification);
    canon.add("machine.vmExitNs",
              static_cast<std::int64_t>(m.handlerCosts.vmExitNs));
    canon.add("machine.timesliceNs",
              static_cast<std::int64_t>(m.timesliceNs));
    canon.add("machine.llcBytes", static_cast<std::int64_t>(m.llcBytes));
    canon.add("machine.lineBytes", m.lineBytes);
    canon.add("machine.sweepHitNsPerLine", m.sweepHitNsPerLine);
    canon.add("machine.sweepMissExtraNsPerLine", m.sweepMissExtraNsPerLine);

    const web::BrowserProfile &b = config.browser;
    canon.add("browser.name", b.name);
    addTimerSpec(canon, "browser.timer", b.timer);
    canon.add("browser.traceDuration",
              static_cast<std::int64_t>(b.traceDuration));
    canon.add("browser.loadTimeScale", b.loadTimeScale);
    canon.add("browser.loadVariability", b.loadVariability);
    canon.add("browser.runtimeNoiseSigma", b.runtimeNoiseSigma);
    canon.add("browser.stallRate", b.stallRate);
    canon.add("browser.stallMedian",
              static_cast<std::int64_t>(b.stallMedian));
    canon.add("browser.period", static_cast<std::int64_t>(b.period));

    canon.add("attackerParams.loopIterNs", config.attackerParams.loopIterNs);
    canon.add("attackerParams.sweepOverheadNs",
              config.attackerParams.sweepOverheadNs);
    canon.add("attackerParams.sweepObservedOccupancy",
              config.attackerParams.sweepObservedOccupancy);
    canon.add("attackerParams.sweepCostSigma",
              config.attackerParams.sweepCostSigma);

    canon.add("timerOverride", config.timerOverride.has_value());
    if (config.timerOverride)
        addTimerSpec(canon, "timerOverride", *config.timerOverride);
    canon.add("period", static_cast<std::int64_t>(config.period));

    canon.add("spuriousInterruptNoise", config.spuriousInterruptNoise);
    canon.add("spurious.burstsPerSecond",
              config.spuriousParams.burstsPerSecond);
    canon.add("spurious.burstMean",
              static_cast<std::int64_t>(config.spuriousParams.burstMean));
    canon.add("spurious.burstNetRate", config.spuriousParams.burstNetRate);
    canon.add("spurious.burstReschedRate",
              config.spuriousParams.burstReschedRate);
    canon.add("spurious.burstSoftirqWork",
              config.spuriousParams.burstSoftirqWork);
    canon.add("spurious.baselineNetRate",
              config.spuriousParams.baselineNetRate);
    canon.add("cacheSweepNoise", config.cacheSweepNoise);
    canon.add("cacheSweep.sweepOccupancy",
              config.cacheSweepParams.sweepOccupancy);
    canon.add("cacheSweep.sweepCpuLoad", config.cacheSweepParams.sweepCpuLoad);
    canon.add("cacheSweep.sweepReschedRate",
              config.cacheSweepParams.sweepReschedRate);
    canon.add("backgroundApps", config.backgroundApps);

    canon.add("realization.phaseStartJitterMs",
              config.realization.phaseStartJitterMs);
    canon.add("realization.phaseDurationSigma",
              config.realization.phaseDurationSigma);
    canon.add("realization.rateSigma", config.realization.rateSigma);
    canon.add("realization.runLoadSigma", config.realization.runLoadSigma);

    // Signal faults change trace content, so they key the cells; the IO
    // faults (ioCrashAfterRecords/ioTornWriteBytes/ioCorruptRecordProb)
    // only perturb persistence and are deliberately left out — a resumed
    // run with the crash fault removed must find its own progress.
    const sim::FaultConfig &f = config.faults;
    canon.add("faults.dropInterruptProb", f.dropInterruptProb);
    canon.add("faults.duplicateInterruptProb", f.duplicateInterruptProb);
    canon.add("faults.duplicateDelay",
              static_cast<std::int64_t>(f.duplicateDelay));
    canon.add("faults.timerSkewPpm", f.timerSkewPpm);
    canon.add("faults.timerBackstepProb", f.timerBackstepProb);
    canon.add("faults.timerBackstepMax",
              static_cast<std::int64_t>(f.timerBackstepMax));
    canon.add("faults.timerBackstepQuantum",
              static_cast<std::int64_t>(f.timerBackstepQuantum));
    canon.add("faults.stallsPerSecond", f.stallsPerSecond);
    canon.add("faults.stallMedian", static_cast<std::int64_t>(f.stallMedian));
    canon.add("faults.stallSigma", f.stallSigma);
    canon.add("faults.truncateProb", f.truncateProb);
    canon.add("faults.truncateKeepMin", f.truncateKeepMin);
    canon.add("faults.truncateKeepMax", f.truncateKeepMax);
    canon.add("faults.seed", f.seed);

    canon.add("seed", config.seed);
    return mix64(fnv64(canon.text) ^ 0x2f5a'1c3e'9b87'd641ULL);
}

} // namespace bigfish::core
