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

/** The error every attacker of a cell gets when no period is set. */
std::vector<Result<attack::Trace>>
periodUnsetCell(std::size_t attackers)
{
    std::vector<Result<attack::Trace>> out;
    out.reserve(attackers);
    for (std::size_t i = 0; i < attackers; ++i)
        out.emplace_back(Status(invalidArgumentError(
            "collection period must be positive (browser default and "
            "override are both unset)")));
    return out;
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

/** Every group member's cell of one (world, site, run) task, with the
 *  simulator work the task took (zero when all were replayed). */
using GroupCellResult =
    std::pair<std::vector<CollectedCell>, sim::PerfCounters>;

/**
 * Accounts every member's collected cells of one world in serial order
 * into one TraceSet per attacker, stored in the members' @p world slot:
 * drops are counted and kept traces are relabeled to @p relabel when
 * set, so the sets and stats are identical at any thread count. Fails
 * when an attacker kept no trace of a non-empty world.
 */
Status
accountWorld(std::span<GroupCellResult> results,
             std::vector<MemberCollection> &members,
             WorldCollection MemberCollection::*world, const char *name,
             std::size_t attackers, std::optional<Label> relabel)
{
    for (std::size_t m = 0; m < members.size(); ++m) {
        WorldCollection &out = members[m].*world;
        out.stats.resize(attackers);
        out.sets.resize(attackers);
        for (attack::TraceSet &set : out.sets)
            set.traces.reserve(results.size());
        for (auto &task : results) {
            CollectedCell &cell = task.first[m];
            for (std::size_t a = 0; a < attackers; ++a) {
                ++out.stats[a].attempted;
                if (!cell[a].isOk()) {
                    ++out.stats[a].dropped;
                    warnOnce("collector/dropped-trace",
                             "dropping unusable trace(s); first: " +
                                 cell[a].status().toString());
                    continue;
                }
                ++out.stats[a].collected;
                if (relabel)
                    cell[a].value().label = *relabel;
                out.sets[a].add(std::move(cell[a].value()));
            }
        }
        for (std::size_t a = 0; a < attackers; ++a) {
            if (!results.empty() && out.sets[a].traces.empty())
                return exhaustedError(
                    std::string(name) + " collection dropped all " +
                    std::to_string(out.stats[a].attempted) + " traces");
        }
    }
    return Status();
}

/** The base timeline of a (site, run) and the RNG stream the browser
 *  runtime effects draw from next. */
struct BaseTimeline
{
    sim::RunTimeline timeline;
    Rng browserRng;
};

/**
 * Synthesizes the base timeline of (site, run) from @p in alone:
 * workload realization, defense overlays and interrupt synthesis, all
 * deterministic in (seed, site id, run index).
 */
BaseTimeline
synthesizeBase(const TimelineInputs &in, const web::SiteSignature &site,
               int run_index, sim::PerfCounters *perf)
{
    Rng rng(mix64(in.seed) ^
            mix64(static_cast<std::uint64_t>(site.id) * 1000003ULL +
                  static_cast<std::uint64_t>(run_index) + 17ULL));
    Rng workload_rng = rng.fork(1);
    Rng synth_rng = rng.fork(2);
    Rng browser_rng = rng.fork(3);
    Rng defense_rng = rng.fork(4);

    // The browser's connection path scales how repeatable loads are
    // (Tor circuits make the same page load very differently each time).
    web::RealizationNoise noise = in.realization;
    noise.phaseStartJitterMs *= in.loadVariability;
    noise.phaseDurationSigma *= in.loadVariability;
    noise.rateSigma *= in.loadVariability;
    noise.runLoadSigma *= in.loadVariability;

    sim::ActivityTimeline activity = web::realizeWorkload(
        site, in.traceDuration, in.loadTimeScale, noise, workload_rng);

    if (in.spuriousInterruptNoise) {
        activity.superimpose(defense::spuriousInterruptOverlay(
            activity.duration(), in.spuriousParams, defense_rng));
    }
    if (in.cacheSweepNoise) {
        activity.superimpose(defense::cacheSweepOverlay(
            activity.duration(), in.cacheSweepParams));
    }
    if (in.backgroundApps) {
        activity.superimpose(defense::backgroundAppsOverlay(
            activity.duration(), defense_rng));
    }
    activity.clampPhysical();

    const sim::InterruptSynthesizer synthesizer(in.machine);
    return {synthesizer.synthesize(activity, synth_rng, perf),
            std::move(browser_rng)};
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

TimelineInputs
TimelineInputs::of(const CollectionConfig &config)
{
    TimelineInputs in;
    in.machine = config.machine;
    in.realization = config.realization;
    in.traceDuration = config.browser.traceDuration;
    in.loadTimeScale = config.browser.loadTimeScale;
    in.loadVariability = config.browser.loadVariability;
    in.spuriousInterruptNoise = config.spuriousInterruptNoise;
    in.spuriousParams = config.spuriousParams;
    in.cacheSweepNoise = config.cacheSweepNoise;
    in.cacheSweepParams = config.cacheSweepParams;
    in.backgroundApps = config.backgroundApps;
    in.seed = config.seed;
    return in;
}

TraceCollector::TraceCollector(CollectionConfig config)
    : config_(std::move(config)), inputs_(TimelineInputs::of(config_))
{
}

std::uint64_t
TraceCollector::faultSalt(SiteId site_id, int run_index) const
{
    return mix64(static_cast<std::uint64_t>(site_id) * 2654435761ULL +
                 static_cast<std::uint64_t>(run_index) + 101ULL);
}

void
TraceCollector::finishTimeline(sim::RunTimeline &timeline, Rng &browser_rng,
                               const web::SiteSignature &site,
                               int run_index) const
{
    web::applyBrowserRuntime(timeline, config_.browser, browser_rng);

    // Injected delivery faults and stalls mutate the shared ground
    // truth, so the kernel tracer / gap detector observe the same
    // faulted schedule the attacker measured.
    if (config_.faults.enabled()) {
        const sim::FaultPlan plan(config_.faults,
                                  faultSalt(site.id, run_index));
        plan.applyToTimeline(timeline);
    }
}

sim::RunTimeline
TraceCollector::synthesizeTimeline(const web::SiteSignature &site,
                                   int run_index,
                                   sim::PerfCounters *perf) const
{
    BaseTimeline base = synthesizeBase(inputs_, site, run_index, perf);
    finishTimeline(base.timeline, base.browserRng, site, run_index);
    return std::move(base.timeline);
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

std::vector<Result<attack::Trace>>
TraceCollector::attackTimeline(
    const web::SiteSignature &site, int run_index,
    const sim::RunTimeline &timeline,
    std::span<const attack::AttackerKind> attackers,
    sim::PerfCounters *perf) const
{
    // The timer seed and fault plan depend only on (config seed, site,
    // run), so each attacker runs over the shared ground truth with its
    // own freshly seeded timer.
    const auto timer_seed =
        mix64(config_.seed ^ 0x71e4aeedULL) ^
        mix64(static_cast<std::uint64_t>(site.id) * 7919ULL +
              static_cast<std::uint64_t>(run_index));
    const sim::FaultPlan plan(config_.faults,
                              faultSalt(site.id, run_index));
    std::vector<Result<attack::Trace>> out;
    out.reserve(attackers.size());
    for (attack::AttackerKind attacker : attackers)
        out.push_back(collectForAttacker(attacker, site, run_index,
                                         timeline, plan, timer_seed, perf));
    return out;
}

Result<attack::Trace>
TraceCollector::collectOne(attack::AttackerKind attacker,
                           const web::SiteSignature &site,
                           int run_index) const
{
    if (config_.effectivePeriod() <= 0)
        return std::move(periodUnsetCell(1)[0]);
    const sim::RunTimeline timeline = synthesizeTimeline(site, run_index);
    const attack::AttackerKind attackers[] = {attacker};
    return std::move(
        attackTimeline(site, run_index, timeline, attackers, nullptr)[0]);
}

std::optional<std::vector<Result<attack::Trace>>>
TraceCollector::replayCell(int world, SiteId site_key, int run_index,
                           std::size_t attackers) const
{
    if (cache_ == nullptr)
        return std::nullopt;
    const std::uint64_t key =
        cellKey(cacheFingerprint_, world, site_key, run_index);
    const auto payload = cache_->lookup(kCellKind, key);
    if (!payload)
        return std::nullopt;
    // A cell stored under a different attacker set cannot occur (the
    // fingerprint keys the attacker list), but stay defensive: an
    // undecodable or mis-sized cell is dropped and recollected.
    auto cached = decodeCell(*payload);
    if (cached.has_value() && cached->size() == attackers)
        return cached;
    cache_->remove(kCellKind, key);
    return std::nullopt;
}

void
TraceCollector::storeCell(int world, SiteId site_key, int run_index,
                          const std::vector<Result<attack::Trace>> &cell) const
{
    if (cache_ == nullptr)
        return;
    // A cache that stops accepting entries (disk full, directory
    // deleted) only costs resumability, never the run itself.
    const Status stored =
        cache_->put(kCellKind,
                    cellKey(cacheFingerprint_, world, site_key, run_index),
                    encodeCell(cell));
    if (!stored.isOk())
        warnOnce("collector/cell-store",
                 "storing a collected cell failed (run continues without "
                 "resumability): " +
                     stored.toString());
}

std::vector<std::vector<Result<attack::Trace>>>
TraceCollector::collectGroupCell(
    std::span<const TraceCollector *const> members, int world,
    SiteId site_key, const web::SiteSignature &site, int run_index,
    std::span<const attack::AttackerKind> attackers,
    sim::PerfCounters *perf)
{
    // Replayed cells deliberately add nothing to *perf: the counters
    // measure work performed, exactly like cpuSeconds.
    std::vector<std::vector<Result<attack::Trace>>> cells(members.size());
    std::vector<std::size_t> missing;
    for (std::size_t m = 0; m < members.size(); ++m) {
        auto cached = members[m]->replayCell(world, site_key, run_index,
                                             attackers.size());
        if (cached)
            cells[m] = std::move(*cached);
        else
            missing.push_back(m);
    }
    std::optional<BaseTimeline> base;
    for (const std::size_t m : missing) {
        const TraceCollector &member = *members[m];
        if (member.config_.effectivePeriod() <= 0) {
            cells[m] = periodUnsetCell(attackers.size());
        } else {
            if (!base)
                base = synthesizeBase(member.inputs_, site, run_index, perf);
            // The last member to need the base takes it; the others
            // finish a copy.
            BaseTimeline own = m == missing.back() ? std::move(*base)
                                                    : BaseTimeline(*base);
            member.finishTimeline(own.timeline, own.browserRng, site,
                                  run_index);
            cells[m] = member.attackTimeline(site, run_index, own.timeline,
                                             attackers, perf);
        }
        member.storeCell(world, site_key, run_index, cells[m]);
    }
    return cells;
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
    const TraceCollector *const self[] = {this};
    Result<std::vector<MemberCollection>> group =
        collectGroup(self, catalog, traces_per_site, 0, 0, attackers, perf);
    if (!group.isOk())
        return Status(group.status());
    WorldCollection &closed = group.value()[0].closed;
    if (stats != nullptr)
        *stats = std::move(closed.stats);
    return std::move(closed.sets);
}

Result<std::vector<attack::TraceSet>>
TraceCollector::collectOpenWorldMulti(
    const web::SiteCatalog &catalog, int num_extra,
    Label non_sensitive_label,
    std::span<const attack::AttackerKind> attackers,
    std::vector<CollectionStats> *stats, sim::PerfCounters *perf) const
{
    const TraceCollector *const self[] = {this};
    Result<std::vector<MemberCollection>> group =
        collectGroup(self, catalog, 0, num_extra, non_sensitive_label,
                     attackers, perf);
    if (!group.isOk())
        return Status(group.status());
    WorldCollection &open = group.value()[0].open;
    if (stats != nullptr)
        *stats = std::move(open.stats);
    return std::move(open.sets);
}

Result<std::vector<MemberCollection>>
TraceCollector::collectGroup(std::span<const TraceCollector *const> members,
                             const web::SiteCatalog &catalog,
                             int traces_per_site, int num_extra,
                             Label non_sensitive_label,
                             std::span<const attack::AttackerKind> attackers,
                             sim::PerfCounters *perf)
{
    if (attackers.empty())
        return Status(
            invalidArgumentError("need at least one attacker kind"));
    if (members.empty())
        return Status(invalidArgumentError("need at least one collector"));
    for (const TraceCollector *member : members) {
        if (!(member->timelineInputs() == members[0]->timelineInputs()))
            return Status(invalidArgumentError(
                "a collection group needs equal timeline inputs"));
    }
    const std::size_t per_site =
        static_cast<std::size_t>(std::max(traces_per_site, 0));
    const std::size_t closed_cells =
        static_cast<std::size_t>(catalog.size()) * per_site;
    const std::size_t open_cells =
        static_cast<std::size_t>(std::max(num_extra, 0));

    // Every cell derives its randomness from the config seed alone, so
    // the cells are independent and collect in parallel; each result
    // lands in its own pre-sized slot. The accounting below walks the
    // slots in serial order, so the produced TraceSets, the
    // dropped-trace stats and the summed perf counters are identical at
    // any thread count. Each open-world cell visits a distinct one-off
    // site (the paper's 5,000 unique non-sensitive pages), keyed by its
    // extension index, which is stable across catalog id schemes.
    auto results = parallelMap(
        closed_cells + open_cells, [&](std::size_t idx) {
            GroupCellResult task;
            sim::PerfCounters *task_perf =
                perf != nullptr ? &task.second : nullptr;
            if (idx < closed_cells) {
                const SiteId id = static_cast<SiteId>(idx / per_site);
                task.first = collectGroupCell(
                    members, kClosedWorldCell, id, catalog.site(id),
                    static_cast<int>(idx % per_site), attackers, task_perf);
            } else {
                const int i = static_cast<int>(idx - closed_cells);
                task.first = collectGroupCell(
                    members, kOpenWorldCell, static_cast<SiteId>(i),
                    catalog.openWorldSite(i), 0, attackers, task_perf);
            }
            return task;
        });
    if (perf != nullptr)
        for (const GroupCellResult &task : results)
            *perf += task.second;

    const std::span<GroupCellResult> cells(results);
    std::vector<MemberCollection> out(members.size());
    Status accounted =
        accountWorld(cells.first(closed_cells), out,
                     &MemberCollection::closed, "closed-world",
                     attackers.size(), std::nullopt);
    if (accounted.isOk())
        accounted = accountWorld(cells.subspan(closed_cells), out,
                                 &MemberCollection::open, "open-world",
                                 attackers.size(), non_sensitive_label);
    if (!accounted.isOk())
        return accounted;
    return out;
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
