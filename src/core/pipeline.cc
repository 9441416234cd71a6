#include "core/pipeline.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <sstream>

#include "base/hash.hh"
#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "core/stage_cache.hh"
#include "stats/descriptive.hh"

namespace bigfish::core {

ml::Dataset
toDataset(const attack::TraceSet &traces, std::size_t feature_len,
          int num_classes)
{
    ml::Dataset data;
    const auto means = traces.toFeatures(feature_len);
    const auto dips = traces.toDipFeatures(feature_len);
    const auto labels = traces.labels();
    // Two channels per trace, concatenated channel-major:
    //   channel 0 — bucket means, winsorized (so single preemption-eaten
    //   periods cannot compress the trace's dynamic range) and
    //   standardized (counter values sit in a narrow band near their
    //   maximum; centered inputs are what make the gradient-based
    //   classifier train efficiently);
    //   channel 1 — sub-bucket dip depth, the fine-timescale interrupt
    //   texture that bucket averages smooth away.
    // Traces featurize independently into pre-sized slots, then append
    // in order, so the dataset is identical at any thread count.
    auto rows = parallelMap(means.size(), [&](std::size_t i) {
        std::vector<double> x = stats::zscore(stats::winsorize(means[i]));
        const auto dip = stats::zscore(dips[i]);
        x.insert(x.end(), dip.begin(), dip.end());
        return x;
    });
    data.features.reserve(rows.size());
    data.labels.reserve(rows.size());
    for (std::size_t i = 0; i < rows.size(); ++i)
        data.add(std::move(rows[i]), labels[i]);
    data.numClasses = std::max(data.numClasses, num_classes);
    return data;
}

namespace {

/**
 * Distinct labels present in a (possibly fault-degraded) trace set —
 * dropping traces can silently empty out whole classes, which would
 * make the k-fold split degenerate.
 */
int
distinctLabels(const attack::TraceSet &traces)
{
    std::vector<Label> labels = traces.labels();
    std::sort(labels.begin(), labels.end());
    labels.erase(std::unique(labels.begin(), labels.end()), labels.end());
    return static_cast<int>(labels.size());
}

/** Everything one config's collection produces, per attacker. */
struct CollectOutput
{
    MemberCollection closed;
    /** Empty when the run has no open world. */
    MemberCollection openExtra;
};

/** The declared stage ids one attacker/world evaluation owns. */
struct WorldStages
{
    std::size_t split = 0;
    std::vector<std::size_t> train;
    std::vector<std::size_t> score;
    std::size_t aggregate = 0;
};

/** Canonical featurization text — any change to what toDataset()
 *  produces must bump the format line. */
std::string
featurizeCanon(const PipelineConfig &pipeline, attack::AttackerKind kind)
{
    std::ostringstream canon;
    canon << "format=bigfish-features-v1\n"
          << "featureLen=" << pipeline.featureLen << '\n'
          << "numSites=" << pipeline.numSites << '\n'
          << "openExtra=" << pipeline.openWorldExtra << '\n'
          << "attacker=" << attack::attackerKindName(kind) << '\n';
    return canon.str();
}

/**
 * The Collect stage body of a timeline group: shared-timeline trace
 * collection for every member and attacker (TraceCollector's group
 * calls). With a stage cache, every finished (world, site, run) cell is
 * stored as a "cell" entry of its member's cache and replayed on the
 * next run, so the one cache makes a *partial* collection restartable
 * (`--resume`) and a *finished* one (and everything downstream)
 * skippable. @p perf receives the group's simulator work.
 */
Result<std::vector<CollectOutput>>
collectStageBody(std::span<const TraceCollector *const> members,
                 std::span<const attack::AttackerKind> attackers,
                 const PipelineConfig &pipeline, Label non_sensitive,
                 std::span<StageCache *const> caches,
                 sim::PerfCounters *perf)
{
    const web::SiteCatalog catalog(pipeline.numSites, pipeline.catalogSeed);
    std::vector<std::size_t> hits_before;
    for (const StageCache *cache : caches)
        hits_before.push_back(cache ? cache->stats().hits : 0);

    Result<std::vector<MemberCollection>> closed =
        TraceCollector::collectClosedWorldGroup(
            members, catalog, pipeline.tracesPerSite, attackers, perf);
    if (!closed.isOk())
        return Status(closed.status());
    std::vector<CollectOutput> out(members.size());
    for (std::size_t m = 0; m < members.size(); ++m)
        out[m].closed = std::move(closed.value()[m]);
    if (pipeline.openWorldExtra > 0) {
        Result<std::vector<MemberCollection>> extra =
            TraceCollector::collectOpenWorldGroup(
                members, catalog, pipeline.openWorldExtra, non_sensitive,
                attackers, perf);
        if (!extra.isOk())
            return Status(extra.status());
        for (std::size_t m = 0; m < members.size(); ++m)
            out[m].openExtra = std::move(extra.value()[m]);
    }
    for (std::size_t m = 0; m < members.size(); ++m) {
        const StageCache *cache = caches[m];
        if (cache != nullptr && cache->stats().hits > hits_before[m])
            std::printf("resuming: replayed %zu collected cell(s) from %s\n",
                        cache->stats().hits - hits_before[m],
                        cache->dir().c_str());
    }
    return out;
}

/**
 * The Featurize stage body for one attacker: degraded-collection
 * checks, then toDataset() for the closed world and (when enabled) the
 * merged open world, with trace accounting.
 */
Result<FeaturizedEntry>
featurizeStageBody(const CollectOutput &collected, std::size_t a,
                   const PipelineConfig &pipeline)
{
    const attack::TraceSet &closed = collected.closed.sets[a];
    const CollectionStats &closed_stats = collected.closed.stats[a];

    // Dropped traces must leave enough data for the evaluation
    // protocol to be meaningful; otherwise fail recoverably rather
    // than letting the CV machinery hit its own preconditions.
    if (distinctLabels(closed) < 2)
        return Status(exhaustedError(
            "degraded collection left fewer than two closed-world "
            "classes (" + std::to_string(closed_stats.dropped) + " of " +
            std::to_string(closed_stats.attempted) + " traces dropped)"));
    if (closed.size() < static_cast<std::size_t>(pipeline.eval.folds))
        return Status(exhaustedError(
            "degraded collection left " + std::to_string(closed.size()) +
            " closed-world traces, fewer than the " +
            std::to_string(pipeline.eval.folds) + " CV folds"));

    FeaturizedEntry entry;
    entry.droppedTraces = closed_stats.dropped;
    entry.collectedTraces = closed_stats.collected;
    entry.closedWorld =
        toDataset(closed, pipeline.featureLen, pipeline.numSites);

    entry.hasOpenWorld = pipeline.openWorldExtra > 0;
    if (entry.hasOpenWorld) {
        // The paper's open world: closed-world traces keep their site
        // labels ("sensitive"); one extra class holds all one-off
        // "non-sensitive" traces.
        const attack::TraceSet &extra = collected.openExtra.sets[a];
        entry.droppedTraces += collected.openExtra.stats[a].dropped;
        entry.collectedTraces += collected.openExtra.stats[a].collected;
        attack::TraceSet open = closed;
        open.traces.reserve(closed.size() + extra.traces.size());
        for (const auto &trace : extra.traces)
            open.add(trace);
        entry.openWorld =
            toDataset(open, pipeline.featureLen, pipeline.numSites + 1);
    }
    return entry;
}

/**
 * Declares and executes one attacker/world evaluation: FoldSplit, then
 * TrainFold/ScoreFold per fold on the thread pool (each fold probes
 * its ScoreFold cache entry first — a hit skips training that fold
 * entirely), then Aggregate. Bit-identical at any thread count: fold
 * seeds and aggregation order are fixed at declaration time.
 */
Result<ml::EvalResult>
runWorld(StageGraph &graph, const WorldStages &stages,
         const PipelineConfig &pipeline, const ml::Dataset &data,
         std::uint64_t seed_base, bool open_world, Label non_sensitive)
{
    Result<std::vector<ml::FoldSplit>> splits = graph.run<
        std::vector<ml::FoldSplit>>(
        stages.split, nullptr,
        [&]() -> Result<std::vector<ml::FoldSplit>> {
            return ml::kFoldSplits(data.size(), pipeline.eval.folds,
                                   pipeline.eval.valFraction,
                                   pipeline.eval.seed);
        });
    if (!splits.isOk())
        return Status(splits.status());
    const std::vector<ml::FoldSplit> &fold_splits = splits.value();
    graph.setCounts(stages.split, fold_splits.size(), 0);

    // Models are cacheable only when the factory publishes a canonical
    // hyperparameter text; without one, two different classifiers could
    // share a fingerprint, so neither models nor scores may persist.
    const bool cacheable = !pipeline.factory.canon.empty();
    const StageCodec<ml::FoldScores> scores_codec{
        "scores", &encodeFoldScores, &decodeFoldScores};

    auto fold_results = parallelMap(
        fold_splits.size(), [&](std::size_t f) -> Result<ml::FoldScores> {
            // Probe the fold's final output first: a ScoreFold hit
            // makes its TrainFold unnecessary (it stays Skipped).
            if (cacheable) {
                std::optional<ml::FoldScores> cached = graph.fromCache(
                    stages.score[f], scores_codec, /*threadCpu=*/true);
                if (cached)
                    return std::move(*cached);
            }
            const std::uint64_t seed = pipeline.eval.seed + seed_base + f;
            const StageCodec<std::unique_ptr<ml::Classifier>> model_codec{
                "model",
                [](const std::unique_ptr<ml::Classifier> &model) {
                    return model->saveModel();
                },
                [&, seed](const std::string &text)
                    -> std::optional<std::unique_ptr<ml::Classifier>> {
                    auto model = pipeline.factory(
                        data.numClasses, data.featureLen(), seed);
                    if (!model->loadModel(text))
                        return std::nullopt;
                    return model;
                }};
            Result<std::unique_ptr<ml::Classifier>> model =
                graph.run<std::unique_ptr<ml::Classifier>>(
                    stages.train[f], cacheable ? &model_codec : nullptr,
                    [&]() -> Result<std::unique_ptr<ml::Classifier>> {
                        return ml::trainFoldClassifier(
                            pipeline.factory, data, fold_splits[f], seed);
                    },
                    /*probe=*/true, /*threadCpu=*/true);
            if (!model.isOk())
                return Status(model.status());
            graph.setCounts(stages.train[f], fold_splits[f].train.size(),
                            0);
            return graph.run<ml::FoldScores>(
                stages.score[f], cacheable ? &scores_codec : nullptr,
                [&]() -> Result<ml::FoldScores> {
                    return ml::scoreFold(*model.value(), data,
                                         fold_splits[f].test);
                },
                /*probe=*/false, /*threadCpu=*/true);
        });

    std::vector<ml::FoldScores> folds;
    folds.reserve(fold_results.size());
    for (std::size_t f = 0; f < fold_results.size(); ++f) {
        if (!fold_results[f].isOk())
            return Status(fold_results[f].status());
        graph.setCounts(stages.score[f],
                        fold_results[f].value().truths.size(), 0);
        folds.push_back(std::move(fold_results[f].value()));
    }

    return graph.run<ml::EvalResult>(
        stages.aggregate, nullptr, [&]() -> Result<ml::EvalResult> {
            if (open_world)
                return ml::aggregateFoldsOpenWorld(folds, non_sensitive,
                                                   pipeline.eval.topK);
            return ml::aggregateFolds(folds, pipeline.eval.topK);
        });
}

/** One attacker's declared evaluation stages, per world. */
struct AttackerStages
{
    WorldStages closed;
    WorldStages open;
};

/** One config's declared stage graph and, once probed or collected,
 *  its featurized datasets. */
struct ConfigRun
{
    const CollectionConfig *collection = nullptr;
    std::optional<StageCache> cache;
    std::unique_ptr<StageGraph> graph;
    std::uint64_t collectionFp = 0;
    std::size_t collectId = 0;
    std::vector<std::size_t> featIds;
    std::vector<AttackerStages> stages;
    std::vector<FeaturizedEntry> featurized;

    StageCache *cachePtr() { return cache ? &*cache : nullptr; }
};

const StageCodec<FeaturizedEntry> kFeaturizedCodec{
    "featurized", &encodeFeaturized, &decodeFeaturized};

/**
 * Opens @p run's stage cache and declares its whole graph up front:
 * every stage's fingerprint is a pure function of configuration
 * (cacheDir excluded — it affects where work happens, never what it
 * computes), so a warm run can probe the cache bottom-up before running
 * anything.
 */
Status
declareRun(ConfigRun &run, const CollectionConfig &collection,
           std::span<const attack::AttackerKind> attackers,
           const PipelineConfig &pipeline)
{
    run.collection = &collection;
    if (!pipeline.cacheDir.empty()) {
        Result<StageCache> opened =
            StageCache::open(pipeline.cacheDir, collection.faults);
        if (!opened.isOk())
            return opened.status();
        run.cache = std::move(opened.value());
    }
    run.graph = std::make_unique<StageGraph>(run.cachePtr());
    StageGraph &graph = *run.graph;

    run.collectionFp = collectionFingerprint(
        collection, pipeline.catalogSeed, pipeline.numSites,
        pipeline.openWorldExtra, attackers);
    run.collectId = graph.declare(
        "collect", "collect",
        "collection=" + hex16(run.collectionFp) + "\n", {});

    run.featIds.reserve(attackers.size());
    for (std::size_t a = 0; a < attackers.size(); ++a) {
        const std::size_t upstream[] = {run.collectId};
        run.featIds.push_back(graph.declare(
            std::string("featurize/") +
                attack::attackerKindName(attackers[a]),
            "featurize", featurizeCanon(pipeline, attackers[a]), upstream));
    }

    run.stages.resize(attackers.size());
    for (std::size_t a = 0; a < attackers.size(); ++a) {
        const std::string who = attack::attackerKindName(attackers[a]);
        const auto declare_world = [&](const char *world,
                                       std::uint64_t seed_base) {
            WorldStages stages;
            std::ostringstream split_canon;
            split_canon << "folds=" << pipeline.eval.folds << '\n'
                        << "valFraction="
                        << hexDouble(pipeline.eval.valFraction) << '\n'
                        << "seed=" << pipeline.eval.seed << '\n'
                        << "world=" << world << '\n';
            const std::size_t split_upstream[] = {run.featIds[a]};
            stages.split = graph.declare("split/" + who + "/" + world,
                                         "eval", split_canon.str(),
                                         split_upstream);
            stages.train.reserve(pipeline.eval.folds);
            stages.score.reserve(pipeline.eval.folds);
            for (int f = 0; f < pipeline.eval.folds; ++f) {
                std::ostringstream train_canon;
                train_canon << "fold=" << f << '\n'
                            << "seed="
                            << pipeline.eval.seed + seed_base +
                                   static_cast<std::uint64_t>(f)
                            << '\n'
                            << pipeline.factory.canon;
                const std::size_t train_upstream[] = {stages.split};
                const std::string fold_tag =
                    "/" + who + "/" + world + "/f" + std::to_string(f);
                stages.train.push_back(graph.declare(
                    "train" + fold_tag, "train", train_canon.str(),
                    train_upstream));
                const std::size_t score_upstream[] = {stages.train.back()};
                stages.score.push_back(graph.declare(
                    "score" + fold_tag, "eval", "", score_upstream));
            }
            std::ostringstream agg_canon;
            agg_canon << "topK=" << pipeline.eval.topK << '\n'
                      << "world=" << world << '\n';
            stages.aggregate = graph.declare(
                "aggregate/" + who + "/" + world, "eval", agg_canon.str(),
                stages.score);
            return stages;
        };
        run.stages[a].closed =
            declare_world("closed", ml::kClosedWorldFoldSeedBase);
        if (pipeline.openWorldExtra > 0)
            run.stages[a].open =
                declare_world("open", ml::kOpenWorldFoldSeedBase);
    }
    return Status();
}

/**
 * Probes every attacker's Featurize entry of @p run before collecting
 * anything (all-or-nothing — a partial hit still has to pay the shared
 * collection, so it is treated as a miss). On a full hit the cached
 * datasets replay bit-identically, the Collect stage never runs, and
 * this returns true.
 */
bool
probeFeaturized(ConfigRun &run, std::size_t attackers)
{
    if (!run.cache)
        return false;
    run.featurized.reserve(attackers);
    for (const std::size_t id : run.featIds) {
        std::optional<FeaturizedEntry> entry =
            run.graph->fromCache(id, kFeaturizedCodec);
        if (!entry)
            break;
        run.featurized.push_back(std::move(*entry));
    }
    if (run.featurized.size() == attackers) {
        std::printf("stage cache: hit, %zu featurized entr%s from %s; "
                    "skipping collection and featurization\n",
                    run.featurized.size(),
                    run.featurized.size() == 1 ? "y" : "ies",
                    run.cache->dir().c_str());
        return true;
    }
    std::printf("stage cache: featurized miss in %s; collecting\n",
                run.cache->dir().c_str());
    run.featurized.clear();
    return false;
}

/**
 * Runs the Collect stage once for @p members (configs with equal
 * TimelineInputs whose featurized entries missed), then each member's
 * Featurize stages. The first member's Collect row carries the group's
 * CPU and simulator work; the other members' rows take its provenance
 * with zero cost, so summing rows counts the shared work once.
 */
Status
collectGroup(std::span<ConfigRun *const> members,
             std::span<const attack::AttackerKind> attackers,
             const PipelineConfig &pipeline, Label non_sensitive)
{
    std::vector<TraceCollector> collectors;
    collectors.reserve(members.size());
    std::vector<StageCache *> caches;
    for (ConfigRun *run : members) {
        collectors.emplace_back(*run->collection);
        collectors.back().setCache(run->cachePtr(), run->collectionFp);
        caches.push_back(run->cachePtr());
    }
    std::vector<const TraceCollector *> group;
    for (const TraceCollector &collector : collectors)
        group.push_back(&collector);

    ConfigRun &leader = *members[0];
    sim::PerfCounters perf;
    Result<std::vector<CollectOutput>> collected =
        leader.graph->run<std::vector<CollectOutput>>(
            leader.collectId, nullptr,
            [&]() -> Result<std::vector<CollectOutput>> {
                return collectStageBody(group, attackers, pipeline,
                                        non_sensitive, caches, &perf);
            });
    if (!collected.isOk())
        return collected.status();

    for (std::size_t m = 0; m < members.size(); ++m) {
        ConfigRun &run = *members[m];
        StageGraph &graph = *run.graph;
        // Featurize consumes this member's traces; they are freed as
        // soon as its datasets exist.
        const CollectOutput traces = std::move(collected.value()[m]);
        std::size_t total_collected = 0, total_dropped = 0;
        for (std::size_t a = 0; a < attackers.size(); ++a) {
            // Featurization stores before the folds evaluate: a run
            // killed mid-training still leaves the expensive upstream
            // phases cached for the next attempt. A failed store
            // degrades to an uncached run, never a failed one.
            Result<FeaturizedEntry> entry = graph.run<FeaturizedEntry>(
                run.featIds[a], &kFeaturizedCodec,
                [&]() -> Result<FeaturizedEntry> {
                    return featurizeStageBody(traces, a, pipeline);
                },
                /*probe=*/false);
            if (!entry.isOk())
                return entry.status();
            total_collected +=
                static_cast<std::size_t>(entry.value().collectedTraces);
            total_dropped +=
                static_cast<std::size_t>(entry.value().droppedTraces);
            run.featurized.push_back(std::move(entry.value()));
        }
        graph.setCounts(run.collectId, total_collected, total_dropped);
        if (m == 0)
            graph.setSimCounters(run.collectId, perf);
        else
            graph.setCacheState(
                run.collectId,
                leader.graph->reports()[leader.collectId].cache);
    }
    return Status();
}

/**
 * Evaluates every attacker of @p run from its featurized datasets and
 * hands out the stage table: the shared Collect stage goes to the first
 * attacker only, so summing per-attacker tables counts it once;
 * everything else is owned by exactly one attacker.
 */
Result<std::vector<FingerprintResult>>
evaluateRun(ConfigRun &run, std::span<const attack::AttackerKind> attackers,
            const PipelineConfig &pipeline, Label non_sensitive)
{
    StageGraph &graph = *run.graph;
    const bool has_open = pipeline.openWorldExtra > 0;
    for (std::size_t a = 0; a < attackers.size(); ++a)
        graph.setCounts(
            run.featIds[a],
            static_cast<std::size_t>(run.featurized[a].collectedTraces),
            static_cast<std::size_t>(run.featurized[a].droppedTraces));

    std::vector<FingerprintResult> results(attackers.size());
    for (std::size_t a = 0; a < attackers.size(); ++a) {
        FingerprintResult &result = results[a];
        const FeaturizedEntry &entry = run.featurized[a];
        result.droppedTraces =
            static_cast<std::size_t>(entry.droppedTraces);
        result.collectedTraces =
            static_cast<std::size_t>(entry.collectedTraces);

        Result<ml::EvalResult> closed = runWorld(
            graph, run.stages[a].closed, pipeline, entry.closedWorld,
            ml::kClosedWorldFoldSeedBase, false, non_sensitive);
        if (!closed.isOk())
            return Status(closed.status());
        result.closedWorld = std::move(closed.value());

        if (has_open) {
            Result<ml::EvalResult> open = runWorld(
                graph, run.stages[a].open, pipeline, entry.openWorld,
                ml::kOpenWorldFoldSeedBase, true, non_sensitive);
            if (!open.isOk())
                return Status(open.status());
            result.openWorld = std::move(open.value());
            result.hasOpenWorld = true;
        }
    }

    const auto &reports = graph.reports();
    for (std::size_t a = 0; a < attackers.size(); ++a) {
        FingerprintResult &result = results[a];
        if (a == 0)
            result.stages.push_back(reports[run.collectId]);
        result.stages.push_back(reports[run.featIds[a]]);
        const auto append_world = [&](const WorldStages &stages) {
            result.stages.push_back(reports[stages.split]);
            for (std::size_t f = 0; f < stages.train.size(); ++f) {
                result.stages.push_back(reports[stages.train[f]]);
                result.stages.push_back(reports[stages.score[f]]);
            }
            result.stages.push_back(reports[stages.aggregate]);
        };
        append_world(run.stages[a].closed);
        if (has_open)
            append_world(run.stages[a].open);
    }
    return results;
}

} // namespace

Result<std::vector<std::vector<FingerprintResult>>>
runFingerprintingShared(std::span<const CollectionConfig> collections,
                        std::span<const attack::AttackerKind> attackers,
                        const PipelineConfig &pipeline)
{
    if (collections.empty())
        return Status(
            invalidArgumentError("need at least one collection config"));
    if (attackers.empty())
        return Status(
            invalidArgumentError("need at least one attacker kind"));
    if (pipeline.numSites < 2)
        return Status(invalidArgumentError("need at least two sites"));
    if (pipeline.eval.folds < 2)
        return Status(
            invalidArgumentError("cross-validation needs >= 2 folds"));
    const Label non_sensitive = pipeline.numSites;

    std::vector<std::unique_ptr<ConfigRun>> runs;
    runs.reserve(collections.size());
    for (const CollectionConfig &collection : collections) {
        runs.push_back(std::make_unique<ConfigRun>());
        const Status declared =
            declareRun(*runs.back(), collection, attackers, pipeline);
        if (!declared.isOk())
            return declared;
    }

    // Group configs by equal TimelineInputs, in first-appearance order:
    // one Collect per group synthesizes each base timeline once.
    std::vector<TimelineInputs> keys;
    std::vector<std::vector<std::size_t>> groups;
    for (std::size_t c = 0; c < collections.size(); ++c) {
        const TimelineInputs key = TimelineInputs::of(collections[c]);
        const auto it = std::find(keys.begin(), keys.end(), key);
        if (it == keys.end()) {
            keys.push_back(key);
            groups.push_back({c});
        } else {
            groups[static_cast<std::size_t>(it - keys.begin())].push_back(c);
        }
    }

    std::vector<std::vector<FingerprintResult>> results(collections.size());
    for (const std::vector<std::size_t> &group : groups) {
        std::vector<ConfigRun *> collecting;
        for (const std::size_t c : group)
            if (!probeFeaturized(*runs[c], attackers.size()))
                collecting.push_back(runs[c].get());
        if (!collecting.empty()) {
            const Status collected = collectGroup(collecting, attackers,
                                                  pipeline, non_sensitive);
            if (!collected.isOk())
                return collected;
        }
        for (const std::size_t c : group) {
            Result<std::vector<FingerprintResult>> evaluated =
                evaluateRun(*runs[c], attackers, pipeline, non_sensitive);
            if (!evaluated.isOk())
                return Status(evaluated.status());
            results[c] = std::move(evaluated.value());
            // Scored: this config's datasets are no longer needed.
            std::vector<FeaturizedEntry>().swap(runs[c]->featurized);
        }
    }
    return results;
}

Result<std::vector<FingerprintResult>>
runFingerprintingShared(const CollectionConfig &collection,
                        std::span<const attack::AttackerKind> attackers,
                        const PipelineConfig &pipeline)
{
    Result<std::vector<std::vector<FingerprintResult>>> results =
        runFingerprintingShared(std::span(&collection, 1), attackers,
                                pipeline);
    if (!results.isOk())
        return Status(results.status());
    return std::move(results.value()[0]);
}

} // namespace bigfish::core
