/**
 * @file
 * bench_trace — the benchmark's traced run.
 *
 * Replays the experiment behind one benchmark workload through the
 * layers' public functions, with a span around each call, so per-layer
 * self times, counts and thread-pool busy fractions are measured from
 * outside the program: nothing under src/ is instrumented.
 *
 *   bench_trace --artifact=<e2e artifact.json> --out=<trace.json>
 *               --scratch=<empty dir for the stage-cache timings>
 *   bench_trace --simd      prints the active kernel ISA and exits
 *
 * The artifact of an untraced `bigfish run` names the experiment and
 * embeds its resolved spec, so the traced run decomposes exactly that
 * run (scale, seed, thread count). Its results are printed under
 * "results" with the artifact's metric names; bench/harness/run.py
 * compares them with the artifact (trace.mismatches). What is traced:
 *
 *  - table1_fingerprinting: the Chrome/Linux and Tor/Linux cells, both
 *    attackers, both worlds: collect → toDataset → kFoldSplits →
 *    trainFoldClassifier/scoreFold per fold over parallelMap →
 *    aggregateFolds*, then the stage-cache codecs and StageCache
 *    put/lookup over those payloads, then one direct
 *    runFingerprintingShared() per cell (equality + overhead).
 *  - background_noise: the quiet configuration, the same way.
 *  - gap_attribution: synthesize → KernelTracer::record →
 *    GapDetector::detect → attributeGaps per (site, run), then the same
 *    loop without spans (overhead).
 *
 * Fingerprinting cells also sample up to 100 closed-world (site, run)
 * cells serially: synthesizeTimeline, then attack::collectTrace per
 * attacker, which splits Collect into simulator and attacker-loop time.
 */

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

#include <unistd.h>

#include "base/atomic_file.hh"
#include "base/simd.hh"
#include "base/stopwatch.hh"
#include "base/thread_pool.hh"
#include "core/presets.hh"
#include "core/stage_cache.hh"
#include "experiments.hh"
#include "ktrace/attribution.hh"

using namespace bigfish;

namespace {

/** One timed call into a layer. Times are seconds since the trace
 *  epoch; cpu is process CPU over the span (main-thread spans only). */
struct Span
{
    std::string name;
    double start = 0.0;
    double end = 0.0;
    long parent = -1;
    long thread = 0;
    double cpu = 0.0;
    double count = 0.0;
};

/**
 * In-memory span recorder. Spans opened on the main thread nest by a
 * stack; pool workers never touch the recorder — a parallel region
 * returns its per-task timings and the main thread adds them as
 * children of the region's span.
 */
class Tracer
{
  public:
    Tracer() : mainTid_(::gettid()) {}

    /** Seconds since the trace epoch; safe from any thread. */
    double now() const { return epoch_.seconds(); }

    std::size_t
    open(std::string name)
    {
        Span span;
        span.name = std::move(name);
        span.parent = stack_.empty() ? -1 : static_cast<long>(stack_.back());
        span.cpu = cpu_.seconds();
        span.start = now();
        spans_.push_back(std::move(span));
        stack_.push_back(spans_.size() - 1);
        return spans_.size() - 1;
    }

    void
    close(std::size_t id, double count = 0.0)
    {
        Span &span = spans_[id];
        span.end = now();
        span.cpu = cpu_.seconds() - span.cpu;
        span.count = count;
        stack_.pop_back();
    }

    /** Adds a span timed on thread @p tid under the open span. */
    void
    addChild(std::string name, double start, double end, long tid,
             double count)
    {
        Span span;
        span.name = std::move(name);
        span.start = start;
        span.end = end;
        span.parent = static_cast<long>(stack_.back());
        span.thread = threadIndex(tid);
        span.count = count;
        spans_.push_back(std::move(span));
    }

    const std::vector<Span> &spans() const { return spans_; }

    /** Per-name totals of self time (duration minus the union of the
     *  children's intervals), wall, process CPU and counts. */
    struct Totals
    {
        double self = 0.0;
        double wall = 0.0;
        double cpu = 0.0;
        double count = 0.0;
    };

    std::map<std::string, Totals>
    totals() const
    {
        std::vector<std::vector<std::pair<double, double>>> children(
            spans_.size());
        for (const Span &span : spans_)
            if (span.parent >= 0)
                children[static_cast<std::size_t>(span.parent)]
                    .emplace_back(span.start, span.end);
        std::map<std::string, Totals> out;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &span = spans_[i];
            auto &kids = children[i];
            std::sort(kids.begin(), kids.end());
            double covered = 0.0, reach = span.start;
            for (const auto &[start, end] : kids) {
                const double from = std::max(start, reach);
                const double to = std::min(end, span.end);
                if (to > from)
                    covered += to - from;
                reach = std::max(reach, end);
            }
            Totals &t = out[span.name];
            t.self += span.end - span.start - covered;
            t.wall += span.end - span.start;
            t.cpu += span.cpu;
            t.count += span.count;
        }
        return out;
    }

  private:
    /** 0 for the main thread, then 1, 2, ... in order of appearance. */
    long
    threadIndex(long tid)
    {
        if (tid == mainTid_)
            return 0;
        const auto it = std::find(workers_.begin(), workers_.end(), tid);
        if (it != workers_.end())
            return static_cast<long>(it - workers_.begin()) + 1;
        workers_.push_back(tid);
        return static_cast<long>(workers_.size());
    }

    Stopwatch epoch_;
    ProcessCpuStopwatch cpu_;
    long mainTid_;
    std::vector<long> workers_;
    std::vector<Span> spans_;
    std::vector<std::size_t> stack_;
};

/** Byte and time totals of one cache codec or store operation. */
struct Throughput
{
    double bytes = 0.0;
    double seconds = 0.0;

    double mbPerSecond() const
    {
        return seconds > 0.0 ? bytes / (1024.0 * 1024.0) / seconds : 0.0;
    }
};

/** Everything the traced run measures besides spans. */
struct Measurements
{
    std::map<std::string, double> results;
    long mismatches = 0;
    double epochs = 0.0;
    std::map<std::string, Throughput> encode;
    std::map<std::string, Throughput> decode;
    double putSeconds = 0.0;
    double lookupSeconds = 0.0;
    /** Next StageCache key for the codec timings (one per payload). */
    std::uint64_t cacheKey = 1;
    double decomposedWall = 0.0;
    double directWall = 0.0;
    sim::PerfCounters synthesized;
};

/** One fold trained and scored on a pool thread. */
struct FoldRun
{
    long tid = 0;
    double start = 0.0;
    double fitEnd = 0.0;
    double end = 0.0;
    double epochs = 0.0;
    double trainSamples = 0.0;
    std::uint64_t seed = 0;
    std::unique_ptr<ml::Classifier> model;
    ml::FoldScores scores;
};

/** What one world's decomposed evaluation keeps for the cache timings. */
struct WorldRun
{
    ml::EvalResult result;
    std::vector<FoldRun> folds;
    int numClasses = 0;
    std::size_t featureLen = 0;
};

long
countMismatches(const ml::EvalResult &a, const ml::EvalResult &b)
{
    long n = 0;
    n += a.top1Mean != b.top1Mean;
    n += a.top1Std != b.top1Std;
    n += a.topKMean != b.topKMean;
    n += a.topKStd != b.topKStd;
    n += a.foldTop1 != b.foldTop1;
    n += a.foldTopK != b.foldTopK;
    n += a.openWorld.sensitiveAccuracy != b.openWorld.sensitiveAccuracy;
    n += a.openWorld.nonSensitiveAccuracy !=
         b.openWorld.nonSensitiveAccuracy;
    n += a.openWorld.combinedAccuracy != b.openWorld.combinedAccuracy;
    return n;
}

WorldRun
evaluateWorld(Tracer &tracer, const core::PipelineConfig &pipeline,
              const ml::Dataset &data, std::uint64_t seed_base,
              bool open_world)
{
    const std::vector<ml::FoldSplit> splits =
        ml::kFoldSplits(data.size(), pipeline.eval.folds,
                        pipeline.eval.valFraction, pipeline.eval.seed);
    const std::size_t region = tracer.open("ml.folds");
    WorldRun world;
    world.numClasses = data.numClasses;
    world.featureLen = data.featureLen();
    world.folds = parallelMap(splits.size(), [&](std::size_t f) {
        FoldRun run;
        run.tid = ::gettid();
        run.seed = pipeline.eval.seed + seed_base + f;
        run.trainSamples = static_cast<double>(splits[f].train.size());
        run.start = tracer.now();
        run.model = ml::trainFoldClassifier(pipeline.factory, data,
                                            splits[f], run.seed);
        run.fitEnd = tracer.now();
        run.scores = ml::scoreFold(*run.model, data, splits[f].test);
        run.end = tracer.now();
        if (const auto *cnn =
                dynamic_cast<const ml::CnnLstmClassifier *>(run.model.get()))
            run.epochs = static_cast<double>(cnn->history().size());
        return run;
    });
    for (const FoldRun &run : world.folds) {
        tracer.addChild("ml.fit", run.start, run.fitEnd, run.tid,
                        run.trainSamples * run.epochs);
        tracer.addChild("ml.score", run.fitEnd, run.end, run.tid,
                        static_cast<double>(run.scores.truths.size()));
    }
    tracer.close(region, static_cast<double>(splits.size()));

    std::vector<ml::FoldScores> scores;
    for (const FoldRun &run : world.folds)
        scores.push_back(run.scores);
    world.result =
        open_world
            ? ml::aggregateFoldsOpenWorld(scores, pipeline.numSites,
                                          pipeline.eval.topK)
            : ml::aggregateFolds(scores, pipeline.eval.topK);
    return world;
}

/** Times @p fn and adds its duration to @p seconds; returns fn(). */
template <typename Fn>
auto
timed(double &seconds, Fn &&fn)
{
    const Stopwatch watch;
    auto out = fn();
    seconds += watch.seconds();
    return out;
}

/**
 * Encodes, stores, looks up and decodes one cell's cacheable payloads
 * (featurized datasets, fold models, fold scores) the way the stage
 * graph does, checking that every payload round-trips.
 */
void
timeCacheCodecs(const core::FeaturizedEntry &entry,
                const std::vector<WorldRun> &worlds,
                const core::PipelineConfig &pipeline,
                core::StageCache &cache, Measurements &m)
{
    const auto round_trip = [&](const std::string &kind,
                                const std::string &payload) {
        m.encode[kind].bytes += static_cast<double>(payload.size());
        const std::uint64_t key = m.cacheKey++;
        const Status stored = timed(m.putSeconds, [&] {
            return cache.put(kind, key, payload);
        });
        if (!stored.isOk())
            fatal(stored.toString());
        const std::optional<std::string> found = timed(
            m.lookupSeconds, [&] { return cache.lookup(kind, key); });
        m.mismatches += !found || *found != payload;
        m.decode[kind].bytes += static_cast<double>(payload.size());
    };

    const std::string featurized = timed(
        m.encode["featurized"].seconds,
        [&] { return core::encodeFeaturized(entry); });
    round_trip("featurized", featurized);
    const std::optional<core::FeaturizedEntry> replayed =
        timed(m.decode["featurized"].seconds,
              [&] { return core::decodeFeaturized(featurized); });
    m.mismatches += !replayed ||
                    replayed->closedWorld.features !=
                        entry.closedWorld.features ||
                    replayed->openWorld.features != entry.openWorld.features;

    for (const WorldRun &world : worlds) {
        for (const FoldRun &run : world.folds) {
            const std::string model = timed(m.encode["model"].seconds, [&] {
                return run.model->saveModel();
            });
            round_trip("model", model);
            const bool loaded = timed(m.decode["model"].seconds, [&] {
                return pipeline
                    .factory(world.numClasses, world.featureLen, run.seed)
                    ->loadModel(model);
            });
            m.mismatches += !loaded;

            const std::string scores = timed(
                m.encode["scores"].seconds,
                [&] { return core::encodeFoldScores(run.scores); });
            round_trip("scores", scores);
            const std::optional<ml::FoldScores> back =
                timed(m.decode["scores"].seconds,
                      [&] { return core::decodeFoldScores(scores); });
            m.mismatches += !back || back->scores != run.scores.scores ||
                            back->predictions != run.scores.predictions;
        }
    }
}

/**
 * Serially synthesizes up to 100 closed-world (site, run) timelines of
 * @p cfg and runs each attacker over them.
 */
void
sampleCollect(Tracer &tracer, const core::CollectionConfig &cfg,
              std::span<const attack::AttackerKind> kinds,
              const core::PipelineConfig &pipeline, Measurements &m)
{
    const web::SiteCatalog catalog(pipeline.numSites, pipeline.catalogSeed);
    const core::TraceCollector collector(cfg);
    const int cells = std::min(100, pipeline.numSites *
                                        pipeline.tracesPerSite);
    for (int idx = 0; idx < cells; ++idx) {
        const SiteId site = idx / pipeline.tracesPerSite;
        const int run = idx % pipeline.tracesPerSite;
        sim::PerfCounters perf;
        const std::size_t synth = tracer.open("sim.synthesize");
        const sim::RunTimeline timeline =
            collector.synthesizeTimeline(catalog.site(site), run, &perf);
        tracer.close(synth, static_cast<double>(perf.eventsSimulated));
        m.synthesized += perf;
        for (const attack::AttackerKind kind : kinds) {
            const std::uint64_t seed =
                cfg.seed ^ (static_cast<std::uint64_t>(idx) << 20);
            auto timer = cfg.effectiveTimer().make(seed);
            const std::size_t span = tracer.open(
                kind == attack::AttackerKind::LoopCounting ? "attack.loop"
                                                           : "attack.sweep");
            const attack::Trace trace =
                attack::collectTrace(kind, cfg.attackerParams, cfg.machine,
                                     timeline, *timer,
                                     cfg.effectivePeriod(), seed)
                    .valueOrDie();
            tracer.close(span, static_cast<double>(trace.counts.size()));
        }
    }
}

/**
 * One fingerprinting cell, decomposed: the stage graph's Collect,
 * Featurize, FoldSplit, TrainFold/ScoreFold and Aggregate bodies
 * called directly, then the same cell through runFingerprintingShared.
 */
void
traceCell(Tracer &tracer, const std::string &slug,
          const core::CollectionConfig &cfg,
          std::span<const attack::AttackerKind> kinds,
          const core::PipelineConfig &pipeline,
          const std::vector<std::string> &labels, core::StageCache *cache,
          Measurements &m)
{
    const double decomposed_start = tracer.now();
    const std::size_t cell = tracer.open("cell");
    const web::SiteCatalog catalog(pipeline.numSites, pipeline.catalogSeed);
    const core::TraceCollector collector(cfg);
    const Label non_sensitive = pipeline.numSites;

    std::vector<core::CollectionStats> closed_stats, open_stats;
    sim::PerfCounters perf;
    std::size_t span = tracer.open("core.collect");
    const std::vector<attack::TraceSet> closed =
        collector
            .collectClosedWorldMulti(catalog, pipeline.tracesPerSite, kinds,
                                     &closed_stats, &perf)
            .valueOrDie();
    tracer.close(span, static_cast<double>(closed.front().size()));
    std::vector<attack::TraceSet> extra(kinds.size());
    if (pipeline.openWorldExtra > 0) {
        span = tracer.open("core.collect");
        extra = collector
                    .collectOpenWorldMulti(catalog, pipeline.openWorldExtra,
                                           non_sensitive, kinds,
                                           &open_stats, &perf)
                    .valueOrDie();
        tracer.close(span, static_cast<double>(extra.front().size()));
    }

    std::vector<core::FeaturizedEntry> entries(kinds.size());
    std::vector<std::vector<WorldRun>> worlds(kinds.size());
    for (std::size_t a = 0; a < kinds.size(); ++a) {
        core::FeaturizedEntry &entry = entries[a];
        span = tracer.open("core.featurize");
        entry.closedWorld = core::toDataset(closed[a], pipeline.featureLen,
                                            pipeline.numSites);
        entry.collectedTraces = closed_stats[a].collected;
        entry.hasOpenWorld = pipeline.openWorldExtra > 0;
        if (entry.hasOpenWorld) {
            attack::TraceSet open = closed[a];
            for (const attack::Trace &trace : extra[a].traces)
                open.add(trace);
            entry.openWorld = core::toDataset(open, pipeline.featureLen,
                                              pipeline.numSites + 1);
            entry.collectedTraces += open_stats[a].collected;
        }
        tracer.close(span, static_cast<double>(entry.collectedTraces));

        worlds[a].push_back(evaluateWorld(tracer, pipeline,
                                          entry.closedWorld,
                                          ml::kClosedWorldFoldSeedBase,
                                          false));
        m.results[slug + labels[a] + "_top1"] =
            worlds[a].back().result.top1Mean;
        if (entry.hasOpenWorld) {
            worlds[a].push_back(evaluateWorld(tracer, pipeline,
                                              entry.openWorld,
                                              ml::kOpenWorldFoldSeedBase,
                                              true));
            m.results[slug + labels[a] + "_open_combined"] =
                worlds[a].back().result.openWorld.combinedAccuracy;
        }
        for (const WorldRun &world : worlds[a])
            for (const FoldRun &run : world.folds)
                m.epochs += run.epochs;
    }
    tracer.close(cell);
    m.decomposedWall += tracer.now() - decomposed_start;

    if (cache != nullptr) {
        span = tracer.open("cache.codecs");
        for (std::size_t a = 0; a < kinds.size(); ++a)
            timeCacheCodecs(entries[a], worlds[a], pipeline, *cache, m);
        tracer.close(span);
    }

    span = tracer.open("direct");
    const double direct_start = tracer.now();
    const std::vector<core::FingerprintResult> direct =
        core::runFingerprintingShared(cfg, kinds, pipeline).valueOrDie();
    m.directWall += tracer.now() - direct_start;
    tracer.close(span);
    for (std::size_t a = 0; a < kinds.size(); ++a) {
        m.mismatches +=
            countMismatches(worlds[a][0].result, direct[a].closedWorld);
        if (direct[a].hasOpenWorld)
            m.mismatches += worlds[a].size() < 2
                                ? 1
                                : countMismatches(worlds[a][1].result,
                                                  direct[a].openWorld);
    }

    sampleCollect(tracer, cfg, kinds, pipeline, m);
}

/** gap_attribution, decomposed per (site, run), then run plainly. */
void
traceGaps(Tracer &tracer, const core::CollectionConfig &config, int runs,
          Measurements &m)
{
    const core::TraceCollector collector(config);
    const auto sites = web::SiteCatalog::exampleSites();
    std::size_t total = 0, attributed = 0;
    const double start = tracer.now();
    for (const auto &site : sites) {
        for (int run = 0; run < runs; ++run) {
            sim::PerfCounters perf;
            std::size_t span = tracer.open("sim.synthesize");
            const auto timeline =
                collector.synthesizeTimeline(site, run, &perf);
            tracer.close(span, static_cast<double>(perf.eventsSimulated));
            m.synthesized += perf;
            span = tracer.open("ktrace.record");
            const auto records = ktrace::KernelTracer().record(timeline);
            tracer.close(span, static_cast<double>(records.size()));
            span = tracer.open("ktrace.detect");
            const auto gaps = ktrace::GapDetector().detect(timeline);
            tracer.close(span, static_cast<double>(gaps.size()));
            span = tracer.open("ktrace.attribute");
            const auto report =
                ktrace::summarize(ktrace::attributeGaps(gaps, records));
            tracer.close(span, static_cast<double>(report.totalGaps));
            total += report.totalGaps;
            attributed += report.attributedToInterrupt;
        }
    }
    m.decomposedWall = tracer.now() - start;
    m.results["total_gaps"] = static_cast<double>(total);
    m.results["interrupt_attribution_fraction"] =
        total > 0 ? static_cast<double>(attributed) /
                        static_cast<double>(total)
                  : 0.0;

    const std::size_t span = tracer.open("direct");
    const double direct_start = tracer.now();
    std::size_t direct_total = 0;
    for (const auto &site : sites)
        for (int run = 0; run < runs; ++run) {
            const auto timeline = collector.synthesizeTimeline(site, run);
            direct_total +=
                ktrace::summarize(
                    ktrace::attributeGaps(
                        ktrace::GapDetector().detect(timeline),
                        ktrace::KernelTracer().record(timeline)))
                    .totalGaps;
        }
    m.directWall = tracer.now() - direct_start;
    tracer.close(span);
    m.mismatches += direct_total != total;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

std::string
quoted(const std::string &s)
{
    return "\"" + s + "\"";
}

/** The per-layer metrics this run can give, by BENCHMARK.json name. */
std::map<std::string, double>
layerMetrics(const Tracer &tracer, const Measurements &m, int threads)
{
    const auto totals = tracer.totals();
    const auto get = [&](const std::string &name) {
        const auto it = totals.find(name);
        return it == totals.end() ? Tracer::Totals{} : it->second;
    };
    const auto busy = [&](const std::string &name) {
        const Tracer::Totals t = get(name);
        return t.wall > 0.0 ? t.cpu / (threads * t.wall) : 0.0;
    };
    const auto ratio = [](double a, double b) {
        return b > 0.0 ? a / b : 0.0;
    };
    std::map<std::string, double> out;
    out["pool.collect_busy"] = busy("core.collect");
    out["pool.train_busy"] = busy("ml.folds");
    out["sim.synthesize_s"] = get("sim.synthesize").self;
    out["sim.ns_per_event"] =
        1e9 * ratio(get("sim.synthesize").self,
                    static_cast<double>(m.synthesized.eventsSimulated));
    out["attack.loop_s"] = get("attack.loop").self;
    out["attack.sweep_s"] = get("attack.sweep").self;
    out["attack.ns_per_period"] =
        1e9 * ratio(get("attack.loop").self + get("attack.sweep").self,
                    get("attack.loop").count + get("attack.sweep").count);
    out["ktrace.record_s"] = get("ktrace.record").self;
    out["ktrace.detect_s"] = get("ktrace.detect").self;
    out["ktrace.attribute_s"] = get("ktrace.attribute").self;
    out["core.collect_s"] = get("core.collect").self;
    out["core.featurize_s"] = get("core.featurize").self;
    out["ml.fit_s"] = get("ml.fit").self;
    out["ml.epochs"] = m.epochs;
    out["ml.us_per_sample_epoch"] =
        1e6 * ratio(get("ml.fit").self, get("ml.fit").count);
    out["ml.score_s"] = get("ml.score").self;
    for (const char *kind : {"featurized", "model", "scores"}) {
        const auto enc = m.encode.find(kind);
        const auto dec = m.decode.find(kind);
        out[std::string("cache.encode_mb_per_s.") + kind] =
            enc == m.encode.end() ? 0.0 : enc->second.mbPerSecond();
        out[std::string("cache.decode_mb_per_s.") + kind] =
            dec == m.decode.end() ? 0.0 : dec->second.mbPerSecond();
    }
    out["cache.put_s"] = m.putSeconds;
    out["cache.lookup_s"] = m.lookupSeconds;
    out["trace.overhead"] = ratio(m.decomposedWall, m.directWall);
    return out;
}

std::string
toJson(const Tracer &tracer, const Measurements &m,
       const std::string &experiment, int threads)
{
    std::ostringstream out;
    out << "{\n  \"experiment\": " << quoted(experiment)
        << ",\n  \"threads\": " << threads << ",\n  \"simd\": "
        << quoted(simd::name(simd::active()))
        << ",\n  \"mismatches\": " << m.mismatches
        << ",\n  \"synthesized\": {\"events\": "
        << m.synthesized.eventsSimulated
        << ", \"irqs\": " << m.synthesized.interruptsSynthesized
        << ", \"bytesSorted\": " << m.synthesized.bytesSorted << "}";
    const auto object = [&](const char *key,
                            const std::map<std::string, double> &values) {
        out << ",\n  " << quoted(key) << ": {";
        const char *sep = "\n    ";
        for (const auto &[name, value] : values) {
            out << sep << quoted(name) << ": " << number(value);
            sep = ",\n    ";
        }
        out << "\n  }";
    };
    object("results", m.results);
    object("metrics", layerMetrics(tracer, m, threads));
    out << ",\n  \"spans\": [";
    const char *sep = "\n    ";
    for (const Span &span : tracer.spans()) {
        out << sep << "{\"name\": " << quoted(span.name)
            << ", \"start\": " << number(span.start)
            << ", \"end\": " << number(span.end)
            << ", \"parent\": " << span.parent
            << ", \"thread\": " << span.thread
            << ", \"count\": " << number(span.count) << "}";
        sep = ",\n    ";
    }
    out << "\n  ]\n}\n";
    return out.str();
}

int
usage(const std::string &message)
{
    std::fprintf(stderr, "bench_trace: %s\n", message.c_str());
    std::fprintf(stderr, "usage: bench_trace --artifact=FILE --out=FILE "
                         "--scratch=DIR | --simd\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    std::string artifact_path, out_path, scratch;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--simd") {
            std::printf("%s\n", simd::name(simd::active()));
            return 0;
        }
        if (arg.rfind("--artifact=", 0) == 0)
            artifact_path = arg.substr(11);
        else if (arg.rfind("--out=", 0) == 0)
            out_path = arg.substr(6);
        else if (arg.rfind("--scratch=", 0) == 0)
            scratch = arg.substr(10);
        else
            return usage("unknown argument " + arg);
    }
    if (artifact_path.empty() || out_path.empty() || scratch.empty())
        return usage("--artifact, --out and --scratch are required");

    std::ifstream in(artifact_path);
    if (!in)
        return usage("cannot read " + artifact_path);
    std::ostringstream text;
    text << in.rdbuf();
    const spec::SpecFile file =
        spec::parseSpecText(text.str(), artifact_path).valueOrDie();

    core::ExperimentRegistry registry;
    bench::registerAllExperiments(registry);
    const core::ExperimentDescriptor *descriptor =
        registry.find(file.experiment);
    if (descriptor == nullptr)
        return usage("artifact names no registered experiment");
    spec::SpecSources sources;
    sources.specText = text.str();
    sources.specName = artifact_path;
    // The traced run measures computation, never a replay.
    sources.flags = {{"cache-dir", ""}, {"resume", ""}};
    const spec::RunSpec run_spec =
        spec::resolveSpec(descriptor->name, descriptor->schema, sources)
            .valueOrDie();
    const core::ExperimentScale scale = core::scaleFromSpec(run_spec);
    setGlobalThreads(scale.threads);
    const int threads = globalThreadCount();

    Tracer tracer;
    Measurements m;
    if (descriptor->name == "table1_fingerprinting") {
        core::StageCache cache =
            core::StageCache::open(scratch).valueOrDie();
        core::PipelineConfig pipeline = core::pipelineForScale(scale);
        pipeline.openWorldExtra = scale.openWorldExtra;
        const attack::AttackerKind kinds[] = {
            attack::AttackerKind::LoopCounting,
            attack::AttackerKind::SweepCounting};
        const std::vector<std::string> labels = {"loop", "sweep"};
        for (const auto &[browser, os, slug] :
             {std::tuple{"chrome", "linux", "Chrome_Linux_"},
              std::tuple{"tor", "linux", "Tor_Linux_"}}) {
            core::CollectionConfig cfg = core::collectionForScale(scale);
            const core::CollectionConfig row =
                core::presets::table1Row(browser, os);
            cfg.machine = row.machine;
            cfg.browser = row.browser;
            traceCell(tracer, slug, cfg, kinds, pipeline, labels, &cache, m);
        }
    } else if (descriptor->name == "background_noise") {
        core::CollectionConfig quiet = core::collectionForScale(scale);
        quiet.machine = sim::MachineConfig::linuxDesktop();
        quiet.browser = web::BrowserProfile::chrome();
        const attack::AttackerKind kinds[] = {
            attack::AttackerKind::LoopCounting};
        traceCell(tracer, "", quiet, kinds, core::pipelineForScale(scale),
                  {"loop-counting_quiet"}, nullptr, m);
    } else if (descriptor->name == "gap_attribution") {
        core::CollectionConfig config;
        config.machine.routing = sim::IrqRoutingPolicy::PinnedAway;
        config.machine.pinnedCores = true;
        config.browser = web::BrowserProfile::nativeRust();
        config.seed = scale.seed;
        int runs = static_cast<int>(run_spec.getInt("runs"));
        if (runs == 0)
            runs = scale.tracesPerSite >= 100 ? 100 : 25;
        traceGaps(tracer, config, runs, m);
    } else {
        return usage("no traced decomposition for " + descriptor->name);
    }

    const Status written = atomicWriteFile(
        out_path, toJson(tracer, m, descriptor->name, threads));
    if (!written.isOk()) {
        std::fprintf(stderr, "bench_trace: %s\n",
                     written.toString().c_str());
        return 1;
    }
    return 0;
}
