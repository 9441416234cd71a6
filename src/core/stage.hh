/**
 * @file
 * The stage graph: typed, content-addressed pipeline phases.
 *
 * The paper's evaluation protocol is an explicit dataflow — collect
 * traces → featurize → train per fold → score per fold → aggregate —
 * and this framework makes each arrow a declared *stage* with three
 * properties by construction:
 *
 *  1. A deterministic input fingerprint. Every stage hashes its own
 *     canonical configuration text (same one-line-per-field discipline
 *     as collectionFingerprint()) together with its upstream stages'
 *     fingerprints: fp = mix64-fold(fnv64("stage=<name>\n" + canon),
 *     upstream fps). Because the composition uses input fingerprints
 *     rather than output hashes, every stage's key is computable
 *     before anything runs — which is what lets a warm run probe the
 *     cache bottom-up and skip whole upstream subgraphs (a hit on
 *     every Featurize stage means Collect never executes at all).
 *
 *  2. Uniform caching. A stage with a StageCodec stores its output in
 *     the StageCache under (codec.kind, fingerprint) and replays it
 *     bit-identically on the next run with the same fingerprint;
 *     stages without a codec (cheap or inherently local ones) simply
 *     recompute. The Collect body stores each collected cell in the
 *     same cache, so `--cache-dir` (alias `--resume`) both resumes a
 *     killed collection and replays a finished one.
 *
 *  3. Framework-collected observability. Every execution records
 *     wall/CPU seconds, cache provenance (hit, miss, stored, ...) and
 *     item/drop accounting into a StageReport; the reports become the
 *     artifact's per-stage table and the `--explain` output. Pipeline
 *     code never touches a stopwatch (enforced by the bigfish-lint
 *     stage-timing rule).
 *
 * Concurrency: declare the whole graph up front on one thread, then
 * run stages from any thread — each stage id owns a distinct,
 * pre-reserved report slot, so independent stages (per-fold
 * train/score) execute concurrently on the thread pool without
 * synchronizing, and results stay bit-identical at any thread count
 * because fingerprints, seeds and aggregation order are all fixed at
 * declaration time.
 */

#ifndef BF_CORE_STAGE_HH
#define BF_CORE_STAGE_HH

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/result.hh"
#include "base/stopwatch.hh" // bigfish-lint: allow(stage-timing)
#include "core/stage_cache.hh"
#include "sim/perf.hh"

namespace bigfish::core {

/** Where a stage's output came from (the `--explain` provenance). */
enum class StageCacheState
{
    /** No cache directory configured for the run. */
    Disabled,
    /** The stage declares no codec; it always recomputes. */
    Uncached,
    /** Probed the cache, found nothing, computed fresh. */
    Miss,
    /** Replayed bit-identically from the cache. */
    Hit,
    /** Computed fresh and committed to the cache. */
    Stored,
    /** Computed fresh but the cache commit failed (warned, non-fatal). */
    StoreFailed,
    /** Never executed: a downstream cache hit made it unnecessary. */
    Skipped,
};

/** Stable lowercase name for @p state ("hit", "store-failed", ...). */
const char *stageCacheStateName(StageCacheState state);

/** One stage's execution record; the unit of the artifact's per-stage
 *  table and the `--explain` output. */
struct StageReport
{
    /** Unique stage instance name, e.g. "train/loop/closed/f3". */
    std::string name;
    /** Artifact phase rollup bucket: collect|featurize|train|eval. */
    std::string phase;
    /** The content-addressed input fingerprint. */
    std::uint64_t fingerprint = 0;
    /** Defaults to Skipped so never-run stages report honestly. */
    StageCacheState cache = StageCacheState::Skipped;
    /** CPU seconds of this stage's execution (thread-CPU for pool
     *  stages, process-CPU for main-thread stages). */
    double cpuSeconds = 0.0;
    /** Wall seconds; per-fold stages overlap, so wall sums across
     *  stages can exceed the run's true wall clock. */
    double wallSeconds = 0.0;
    /** Units produced (traces collected, samples featurized, ...). */
    std::size_t items = 0;
    /** Units lost (dropped traces). */
    std::size_t dropped = 0;
    /** Simulator work counters (sim/perf.hh); zero for stages that do
     *  no simulation and for cache replays, exactly like
     *  cpuSeconds measures work performed rather than represented. */
    sim::PerfCounters sim;
};

/**
 * The fingerprint composition rule: hash the stage's identity and
 * canonical config text, then fold in each upstream fingerprint in
 * order. mix64 finalization after each fold keeps related inputs from
 * producing related keys.
 */
[[nodiscard]] std::uint64_t
stageFingerprint(std::string_view name, std::string_view canon,
                 std::span<const std::uint64_t> upstream);

/**
 * How a stage output of type Out crosses the cache boundary. encode
 * returning "" means "don't store" (e.g. a model that cannot
 * serialize); decode returning nullopt rejects a stale-format payload,
 * which is removed and treated as a miss.
 */
template <typename Out>
struct StageCodec
{
    /** Cache namespace, e.g. "featurized", "model", "scores". */
    std::string kind;
    std::function<std::string(const Out &)> encode;
    std::function<std::optional<Out>(const std::string &)> decode;
};

/**
 * A declared pipeline run: stage ids, fingerprints and report slots
 * are all fixed up front; execution then fills the reports in place.
 */
class StageGraph
{
  public:
    /** @p cache may be null (no --cache-dir): stages all recompute. */
    explicit StageGraph(StageCache *cache = nullptr) : cache_(cache) {}

    StageGraph(const StageGraph &) = delete;
    StageGraph &operator=(const StageGraph &) = delete;

    /**
     * Declares one stage and returns its id. @p upstream lists the ids
     * of the stages whose outputs feed this one; their fingerprints
     * (already fixed — declare dependencies first) compose into this
     * stage's fingerprint. Main thread only.
     */
    std::size_t declare(std::string name, std::string phase,
                        std::string_view canon,
                        std::span<const std::size_t> upstream);

    std::uint64_t
    fingerprint(std::size_t id) const
    {
        return reports_[id].fingerprint;
    }

    /**
     * Probes the cache for stage @p id without running anything. On a
     * hit the report records Hit plus the replay cost and the decoded
     * output is returned; on a miss the report is left untouched
     * (still Skipped) so the caller can decide what to run. Safe from
     * pool threads.
     */
    template <typename Out>
    std::optional<Out>
    fromCache(std::size_t id, const StageCodec<Out> &codec,
              bool threadCpu = false)
    {
        if (cache_ == nullptr)
            return std::nullopt;
        StageReport &report = reports_[id];
        Stopwatch wall; // bigfish-lint: allow(stage-timing)
        const double cpu_start = cpuSeconds(threadCpu);
        std::optional<std::string> payload =
            cache_->lookup(codec.kind, report.fingerprint);
        if (payload) {
            std::optional<Out> out = codec.decode(*payload);
            if (out) {
                report.cache = StageCacheState::Hit;
                report.cpuSeconds = cpuSeconds(threadCpu) - cpu_start;
                report.wallSeconds = wall.seconds();
                return out;
            }
            // CRC-intact but semantically undecodable (stale format):
            // dead weight either way.
            cache_->remove(codec.kind, report.fingerprint);
        }
        return std::nullopt;
    }

    /**
     * Executes stage @p id: probes the cache (when @p codec is
     * non-null and @p probe — pass probe=false after an explicit
     * fromCache() miss), else runs @p body, records timing and cache
     * provenance, and commits the output when cacheable. @p threadCpu
     * selects the thread-CPU clock for stages running on pool workers.
     * Errors from @p body propagate with the report still recording
     * the attempt's cost. Safe from pool threads.
     */
    template <typename Out, typename Body>
    [[nodiscard]] Result<Out>
    run(std::size_t id, const StageCodec<Out> *codec, Body &&body,
        bool probe = true, bool threadCpu = false)
    {
        if (codec != nullptr && probe) {
            std::optional<Out> cached = fromCache(id, *codec, threadCpu);
            if (cached)
                return Result<Out>(std::move(*cached));
        }
        StageReport &report = reports_[id];
        Stopwatch wall; // bigfish-lint: allow(stage-timing)
        const double cpu_start = cpuSeconds(threadCpu);
        Result<Out> out = body();
        report.cpuSeconds = cpuSeconds(threadCpu) - cpu_start;
        report.wallSeconds = wall.seconds();
        if (codec == nullptr) {
            report.cache = StageCacheState::Uncached;
            return out;
        }
        if (cache_ == nullptr) {
            report.cache = StageCacheState::Disabled;
            return out;
        }
        report.cache = StageCacheState::Miss;
        if (!out.isOk())
            return out;
        const std::string payload = codec->encode(out.value());
        if (payload.empty())
            return out;
        Status stored = cache_->put(codec->kind, report.fingerprint,
                                      payload);
        if (stored.isOk()) {
            report.cache = StageCacheState::Stored;
        } else {
            report.cache = StageCacheState::StoreFailed;
            warn("stage cache store failed for " + report.name + ": " +
                 stored.toString());
        }
        return out;
    }

    /** Records item/drop accounting for stage @p id. */
    void
    setCounts(std::size_t id, std::size_t items, std::size_t dropped)
    {
        reports_[id].items = items;
        reports_[id].dropped = dropped;
    }

    /**
     * Records @p state as stage @p id's provenance without running it:
     * its work ran inside another graph's stage (a Collect shared by a
     * timeline group), so its cost stays zero.
     */
    void
    setCacheState(std::size_t id, StageCacheState state)
    {
        reports_[id].cache = state;
    }

    /** Records simulator work counters for stage @p id. */
    void
    setSimCounters(std::size_t id, const sim::PerfCounters &counters)
    {
        reports_[id].sim = counters;
    }

    const std::vector<StageReport> &reports() const { return reports_; }

    StageCache *cache() const { return cache_; }

  private:
    /** Now() on the stage's CPU clock: thread-CPU for pool workers
     *  (wall overlaps siblings), process-CPU for main-thread stages. */
    static double
    cpuSeconds(bool threadCpu)
    {
        // bigfish-lint: allow(stage-timing)
        return detail::posixClockSeconds(threadCpu ? CLOCK_THREAD_CPUTIME_ID
                                                   : CLOCK_PROCESS_CPUTIME_ID);
    }

    StageCache *cache_;
    std::vector<StageReport> reports_;
};

} // namespace bigfish::core

#endif // BF_CORE_STAGE_HH
