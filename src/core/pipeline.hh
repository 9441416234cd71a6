/**
 * @file
 * FingerprintPipeline: collect → featurize → cross-validated classify.
 *
 * This is the library's highest-level entry point: given the
 * CollectionConfigs (attack setups), the attacker kinds and one
 * PipelineConfig (dataset scale + classifier), runFingerprintingShared()
 * reproduces the paper's evaluation protocol and returns Table-ready
 * accuracy numbers for the closed-world and open-world settings, per
 * config and attacker.
 *
 * Internally the run is a declared stage graph (core/stage.hh):
 * Collect → Featurize per attacker → per world FoldSplit →
 * TrainFold×k → ScoreFold×k → Aggregate. Every stage is
 * content-addressed, so with a cacheDir any upstream prefix whose
 * fingerprints match a previous run replays from the stage cache
 * bit-identically, and the per-stage timing/cache table comes back in
 * FingerprintResult::stages.
 *
 * Error contract: runFingerprintingShared() returns a Result.
 * Traces that come back unusable (fault-truncated, empty) are dropped
 * with accounting in FingerprintResult::droppedTraces rather than
 * aborting the evaluation; the run fails only when the configuration is
 * invalid or so few traces survive that cross-validation is impossible.
 */

#ifndef BF_CORE_PIPELINE_HH
#define BF_CORE_PIPELINE_HH

#include <span>
#include <vector>

#include "base/result.hh"
#include "core/collector.hh"
#include "core/stage.hh"
#include "ml/classifier.hh"
#include "ml/evaluation.hh"

namespace bigfish::core {

/** Dataset scale and classifier choice for one evaluation. */
struct PipelineConfig
{
    int numSites = 20;      ///< Paper: 100.
    int tracesPerSite = 20; ///< Paper: 100.
    /** Open-world extra one-off traces; paper: 5000. 0 disables. */
    int openWorldExtra = 0;
    /**
     * Time buckets per channel fed to the classifier (traces are
     * resampled; the dataset rows are 2 x featureLen: bucket means plus
     * sub-bucket dip depths).
     */
    std::size_t featureLen = 256;
    /** Classifier; defaults to the two-channel CNN-LSTM at bench scale. */
    ml::ClassifierFactory factory =
        ml::cnnLstmFactory(ml::CnnLstmParams::traceDefaults());
    /** Cross-validation protocol. */
    ml::EvalConfig eval;
    /** Catalog seed (same seed = same 100 websites). */
    std::uint64_t catalogSeed = 7;
    /**
     * Stage cache directory ("" disables caching). When set, every
     * cacheable output — collected (world, site, run) cells, featurized
     * datasets, trained fold models, per-fold evaluation scores — is
     * stored content-addressed (core/stage_cache.hh) and a re-run
     * reuses whatever upstream prefix of the stage graph still
     * fingerprints the same, replaying it bit-identically: an
     * interrupted collection resumes from its stored cells, and
     * changing only evaluation settings skips collection,
     * featurization and (for eval-only knobs like topK) training too.
     */
    std::string cacheDir;
};

/** The result of one full fingerprinting evaluation. */
struct FingerprintResult
{
    ml::EvalResult closedWorld;
    /** Present only when openWorldExtra > 0. */
    ml::EvalResult openWorld;
    bool hasOpenWorld = false;

    /** Traces dropped as unusable across both worlds (fault accounting). */
    std::size_t droppedTraces = 0;
    /** Traces that made it into the evaluation across both worlds. */
    std::size_t collectedTraces = 0;

    /**
     * The per-stage execution table: one StageReport per stage this
     * result's attacker owns (name, phase, fingerprint, cache
     * provenance, CPU/wall seconds, item/drop accounting). This
     * replaces the former ad-hoc per-phase *Seconds fields; phase
     * rollups are reduced from it by RunArtifact. In shared runs the
     * Collect stage appears only in the first attacker's table, so
     * summing per-attacker tables counts the shared collection once.
     */
    std::vector<StageReport> stages;
};

/**
 * Runs the complete evaluation for every config in @p collections and
 * every attacker in @p attackers, returning the results per
 * [config][attacker] in argument order.
 *
 * Closed world: numSites x tracesPerSite traces, k-fold CV, top-1/top-5.
 * Open world (when enabled): the closed-world traces become "sensitive"
 * classes and openWorldExtra one-off traces form the "non-sensitive"
 * class, mirroring the paper's 101-class design.
 *
 * Degraded collection (injected faults, truncated traces) drops traces
 * with accounting instead of failing; see FingerprintResult.
 *
 * The attackers of a config watch the same victim: its timelines are
 * synthesized once and shared, and every result is bit-identical to a
 * one-attacker call, because synthesis and timer seeding never depend
 * on the attacker. A config's Collect stage is reported once, in its
 * first attacker's stage table, so summing results does not
 * double-count it.
 *
 * Configs with equal TimelineInputs (core/collector.hh) form a group
 * that runs one Collect: each (world, site, run) base timeline is
 * synthesized once for the whole group, and only when some member's
 * cell misses the cache. Every result is bit-identical to a separate
 * call for its config, and every per-config cache entry keeps its key.
 * A group's Collect cost and simulator counters are reported in the
 * Collect row of its first member that collected; the other members'
 * Collect rows read zero.
 */
[[nodiscard]] Result<std::vector<std::vector<FingerprintResult>>>
runFingerprintingShared(std::span<const CollectionConfig> collections,
                        std::span<const attack::AttackerKind> attackers,
                        const PipelineConfig &pipeline);

/** runFingerprintingShared() for one config: its results per attacker. */
[[nodiscard]] Result<std::vector<FingerprintResult>>
runFingerprintingShared(const CollectionConfig &collection,
                        std::span<const attack::AttackerKind> attackers,
                        const PipelineConfig &pipeline);

/** Converts a TraceSet into an ml::Dataset of fixed-length features. */
ml::Dataset toDataset(const attack::TraceSet &traces,
                      std::size_t feature_len, int num_classes);

} // namespace bigfish::core

#endif // BF_CORE_PIPELINE_HH
