/**
 * @file
 * The experiment registry: every paper table, figure, and ablation
 * registers one ExperimentDescriptor — name, paper reference, parameter
 * schema, expected-shape numbers, and a run function producing a
 * RunArtifact — and the `bigfish` CLI, tests, and scripts all drive the
 * same registry instead of per-experiment main()s.
 *
 * Experiments live in bench/experiments/ as thin registration TUs; this
 * header also carries the shared scale plumbing (the old bench_common
 * knobs: sites/traces/open/features/folds/seed/paper-model/threads) so
 * every experiment declares the same core vocabulary.
 */

#ifndef BF_CORE_REGISTRY_HH
#define BF_CORE_REGISTRY_HH

#include <functional>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/result.hh"
#include "core/artifact.hh"
#include "core/pipeline.hh"
#include "spec/spec.hh"

namespace bigfish::core {

struct ExperimentDescriptor;

/** Everything a run function receives: its descriptor + resolved spec. */
struct RunContext
{
    const ExperimentDescriptor *descriptor = nullptr;
    spec::RunSpec spec;
};

/** Runs one experiment; failures propagate as Status (no OrDie). */
using ExperimentRunFn =
    std::function<Result<RunArtifact>(const RunContext &)>;

/** One registered experiment (a paper table, figure, or ablation). */
struct ExperimentDescriptor
{
    /** Registry key and CLI name, e.g. "table1_fingerprinting". */
    std::string name;
    /** One-line human title for `bigfish list`. */
    std::string title;
    /** Paper section/table this reproduces, e.g. "Table 1, §5.1". */
    std::string paperReference;
    /** Declared parameters (always includes the common scale knobs). */
    spec::ParamSchema schema;
    /**
     * Paper-expected values (the per-binary `Row` tables of old),
     * keyed by the metric name each corresponds to. One source of
     * truth: run output deltas and EXPERIMENTS.md derive from here.
     */
    std::vector<ExpectedValue> expected;
    /**
     * Extra per-experiment --smoke preset entries (raw name/value),
     * applied on top of the common smoke scale. E.g. fig6 shrinks its
     * "loads" parameter.
     */
    std::vector<std::pair<std::string, std::string>> smokeOverrides;
    ExperimentRunFn run;

    /** The expected value recorded for metric @p name, when any. */
    std::optional<double> expectedValue(const std::string &name) const;
};

/** Name-ordered collection of every registered experiment. */
class ExperimentRegistry
{
  public:
    /** Registers @p descriptor; panics on a duplicate name. */
    void add(ExperimentDescriptor descriptor);

    /** The descriptor named @p name, or nullptr. */
    const ExperimentDescriptor *find(const std::string &name) const;

    /** All registered names, sorted. */
    std::vector<std::string> names() const;

    std::size_t size() const { return experiments_.size(); }

    const std::map<std::string, ExperimentDescriptor> &all() const
    {
        return experiments_;
    }

  private:
    std::map<std::string, ExperimentDescriptor> experiments_;
};

// --- Shared scale vocabulary (the old bench_common knobs) ---------------

/**
 * The common scale schema every experiment starts from: sites, traces,
 * open, features, folds, seed, paper-model, threads — with the same
 * defaults and BF_* environment variables the bench binaries honored.
 */
spec::ParamSchema commonScaleSchema();

/** The common knobs decoded from a resolved spec. */
struct ExperimentScale
{
    int sites = 20;
    int tracesPerSite = 20;
    int openWorldExtra = 60;
    std::size_t featureLen = 256;
    int folds = 5;
    /** k for the top-k accuracy metric (eval-only: never affects
     *  collection, featurization or training fingerprints). */
    int topK = 5;
    std::uint64_t seed = 2022;
    bool paperModel = false;
    int threads = 0;
    /** Stage cache directory (collected cells, featurized data, fold
     *  models, fold scores; "" disables caching). */
    std::string cacheDir;
    /** IO fault injection: crash after N stored cells (0 = off). */
    int ioCrashAfterRecords = 0;
    /** IO fault injection: torn bytes of the crashed cell entry. */
    int ioTornWriteBytes = 0;
};

/** Decodes the common knobs from @p run_spec (panics when missing). */
ExperimentScale scaleFromSpec(const spec::RunSpec &run_spec);

/** The --smoke preset: tiny grid for CI smoke runs. */
std::vector<std::pair<std::string, std::string>> smokeScaleOverrides();

/** The --full preset: the paper's dimensions (100×100, 10 folds). */
std::vector<std::pair<std::string, std::string>> fullScaleOverrides();

/** Builds a PipelineConfig from the scale (closed world only). */
PipelineConfig pipelineForScale(const ExperimentScale &scale);

/**
 * @p base (an experiment's machine/browser/defense configuration, e.g.
 * a core::presets row) with the scale's master seed and IO-layer fault
 * knobs (sim/faults.hh) laid over it, so cached
 * (`--cache-dir`/`--resume`) runs can be crash-tested from the CLI.
 */
CollectionConfig collectionForScale(const ExperimentScale &scale,
                                    CollectionConfig base = {});

/** The classifier factory the scale selects (two-channel CNN-LSTM). */
ml::ClassifierFactory classifierForScale(const ExperimentScale &scale);

/**
 * Starts an artifact for @p ctx: experiment name, resolved spec,
 * expected values, thread count, and seed provenance pre-filled.
 */
RunArtifact makeArtifact(const RunContext &ctx);

/** Prints the run banner (experiment, paper reference, scale). */
void printExperimentBanner(const RunContext &ctx);

} // namespace bigfish::core

#endif // BF_CORE_REGISTRY_HH
