/**
 * @file
 * RunArtifact: the structured result of one experiment run.
 *
 * This generalizes the old bench `BenchReport` into a value type any
 * caller can inspect: headline metrics (in insertion order), per-phase
 * CPU and wall-clock buckets (collect/featurize/train/eval — reported
 * separately because fold-level wall sums exceed the true wall time
 * under parallel folds or timeshared cores), the fully-resolved
 * spec::RunSpec that produced the run, seed provenance, and the paper's
 * expected-shape numbers from the experiment descriptor. Serialized to
 * JSON it embeds the resolved spec, so feeding the artifact file back
 * through `bigfish run --spec=<artifact.json>` replays the run
 * bit-for-bit.
 */

#ifndef BF_CORE_ARTIFACT_HH
#define BF_CORE_ARTIFACT_HH

#include <cstdint>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "base/status.hh"
#include "core/pipeline.hh"
#include "spec/spec.hh"

namespace bigfish::core {

/** One paper-expected value an experiment reproduces ("shape check"). */
struct ExpectedValue
{
    std::string name; ///< Metric name it corresponds to (may be "").
    double value = 0.0;
};

/** Where every random stream in the run derives from. */
struct SeedProvenance
{
    /** The user-facing master seed (spec parameter "seed"). */
    std::uint64_t masterSeed = 0;
    /** Site-catalog seed (fixed: same catalog across experiments). */
    std::uint64_t catalogSeed = 0;
    /** Human-readable derivation note for downstream tooling. */
    std::string derivation;
};

/** The structured output of one experiment run. */
class RunArtifact
{
  public:
    RunArtifact() = default;
    RunArtifact(std::string experiment, spec::RunSpec spec);

    const std::string &experiment() const { return experiment_; }
    const spec::RunSpec &spec() const { return spec_; }

    /**
     * Appends @p result's per-stage table (stage names prefixed with
     * "<label>/"), reduces it into the phase buckets, and appends the
     * standard metrics: `<label>_top1` always, `<label>_open_combined`
     * when the run had an open world. (Same naming as the old
     * BenchReport, so metric streams stay comparable.)
     */
    void addResult(const std::string &label,
                   const FingerprintResult &result);

    /** Appends one headline metric (insertion order is preserved). */
    void addMetric(const std::string &name, double value);

    /**
     * Adds CPU and wall seconds to one phase bucket ("collect",
     * "featurize", "train" or "eval"); panics on an unknown phase.
     */
    void addPhaseSeconds(const std::string &phase, double cpuSeconds,
                         double wallSeconds);

    void setWallSeconds(double seconds) { wallSeconds_ = seconds; }
    void setThreads(int threads) { threads_ = threads; }
    void setSeedProvenance(SeedProvenance provenance);
    void setExpected(std::vector<ExpectedValue> expected);

    const std::vector<std::pair<std::string, double>> &metrics() const
    {
        return metrics_;
    }

    /** The first metric named @p name, when present. */
    std::optional<double> findMetric(const std::string &name) const;

    /** Adds to the dropped/collected trace accounting directly. */
    void addTraceAccounting(std::size_t collected, std::size_t dropped);

    /** Traces that made it into the evaluation (fault accounting). */
    std::size_t collectedTraces() const { return collectedTraces_; }
    /** Traces dropped as unusable (fault accounting). */
    std::size_t droppedTraces() const { return droppedTraces_; }

    double wallSeconds() const { return wallSeconds_; }
    int threads() const { return threads_; }
    const std::vector<ExpectedValue> &expected() const { return expected_; }

    /** The accumulated per-stage table (label-prefixed stage names). */
    const std::vector<StageReport> &stages() const { return stages_; }

    /**
     * Human-readable per-stage table for `bigfish run --explain`:
     * stage name, phase, input fingerprint, cache provenance and
     * timing/accounting columns.
     */
    std::string explainText() const;

    /**
     * The artifact as JSON. Metrics print with six decimals and phases
     * with three — the old bench report's formats — and the resolved
     * spec is embedded under "spec" (the replayable part).
     */
    std::string toJson() const;

    /**
     * Writes toJson() to @p path atomically (write-temp-fsync-rename,
     * base/atomic_file.hh): a kill at any instant leaves either no
     * artifact or a complete one, never a torn prefix.
     */
    [[nodiscard]] Status writeJson(const std::string &path) const;

  private:
    std::string experiment_;
    spec::RunSpec spec_;
    SeedProvenance provenance_;
    std::vector<ExpectedValue> expected_;
    std::vector<std::pair<std::string, double>> metrics_;
    std::vector<StageReport> stages_;
    double collectCpuSeconds_ = 0.0;
    double collectWallSeconds_ = 0.0;
    double featurizeCpuSeconds_ = 0.0;
    double featurizeWallSeconds_ = 0.0;
    double trainCpuSeconds_ = 0.0;
    double trainWallSeconds_ = 0.0;
    double evalCpuSeconds_ = 0.0;
    double evalWallSeconds_ = 0.0;
    double wallSeconds_ = 0.0;
    int threads_ = 0;
    std::size_t collectedTraces_ = 0;
    std::size_t droppedTraces_ = 0;
};

} // namespace bigfish::core

#endif // BF_CORE_ARTIFACT_HH
