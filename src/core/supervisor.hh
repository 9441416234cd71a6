/**
 * @file
 * Supervisor: crash-isolated orchestration of a suite of experiments.
 *
 * `bigfish run --all` at paper scale is a multi-hour batch job — the
 * same shape as the paper's five-machine collection campaigns — and a
 * single hung or crashed experiment must not take the suite (and every
 * completed artifact) down with it. The supervisor runs each experiment
 * as its own `bigfish run <name>` child process, so an abort or
 * segfault is contained and reported as `crashed`, under:
 *
 *  - an optional per-experiment deadline, enforced by killing the
 *    child's process group (the child and everything it started);
 *  - a retry budget: a child that crashed, timed out or exited 1 is
 *    rerun at once, up to `maxAttempts` in all. With a `--cache-dir`,
 *    each attempt resumes from the stage cache, so a retry makes
 *    forward progress even through a deterministic mid-collection
 *    crash;
 *  - `--keep-going`: later experiments still run after a failure.
 *
 * After every experiment the suite manifest is rewritten atomically
 * (base/atomic_file.hh), so a Ctrl-C or crash mid-suite still leaves a
 * complete, parseable record of everything that finished — including
 * per-experiment dropped-trace accounting, read from each child's
 * artifact, so degraded runs are visible without re-reading every
 * artifact.
 *
 * The supervisor is callback-driven (ChildCommand) so it can be
 * unit-tested with `/bin/sh` children; tools/bigfish wires in its own
 * executable.
 */

#ifndef BF_CORE_SUPERVISOR_HH
#define BF_CORE_SUPERVISOR_HH

#include <csignal>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "base/status.hh"

namespace bigfish::core {

/** Final state of one supervised experiment. */
enum class RunState
{
    Ok,      ///< Succeeded on the first attempt.
    Retried, ///< Succeeded after at least one retry.
    Failed,  ///< Exhausted its attempts, or failed permanently.
    Timeout, ///< Deadline expired; the child's group was killed.
    Crashed, ///< Child died of a signal (abort, segfault, kill).
    Skipped, ///< Never started (earlier failure, or interrupted).
};

/** Stable lower-case name ("ok", "retried", ...), for the manifest. */
const char *runStateName(RunState state);

/** The manifest record of one supervised experiment. */
struct ExperimentOutcome
{
    std::string name;
    RunState state = RunState::Skipped;
    /** Attempts actually started (0 when skipped). */
    int attempts = 0;
    /** Child exit code (128+signal for signal deaths). */
    int exitCode = 0;
    /** Wall-clock seconds across all attempts. */
    double wallSeconds = 0.0;
    /** Failure detail ("" when ok). */
    std::string message;
    /** Trace accounting from the run artifact (PR 1 CollectionStats). */
    std::size_t collectedTraces = 0;
    std::size_t droppedTraces = 0;
    /** Artifact JSON path ("" when none was written). */
    std::string artifactPath;
};

/** The suite manifest: every outcome plus suite-level disposition. */
struct SuiteManifest
{
    std::vector<ExperimentOutcome> outcomes;
    /** True when the suite was cut short by SIGINT/SIGTERM. */
    bool interrupted = false;

    /** Number of outcomes in @p state. */
    std::size_t count(RunState state) const;
    /** True when every outcome is Ok or Retried. */
    bool allOk() const;
    /** Suite exit code: 130 interrupted, 1 any failure, else 0. */
    int exitCode() const;
    /** The manifest as JSON. */
    std::string toJson() const;
    /** Writes toJson() to @p path atomically. */
    [[nodiscard]] Status write(const std::string &path) const;
};

/**
 * The argv (argv[0] = executable path) that runs one experiment as an
 * isolated child, plus the artifact path the child will write ("" when
 * none).
 */
struct ChildPlan
{
    std::vector<std::string> argv;
    std::string artifactPath;
};
using ChildCommand = std::function<ChildPlan(const std::string &name)>;

struct SupervisorOptions
{
    /** Run remaining experiments after a failure. */
    bool keepGoing = false;
    /** Per-experiment deadline in seconds (0 = none). */
    double timeoutSeconds = 0.0;
    /** Attempts per experiment, the first included (1 = no retry). */
    int maxAttempts = 1;
    /** Manifest path, rewritten atomically after every experiment
     *  ("" keeps the manifest in memory only). */
    std::string manifestPath;
    /**
     * Interrupt flag set by the caller's SIGINT/SIGTERM handler. When
     * it becomes non-zero the supervisor stops starting work, marks
     * the remainder Skipped, flushes the manifest, and reports exit
     * code 130.
     */
    const volatile std::sig_atomic_t *interrupted = nullptr;
};

/** Orchestrates a suite of experiments; see the file comment. */
class Supervisor
{
  public:
    explicit Supervisor(SupervisorOptions options);

    /**
     * Runs @p names in order, each as the child @p child_command
     * describes. The returned manifest holds one outcome per name, in
     * order.
     */
    SuiteManifest run(const std::vector<std::string> &names,
                      const ChildCommand &child_command) const;

  private:
    /** One experiment through its attempt/retry loop. */
    ExperimentOutcome runOne(const std::string &name,
                             const ChildCommand &child_command) const;

    /** One isolated child attempt; returns the outcome state. */
    ExperimentOutcome runChildAttempt(const std::string &name,
                                      const ChildPlan &plan) const;

    bool interrupted() const;

    SupervisorOptions options_;
};

/**
 * Extracts the `"traces": {"collected": N, "dropped": M}` accounting
 * from an artifact JSON text; false when absent. Used to surface child
 * artifacts' accounting in the manifest without a JSON parser.
 */
bool parseTraceAccounting(const std::string &artifact_json,
                          std::size_t *collected, std::size_t *dropped);

} // namespace bigfish::core

#endif // BF_CORE_SUPERVISOR_HH
