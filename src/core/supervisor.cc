#include "core/supervisor.hh"

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include "base/atomic_file.hh"
#include "base/logging.hh"
#include "spec/spec.hh"

namespace bigfish::core {

namespace {

std::string
formatSeconds(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.3f", v);
    return buf;
}

/**
 * Sleeps ~@p seconds in short slices, returning early (false) when the
 * interrupt flag fires — a Ctrl-C during a backoff delay must not hang
 * the suite for the rest of the delay.
 */
bool
interruptibleSleep(double seconds,
                   const volatile std::sig_atomic_t *interrupted)
{
    double remaining = seconds;
    while (remaining > 0.0) {
        if (interrupted != nullptr && *interrupted != 0)
            return false;
        const double slice = remaining < 0.05 ? remaining : 0.05;
        timespec ts;
        ts.tv_sec = static_cast<time_t>(slice);
        ts.tv_nsec =
            static_cast<long>((slice - static_cast<double>(ts.tv_sec)) * 1e9);
        ::nanosleep(&ts, nullptr);
        remaining -= slice;
    }
    return interrupted == nullptr || *interrupted == 0;
}

/** Reads a whole file; empty optional-equivalent "" when unreadable. */
std::string
readFileOrEmpty(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "";
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

} // namespace

const char *
runStateName(RunState state)
{
    switch (state) {
      case RunState::Ok:
        return "ok";
      case RunState::Retried:
        return "retried";
      case RunState::Failed:
        return "failed";
      case RunState::Timeout:
        return "timeout";
      case RunState::Crashed:
        return "crashed";
      case RunState::Skipped:
        return "skipped";
    }
    return "unknown";
}

std::size_t
SuiteManifest::count(RunState state) const
{
    std::size_t n = 0;
    for (const ExperimentOutcome &outcome : outcomes)
        if (outcome.state == state)
            ++n;
    return n;
}

bool
SuiteManifest::allOk() const
{
    for (const ExperimentOutcome &outcome : outcomes)
        if (outcome.state != RunState::Ok &&
            outcome.state != RunState::Retried)
            return false;
    return true;
}

int
SuiteManifest::exitCode() const
{
    if (interrupted)
        return 130;
    return allOk() ? 0 : 1;
}

std::string
SuiteManifest::toJson() const
{
    std::string out = "{\n";
    out += "  \"suite\": {\"total\": " + std::to_string(outcomes.size());
    for (const RunState state :
         {RunState::Ok, RunState::Retried, RunState::Failed,
          RunState::Timeout, RunState::Crashed, RunState::Skipped}) {
        out += std::string(", \"") + runStateName(state) +
               "\": " + std::to_string(count(state));
    }
    out += std::string(", \"interrupted\": ") +
           (interrupted ? "true" : "false");
    out += ", \"exitCode\": " + std::to_string(exitCode()) + "},\n";
    out += "  \"experiments\": [";
    bool first = true;
    for (const ExperimentOutcome &o : outcomes) {
        out += first ? "\n" : ",\n";
        first = false;
        out += "    {\"name\": " + spec::quoteJsonString(o.name) +
               ", \"state\": \"" + runStateName(o.state) +
               "\", \"attempts\": " + std::to_string(o.attempts) +
               ", \"exitCode\": " + std::to_string(o.exitCode) +
               ", \"wallSeconds\": " + formatSeconds(o.wallSeconds) +
               ", \"traces\": {\"collected\": " +
               std::to_string(o.collectedTraces) +
               ", \"dropped\": " + std::to_string(o.droppedTraces) +
               "}, \"artifact\": " + spec::quoteJsonString(o.artifactPath) +
               ", \"message\": " + spec::quoteJsonString(o.message) + "}";
    }
    out += first ? "]\n" : "\n  ]\n";
    out += "}\n";
    return out;
}

Status
SuiteManifest::write(const std::string &path) const
{
    return atomicWriteFile(path, toJson());
}

bool
parseTraceAccounting(const std::string &artifact_json,
                     std::size_t *collected, std::size_t *dropped)
{
    const std::size_t at = artifact_json.find("\"traces\": {");
    if (at == std::string::npos)
        return false;
    unsigned long long c = 0, d = 0;
    if (std::sscanf(artifact_json.c_str() + at,
                    "\"traces\": {\"collected\": %llu, \"dropped\": %llu",
                    &c, &d) != 2)
        return false;
    if (collected != nullptr)
        *collected = static_cast<std::size_t>(c);
    if (dropped != nullptr)
        *dropped = static_cast<std::size_t>(d);
    return true;
}

Supervisor::Supervisor(SupervisorOptions options)
    : options_(std::move(options))
{
}

bool
Supervisor::interrupted() const
{
    return options_.interrupted != nullptr && *options_.interrupted != 0;
}

ExperimentOutcome
Supervisor::runChildAttempt(const std::string &name,
                            const ChildPlan &plan) const
{
    ExperimentOutcome outcome;
    outcome.name = name;
    if (plan.argv.empty()) {
        outcome.state = RunState::Failed;
        outcome.message = "isolate mode: empty child command";
        return outcome;
    }

    std::vector<char *> argv;
    argv.reserve(plan.argv.size() + 1);
    for (const std::string &arg : plan.argv)
        argv.push_back(const_cast<char *>(arg.c_str()));
    argv.push_back(nullptr);

    const pid_t pid = ::fork();
    if (pid < 0) {
        outcome.state = RunState::Failed;
        outcome.message =
            std::string("fork failed: ") + std::strerror(errno);
        return outcome;
    }
    if (pid == 0) {
        ::execvp(argv[0], argv.data());
        // Exec failure: report like a shell would and die without
        // running the parent's atexit machinery.
        std::fprintf(stderr, "bigfish: cannot exec %s: %s\n", argv[0],
                     std::strerror(errno));
        ::_exit(127);
    }

    // Deadline watchdog: poll the child, kill it when the deadline
    // expires, and forward interrupts. This is supervisor wall-clock
    // code — explicitly allowlisted in tools/lint/bigfish-lint.toml;
    // deadlines are operational bounds, never values feeding results.
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();
    bool sent_term = false;
    Clock::time_point term_at{};
    for (;;) {
        int status = 0;
        const pid_t reaped = ::waitpid(pid, &status, WNOHANG);
        if (reaped == pid) {
            if (WIFSIGNALED(status)) {
                const int sig = WTERMSIG(status);
                outcome.state = sig == SIGKILL && !sent_term &&
                                        options_.timeoutSeconds > 0.0
                                    ? RunState::Timeout
                                    : RunState::Crashed;
                outcome.exitCode = 128 + sig;
                outcome.message =
                    std::string("killed by signal ") + std::to_string(sig) +
                    " (" + ::strsignal(sig) + ")";
            } else {
                const int code = WEXITSTATUS(status);
                outcome.exitCode = code;
                if (code == 0) {
                    outcome.state = RunState::Ok;
                } else {
                    outcome.state = RunState::Failed;
                    outcome.message = code == 127
                                          ? "child failed to exec"
                                          : "child exited with code " +
                                                std::to_string(code);
                }
            }
            return outcome;
        }
        if (reaped < 0 && errno != EINTR) {
            outcome.state = RunState::Failed;
            outcome.message =
                std::string("waitpid failed: ") + std::strerror(errno);
            return outcome;
        }

        const double elapsed =
            std::chrono::duration<double>(Clock::now() - start).count();
        if (interrupted() && !sent_term) {
            ::kill(pid, SIGTERM);
            sent_term = true;
            term_at = Clock::now();
        }
        if (sent_term &&
            std::chrono::duration<double>(Clock::now() - term_at).count() >
                2.0) {
            // The child ignored SIGTERM's grace period.
            ::kill(pid, SIGKILL);
        }
        if (!sent_term && options_.timeoutSeconds > 0.0 &&
            elapsed > options_.timeoutSeconds) {
            ::kill(pid, SIGKILL);
            // The next waitpid round reaps it; WTERMSIG==SIGKILL with
            // no SIGTERM sent and a deadline set decodes as Timeout.
        }
        timespec ts{0, 10 * 1000 * 1000}; // 10 ms poll.
        ::nanosleep(&ts, nullptr);
    }
}

ExperimentOutcome
Supervisor::runOne(const std::string &name, const InProcessRun &in_process,
                   const ChildCommand &child_command) const
{
    ExperimentOutcome outcome;
    outcome.name = name;

    ChildPlan plan;
    if (options_.isolate)
        plan = child_command(name);

    using Clock = std::chrono::steady_clock;
    const Clock::time_point suite_start = Clock::now();
    const std::uint64_t salt = retrySalt(name);

    for (int attempt = 1;; ++attempt) {
        outcome.attempts = attempt;
        if (options_.isolate) {
            ExperimentOutcome tried = runChildAttempt(name, plan);
            tried.attempts = attempt;
            tried.artifactPath = plan.artifactPath;
            outcome = tried;
            if (outcome.state == RunState::Ok) {
                if (!plan.artifactPath.empty() &&
                    !parseTraceAccounting(
                        readFileOrEmpty(plan.artifactPath),
                        &outcome.collectedTraces, &outcome.droppedTraces))
                    warnOnce("supervisor/artifact-accounting",
                             "cannot read trace accounting from " +
                                 plan.artifactPath);
            }
        } else {
            outcome.message.clear();
            outcome.exitCode = 0;
            const Status run = in_process(name, outcome);
            if (run.isOk()) {
                outcome.state = RunState::Ok;
            } else {
                outcome.state = RunState::Failed;
                outcome.message = run.toString();
                outcome.exitCode = 1;
                // Retry decisions key off the structured error class.
                if (!options_.retry.shouldRetry(run, attempt)) {
                    break;
                }
                outcome.wallSeconds = std::chrono::duration<double>(
                                          Clock::now() - suite_start)
                                          .count();
                if (!interruptibleSleep(
                        options_.retry.delaySeconds(attempt, salt),
                        options_.interrupted))
                    break;
                continue;
            }
        }

        if (outcome.state == RunState::Ok) {
            if (attempt > 1)
                outcome.state = RunState::Retried;
            break;
        }

        // Isolated children: crashes, timeouts and plain failures (exit
        // 1) are transient from the suite's point of view — the retry
        // plus a persistent --resume cache makes forward progress
        // even through a deterministic mid-collection crash. Usage
        // errors (exit 2) and exec failures (127) are permanent.
        const bool retryable_state = outcome.state == RunState::Crashed ||
                                     outcome.state == RunState::Timeout ||
                                     (outcome.state == RunState::Failed &&
                                      outcome.exitCode == 1);
        if (!options_.isolate || !retryable_state ||
            attempt >= options_.retry.maxAttempts || interrupted())
            break;
        if (!interruptibleSleep(options_.retry.delaySeconds(attempt, salt),
                                options_.interrupted))
            break;
    }

    outcome.wallSeconds =
        std::chrono::duration<double>(Clock::now() - suite_start).count();
    if (!options_.isolate && options_.timeoutSeconds > 0.0 &&
        outcome.wallSeconds > options_.timeoutSeconds &&
        (outcome.state == RunState::Ok ||
         outcome.state == RunState::Retried)) {
        // In-process mode cannot preempt a running experiment; record
        // the deadline miss without failing the completed work.
        outcome.message = "deadline of " +
                          formatSeconds(options_.timeoutSeconds) +
                          "s exceeded (completed anyway; --isolate "
                          "enforces deadlines)";
    }
    return outcome;
}

SuiteManifest
Supervisor::run(const std::vector<std::string> &names,
                const InProcessRun &in_process,
                const ChildCommand &child_command) const
{
    SuiteManifest manifest;
    manifest.outcomes.reserve(names.size());

    const auto flush = [&] {
        if (options_.manifestPath.empty())
            return;
        const Status written = manifest.write(options_.manifestPath);
        if (!written.isOk())
            warnOnce("supervisor/manifest-write",
                     "cannot write suite manifest: " + written.toString());
    };

    bool bail = false;
    for (const std::string &name : names) {
        if (interrupted())
            manifest.interrupted = true;
        if (manifest.interrupted || bail) {
            ExperimentOutcome skipped;
            skipped.name = name;
            skipped.state = RunState::Skipped;
            skipped.message = manifest.interrupted
                                  ? "interrupted"
                                  : "earlier failure (no --keep-going)";
            manifest.outcomes.push_back(std::move(skipped));
            continue;
        }

        ExperimentOutcome outcome =
            runOne(name, in_process, child_command);
        if (interrupted())
            manifest.interrupted = true;
        const bool failed = outcome.state != RunState::Ok &&
                            outcome.state != RunState::Retried;
        manifest.outcomes.push_back(std::move(outcome));
        flush();
        if (failed && !options_.keepGoing)
            bail = true;
    }
    flush();
    return manifest;
}

} // namespace bigfish::core
