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
        char wall[32];
        std::snprintf(wall, sizeof(wall), "%.3f", o.wallSeconds);
        out += "    {\"name\": " + spec::quoteJsonString(o.name) +
               ", \"state\": \"" + runStateName(o.state) +
               "\", \"attempts\": " + std::to_string(o.attempts) +
               ", \"exitCode\": " + std::to_string(o.exitCode) +
               ", \"wallSeconds\": " + wall +
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
        outcome.message = "empty child command";
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
        // Lead a process group of its own, so the deadline and
        // interrupt signals reach everything the child starts (a shell
        // child forks its commands instead of exec'ing them).
        ::setpgid(0, 0);
        ::execvp(argv[0], argv.data());
        // Exec failure: report like a shell would and die without
        // running the parent's atexit machinery.
        std::fprintf(stderr, "bigfish: cannot exec %s: %s\n", argv[0],
                     std::strerror(errno));
        ::_exit(127);
    }

    // Set the group from both sides, so it exists before any kill
    // below, whichever process runs first.
    ::setpgid(pid, pid);

    // Deadline watchdog: poll the child, kill its process group when
    // the deadline expires, and forward interrupts to the group. This
    // is supervisor wall-clock code — explicitly allowlisted in
    // tools/lint/bigfish-lint.toml; deadlines are operational bounds,
    // never values feeding results.
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
            ::kill(-pid, SIGTERM);
            sent_term = true;
            term_at = Clock::now();
        }
        if (sent_term &&
            std::chrono::duration<double>(Clock::now() - term_at).count() >
                2.0) {
            // The child ignored SIGTERM's grace period.
            ::kill(-pid, SIGKILL);
        }
        if (!sent_term && options_.timeoutSeconds > 0.0 &&
            elapsed > options_.timeoutSeconds) {
            ::kill(-pid, SIGKILL);
            // The next waitpid round reaps it; WTERMSIG==SIGKILL with
            // no SIGTERM sent and a deadline set decodes as Timeout.
        }
        timespec ts{0, 10 * 1000 * 1000}; // 10 ms poll.
        ::nanosleep(&ts, nullptr);
    }
}

ExperimentOutcome
Supervisor::runOne(const std::string &name,
                   const ChildCommand &child_command) const
{
    const ChildPlan plan = child_command(name);
    using Clock = std::chrono::steady_clock;
    const Clock::time_point start = Clock::now();

    ExperimentOutcome outcome;
    for (int attempt = 1;; ++attempt) {
        outcome = runChildAttempt(name, plan);
        outcome.attempts = attempt;
        outcome.artifactPath = plan.artifactPath;
        if (outcome.state == RunState::Ok) {
            if (attempt > 1)
                outcome.state = RunState::Retried;
            if (!plan.artifactPath.empty() &&
                !parseTraceAccounting(readFileOrEmpty(plan.artifactPath),
                                      &outcome.collectedTraces,
                                      &outcome.droppedTraces))
                warnOnce("supervisor/artifact-accounting",
                         "cannot read trace accounting from " +
                             plan.artifactPath);
            break;
        }
        // Crashes, timeouts and plain failures (exit 1) are worth
        // another attempt; usage errors (exit 2) and exec failures
        // (127) are permanent.
        const bool retryable = outcome.state == RunState::Crashed ||
                               outcome.state == RunState::Timeout ||
                               outcome.exitCode == 1;
        if (!retryable || attempt >= options_.maxAttempts || interrupted())
            break;
    }
    outcome.wallSeconds =
        std::chrono::duration<double>(Clock::now() - start).count();
    return outcome;
}

SuiteManifest
Supervisor::run(const std::vector<std::string> &names,
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

        ExperimentOutcome outcome = runOne(name, child_command);
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
