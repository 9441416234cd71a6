/**
 * @file
 * Tests for the resilience layer: base/atomic_file and the core suite
 * supervisor (manifest accounting, keep-going and skip semantics,
 * retries, deadlines and crash containment, interrupt handling), driven
 * with real /bin/sh children.
 */

#include <gtest/gtest.h>

#include <csignal>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include <signal.h>
#include <sys/types.h>
#include <unistd.h>

#include "base/atomic_file.hh"
#include "core/supervisor.hh"

namespace bigfish::core {
namespace {

std::string
testDir(const std::string &leaf)
{
    // Fresh per-test directory: marker files and manifests from an
    // earlier test run must not leak in.
    const std::string dir = testing::TempDir() + "bf_supervisor_" + leaf;
    std::error_code ignored;
    std::filesystem::remove_all(dir, ignored);
    return dir;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(static_cast<bool>(in)) << path;
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

// ---------------------------------------------------------------------
// base/atomic_file
// ---------------------------------------------------------------------

TEST(AtomicFile, CreateDirectoriesMakesNestedPathsAndIsIdempotent)
{
    const std::string dir = testDir("mkdir") + "/a/b/c";
    ASSERT_TRUE(createDirectories(dir).isOk());
    ASSERT_TRUE(createDirectories(dir).isOk()); // Already exists: OK.
    ASSERT_TRUE(atomicWriteFile(dir + "/probe", "x").isOk());
}

TEST(AtomicFile, CreateDirectoriesFailsThroughARegularFile)
{
    const std::string dir = testDir("mkdir_conflict");
    ASSERT_TRUE(createDirectories(dir).isOk());
    ASSERT_TRUE(atomicWriteFile(dir + "/file", "not a dir").isOk());
    const Status bad = createDirectories(dir + "/file/sub");
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.code(), ErrorCode::IoError);
    EXPECT_NE(bad.message().find(dir + "/file"), std::string::npos)
        << "error must name the offending path: " << bad.message();
}

TEST(AtomicFile, WriteReplacesContentAndLeavesNoTempBehind)
{
    const std::string dir = testDir("atomic");
    ASSERT_TRUE(createDirectories(dir).isOk());
    const std::string path = dir + "/artifact.json";
    ASSERT_TRUE(atomicWriteFile(path, "first").isOk());
    EXPECT_EQ(slurp(path), "first");
    ASSERT_TRUE(atomicWriteFile(path, "second, longer content").isOk());
    EXPECT_EQ(slurp(path), "second, longer content");
    // Temp names are unique per writer (<path>.tmp.<pid>.<serial>);
    // none may survive a successful write.
    for (const auto &item : std::filesystem::directory_iterator(dir))
        EXPECT_EQ(item.path().filename().string().find(".tmp"),
                  std::string::npos)
            << "temp file left behind: " << item.path();
}

TEST(AtomicFile, WriteIntoMissingDirectoryReturnsIoErrorNamingPath)
{
    const std::string path = testDir("missing") + "/nope/artifact.json";
    const Status bad = atomicWriteFile(path, "content");
    ASSERT_FALSE(bad.isOk());
    EXPECT_EQ(bad.code(), ErrorCode::IoError);
    EXPECT_NE(bad.message().find("artifact.json"), std::string::npos);
}

// ---------------------------------------------------------------------
// SuiteManifest
// ---------------------------------------------------------------------

ExperimentOutcome
outcome(const std::string &name, RunState state, int attempts = 1)
{
    ExperimentOutcome o;
    o.name = name;
    o.state = state;
    o.attempts = attempts;
    return o;
}

TEST(SuiteManifest, CountsStatesAndComputesExitCodes)
{
    SuiteManifest m;
    m.outcomes.push_back(outcome("a", RunState::Ok));
    m.outcomes.push_back(outcome("b", RunState::Retried, 2));
    EXPECT_TRUE(m.allOk());
    EXPECT_EQ(m.exitCode(), 0);
    EXPECT_EQ(m.count(RunState::Ok), 1u);
    EXPECT_EQ(m.count(RunState::Retried), 1u);

    m.outcomes.push_back(outcome("c", RunState::Crashed));
    EXPECT_FALSE(m.allOk());
    EXPECT_EQ(m.exitCode(), 1);

    m.interrupted = true;
    EXPECT_EQ(m.exitCode(), 130);
}

TEST(SuiteManifest, JsonCarriesPerExperimentRecordsAndWritesAtomically)
{
    SuiteManifest m;
    ExperimentOutcome o = outcome("table1", RunState::Failed, 3);
    o.exitCode = 1;
    o.wallSeconds = 1.5;
    o.message = "child exited with code 1";
    o.collectedTraces = 120;
    o.droppedTraces = 3;
    o.artifactPath = "/tmp/out/table1.json";
    m.outcomes.push_back(o);

    const std::string json = m.toJson();
    EXPECT_NE(json.find("\"name\": \"table1\""), std::string::npos);
    EXPECT_NE(json.find("\"state\": \"failed\""), std::string::npos);
    EXPECT_NE(json.find("\"attempts\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"traces\": {\"collected\": 120, \"dropped\": 3}"),
              std::string::npos);
    EXPECT_NE(json.find("\"exitCode\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"interrupted\": false"), std::string::npos);

    const std::string dir = testDir("manifest");
    ASSERT_TRUE(createDirectories(dir).isOk());
    ASSERT_TRUE(m.write(dir + "/suite-manifest.json").isOk());
    EXPECT_EQ(slurp(dir + "/suite-manifest.json"), json);
}

TEST(SuiteManifest, ParseTraceAccountingRoundTrips)
{
    std::size_t collected = 0, dropped = 0;
    EXPECT_TRUE(parseTraceAccounting(
        "{\n  \"traces\": {\"collected\": 42, \"dropped\": 7},\n}",
        &collected, &dropped));
    EXPECT_EQ(collected, 42u);
    EXPECT_EQ(dropped, 7u);
    EXPECT_FALSE(parseTraceAccounting("{}", &collected, &dropped));
    EXPECT_FALSE(
        parseTraceAccounting("\"traces\": oops", &collected, &dropped));
}

// ---------------------------------------------------------------------
// Supervisor (real /bin/sh children)
// ---------------------------------------------------------------------

/** Every experiment runs @p script under /bin/sh. */
ChildCommand
shellChild(const std::string &script)
{
    return [script](const std::string &) {
        ChildPlan plan;
        plan.argv = {"/bin/sh", "-c", script};
        return plan;
    };
}

/**
 * A suite under @p dir whose experiment "<name>" records that it ran
 * (dir/ran_<name>) and exits 1 when it is @p failing, else 0.
 */
ChildCommand
recordingChild(const std::string &dir, const std::string &failing)
{
    return [dir, failing](const std::string &name) {
        return shellChild("touch " + dir + "/ran_" + name + "; exit " +
                          (name == failing ? "1" : "0"))(name);
    };
}

/** The names in @p candidates whose recordingChild marker exists. */
std::vector<std::string>
ranExperiments(const std::string &dir,
               const std::vector<std::string> &candidates)
{
    std::vector<std::string> ran;
    for (const std::string &name : candidates)
        if (std::filesystem::exists(dir + "/ran_" + name))
            ran.push_back(name);
    return ran;
}

TEST(Supervisor, RetriesTransientFailuresDeterministically)
{
    // Fails twice, then succeeds: a counter file carries the attempt
    // number across child processes.
    const std::string dir = testDir("retry_counter");
    ASSERT_TRUE(createDirectories(dir).isOk());
    const std::string counter = dir + "/count";
    SupervisorOptions options;
    options.maxAttempts = 3;
    const SuiteManifest m = Supervisor(options).run(
        {"flaky"},
        shellChild("n=$(cat " + counter + " 2>/dev/null || echo 0); "
                   "n=$((n + 1)); echo $n > " + counter + "; "
                   "[ $n -ge 3 ]"));
    EXPECT_EQ(slurp(counter), "3\n");
    ASSERT_EQ(m.outcomes.size(), 1u);
    EXPECT_EQ(m.outcomes[0].state, RunState::Retried);
    EXPECT_EQ(m.outcomes[0].attempts, 3);
    EXPECT_EQ(m.exitCode(), 0);
}

TEST(Supervisor, PermanentErrorsAreNotRetried)
{
    // A child that cannot even be exec'd fails the same way every time.
    SupervisorOptions options;
    options.maxAttempts = 5;
    const SuiteManifest m =
        Supervisor(options).run({"broken"}, [](const std::string &) {
            ChildPlan plan;
            plan.argv = {"/nonexistent/bigfish", "run", "broken"};
            return plan;
        });
    EXPECT_EQ(m.outcomes[0].state, RunState::Failed);
    EXPECT_EQ(m.outcomes[0].exitCode, 127);
    EXPECT_EQ(m.outcomes[0].attempts, 1) << "exec failures must not retry";
    EXPECT_NE(m.outcomes[0].message.find("exec"), std::string::npos);
    EXPECT_EQ(m.exitCode(), 1);
}

TEST(Supervisor, FailureSkipsRemainderWithoutKeepGoing)
{
    const std::string dir = testDir("skip_remainder");
    ASSERT_TRUE(createDirectories(dir).isOk());
    const std::vector<std::string> names = {"a", "b", "c", "d"};
    const SuiteManifest m = Supervisor(SupervisorOptions{})
                                .run(names, recordingChild(dir, "b"));
    EXPECT_EQ(ranExperiments(dir, names),
              (std::vector<std::string>{"a", "b"}));
    EXPECT_EQ(m.outcomes[0].state, RunState::Ok);
    EXPECT_EQ(m.outcomes[1].state, RunState::Failed);
    EXPECT_EQ(m.outcomes[2].state, RunState::Skipped);
    EXPECT_EQ(m.outcomes[3].state, RunState::Skipped);
    EXPECT_EQ(m.outcomes[2].attempts, 0);
    EXPECT_EQ(m.exitCode(), 1);
}

TEST(Supervisor, KeepGoingRunsEverythingAndStillFailsTheSuite)
{
    const std::string dir = testDir("keep_going");
    ASSERT_TRUE(createDirectories(dir).isOk());
    SupervisorOptions options;
    options.keepGoing = true;
    const std::vector<std::string> names = {"a", "b", "c"};
    const SuiteManifest m =
        Supervisor(options).run(names, recordingChild(dir, "b"));
    EXPECT_EQ(ranExperiments(dir, names), names);
    EXPECT_EQ(m.outcomes[1].state, RunState::Failed);
    EXPECT_EQ(m.outcomes[2].state, RunState::Ok);
    EXPECT_FALSE(m.allOk());
    EXPECT_EQ(m.exitCode(), 1);
}

volatile std::sig_atomic_t g_interrupted = 0;

void
setInterrupted(int)
{
    g_interrupted = 1;
}

TEST(Supervisor, InterruptSkipsRemainingExperimentsAndExits130)
{
    // The first child signals its parent mid-experiment, as a Ctrl-C
    // would reach bigfish, then finishes: it ignores the SIGTERM the
    // supervisor forwards, so its outcome is deterministic.
    g_interrupted = 0;
    struct sigaction action = {};
    struct sigaction previous = {};
    action.sa_handler = setInterrupted;
    ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);
    SupervisorOptions options;
    options.interrupted = &g_interrupted;
    const SuiteManifest m = Supervisor(options).run(
        {"a", "b", "c"},
        shellChild("trap '' TERM; kill -USR1 $PPID; sleep 0.1; exit 0"));
    ::sigaction(SIGUSR1, &previous, nullptr);
    EXPECT_TRUE(m.interrupted);
    EXPECT_EQ(m.outcomes[0].state, RunState::Ok);
    EXPECT_EQ(m.outcomes[1].state, RunState::Skipped);
    EXPECT_EQ(m.outcomes[2].state, RunState::Skipped);
    EXPECT_EQ(m.exitCode(), 130);
}

TEST(Supervisor, ManifestIsFlushedAfterEveryExperiment)
{
    const std::string dir = testDir("flush");
    ASSERT_TRUE(createDirectories(dir).isOk());
    SupervisorOptions options;
    options.keepGoing = true;
    options.manifestPath = dir + "/suite-manifest.json";

    // Each child snapshots the manifest on disk when it STARTS.
    const ChildCommand snapshot = [&](const std::string &name) {
        return shellChild("cat " + options.manifestPath + " > " + dir +
                          "/seen_" + name + " 2>/dev/null; exit 0")(name);
    };
    const SuiteManifest manifest =
        Supervisor(options).run({"a", "b"}, snapshot);
    EXPECT_TRUE(manifest.allOk());
    EXPECT_EQ(slurp(dir + "/seen_a"), "")
        << "no manifest before the first run";
    EXPECT_NE(slurp(dir + "/seen_b").find("\"name\": \"a\""),
              std::string::npos)
        << "manifest flushed after experiment a, before b started";
    const std::string final_manifest = slurp(options.manifestPath);
    EXPECT_NE(final_manifest.find("\"name\": \"b\""), std::string::npos);
}

TEST(SupervisorIsolate, SuccessfulChildReportsOk)
{
    SupervisorOptions options;
    const SuiteManifest m = Supervisor(options).run(
        {"child"}, shellChild("exit 0"));
    ASSERT_EQ(m.outcomes.size(), 1u);
    EXPECT_EQ(m.outcomes[0].state, RunState::Ok);
    EXPECT_EQ(m.outcomes[0].exitCode, 0);
}

TEST(SupervisorIsolate, FailingChildReportsExitCode)
{
    SupervisorOptions options;
    const SuiteManifest m = Supervisor(options).run(
        {"child"}, shellChild("exit 3"));
    EXPECT_EQ(m.outcomes[0].state, RunState::Failed);
    EXPECT_EQ(m.outcomes[0].exitCode, 3);
    EXPECT_EQ(m.exitCode(), 1);
}

TEST(SupervisorIsolate, CrashingChildIsContainedAndReported)
{
    SupervisorOptions options;
    options.keepGoing = true;
    const SuiteManifest m = Supervisor(options).run(
        {"crasher"}, shellChild("kill -ABRT $$"));
    EXPECT_EQ(m.outcomes[0].state, RunState::Crashed);
    EXPECT_EQ(m.outcomes[0].exitCode, 128 + SIGABRT);
    EXPECT_NE(m.outcomes[0].message.find("signal"), std::string::npos);
}

/** True while @p pid names a process that has not exited (a zombie
 *  awaiting its reaper counts as exited). */
bool
processRunning(pid_t pid)
{
    if (::kill(pid, 0) != 0)
        return false;
    std::ifstream stat("/proc/" + std::to_string(pid) + "/stat");
    std::string line;
    if (!std::getline(stat, line))
        return false;
    // The state letter follows the parenthesized command name.
    const std::size_t close = line.rfind(')');
    return close == std::string::npos || close + 2 >= line.size() ||
           line[close + 2] != 'Z';
}

TEST(SupervisorIsolate, HungChildIsKilledAtTheDeadline)
{
    // The child shell starts a grandchild and waits on it: the deadline
    // must take down the whole tree, not only the shell.
    const std::string dir = testDir("hung_child");
    ASSERT_TRUE(createDirectories(dir).isOk());
    const std::string pid_file = dir + "/grandchild.pid";
    SupervisorOptions options;
    options.timeoutSeconds = 0.3;
    const SuiteManifest m = Supervisor(options).run(
        {"hung"}, shellChild("sleep 30 & echo $! > " + pid_file + "; wait"));
    EXPECT_EQ(m.outcomes[0].state, RunState::Timeout);
    EXPECT_EQ(m.outcomes[0].exitCode, 128 + SIGKILL);
    EXPECT_LT(m.outcomes[0].wallSeconds, 10.0);
    EXPECT_EQ(m.exitCode(), 1);

    std::ifstream in(pid_file);
    pid_t grandchild = 0;
    ASSERT_TRUE(static_cast<bool>(in >> grandchild))
        << "the child never recorded its grandchild";
    ASSERT_GT(grandchild, 0);
    // SIGKILL lands asynchronously; allow the kernel a moment.
    for (int i = 0; i < 200 && processRunning(grandchild); ++i)
        ::usleep(10 * 1000);
    EXPECT_FALSE(processRunning(grandchild))
        << "the grandchild outlived its killed parent";
}

TEST(SupervisorIsolate, CrashedChildIsRetriedPerPolicy)
{
    const std::string dir = testDir("retry_marker");
    ASSERT_TRUE(createDirectories(dir).isOk());
    SupervisorOptions options;
    options.maxAttempts = 3;
    // Crash until the marker file exists, then succeed: models a
    // transient crash that a retry (with journaled progress) survives.
    const std::string script = "if [ -e " + dir + "/marker ]; then exit 0; "
                               "else touch " + dir + "/marker; "
                               "kill -ABRT $$; fi";
    const SuiteManifest m = Supervisor(options).run(
        {"flaky_crasher"}, shellChild(script));
    EXPECT_EQ(m.outcomes[0].state, RunState::Retried);
    EXPECT_EQ(m.outcomes[0].attempts, 2);
    EXPECT_EQ(m.exitCode(), 0);
}

TEST(SupervisorIsolate, UsageErrorExitCode2IsNotRetried)
{
    const std::string dir = testDir("usage_marker");
    ASSERT_TRUE(createDirectories(dir).isOk());
    SupervisorOptions options;
    options.maxAttempts = 5;
    const std::string script =
        "touch " + dir + "/attempt_$$; exit 2";
    const SuiteManifest m = Supervisor(options).run(
        {"usage"}, shellChild(script));
    EXPECT_EQ(m.outcomes[0].state, RunState::Failed);
    EXPECT_EQ(m.outcomes[0].exitCode, 2);
    EXPECT_EQ(m.outcomes[0].attempts, 1);
}

} // namespace
} // namespace bigfish::core
