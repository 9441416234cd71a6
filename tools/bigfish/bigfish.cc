/**
 * @file
 * bigfish — the unified experiment CLI.
 *
 *   bigfish list                         every registered experiment
 *   bigfish describe <experiment>        schema, defaults, paper numbers
 *   bigfish run <experiment...> [flags]  run one or more experiments
 *   bigfish run --all [--smoke|--full]   run the whole suite
 *
 * Run flags: --smoke / --full scale presets, --spec=FILE (a JSON spec;
 * an emitted artifact replays bit-for-bit), --json=PATH (single
 * experiment), --json-dir=DIR (one artifact per experiment), plus any
 * --<param>=<value> the experiment's schema declares. Parameter
 * resolution order: defaults -> preset -> spec file -> flags; malformed
 * values fail with the offending source named.
 *
 * One named experiment runs directly in this process. Every other run
 * is a supervised suite (core/supervisor.hh): several names, --all, or
 * one experiment with a deadline or retries, which only a child process
 * can honour. Each experiment then runs as its own `bigfish run <name>`
 * child, so a crash cannot take down --all; --keep-going continues past
 * failures, --timeout=SECS kills an experiment's child at its deadline,
 * --retries=N reruns a child that crashed, timed out or exited 1, and
 * the suite manifest is rewritten to <json-dir>/suite-manifest.json
 * after every experiment. SIGINT / SIGTERM stop a suite gracefully: the
 * partial manifest is flushed and the exit status is 130.
 * --cache-dir=DIR stores every collected cell and stage output in DIR,
 * so a rerun (or a retry) resumes or replays bit-identically.
 *
 * Exit status: 0 success, 1 a run failed, 2 usage error, 130 interrupted.
 */

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "base/atomic_file.hh"
#include "base/stopwatch.hh"
#include "base/thread_pool.hh"
#include "core/supervisor.hh"
#include "experiments.hh"

using namespace bigfish;

namespace {

volatile std::sig_atomic_t g_interrupted = 0;

/**
 * A supervised suite's first SIGINT/SIGTERM requests a graceful stop:
 * the supervisor terminates the current experiment's child, marks the
 * rest skipped, flushes the manifest, and exits 130. A second signal
 * gets the default action — die immediately.
 */
void
handleInterrupt(int sig)
{
    g_interrupted = 1;
    std::signal(sig, SIG_DFL);
}

int
usageError(const std::string &message)
{
    std::fprintf(stderr, "bigfish: %s\n", message.c_str());
    std::fprintf(stderr, "run `bigfish help` for usage\n");
    return 2;
}

void
printUsage()
{
    std::printf(
        "bigfish — unified experiment runner for the bigger-fish "
        "reproduction\n"
        "\n"
        "usage:\n"
        "  bigfish list                         list registered "
        "experiments\n"
        "  bigfish describe <experiment>        parameters and paper "
        "numbers\n"
        "  bigfish run <experiment...> [flags]  run experiments\n"
        "  bigfish run --all [flags]            run the whole suite\n"
        "  bigfish help\n"
        "\n"
        "run flags:\n"
        "  --smoke            tiny scale for CI smoke runs\n"
        "  --full             the paper's scale (100x100, 10 folds)\n"
        "  --spec=FILE        JSON run spec; an emitted artifact\n"
        "                     replays the recorded run bit-for-bit\n"
        "  --json=PATH        write the run artifact (one experiment "
        "only)\n"
        "  --json-dir=DIR     write DIR/<experiment>.json per "
        "experiment\n"
        "  --explain          print the stage graph after each run: one\n"
        "                     row per stage with its input fingerprint,\n"
        "                     cache provenance (hit/miss/stored/skipped)\n"
        "                     and CPU/wall timing\n"
        "  --<param>=<value>  any parameter the experiment declares\n"
        "                     (see `bigfish describe <experiment>`)\n"
        "\n"
        "resilience flags:\n"
        "  --cache-dir=DIR    content-addressed stage cache in DIR:\n"
        "                     collected cells (stored as each finishes),\n"
        "                     featurized datasets, trained fold models\n"
        "                     and fold scores. A rerun reuses every "
        "stage\n"
        "                     whose input fingerprint is unchanged "
        "(e.g.\n"
        "                     an eval-only change skips collection AND\n"
        "                     training), bit-identically; a run killed\n"
        "                     mid-collection resumes from its stored "
        "cells\n"
        "  --keep-going       keep running later experiments after a "
        "failure\n"
        "  --timeout=SECS     per-experiment deadline; the experiment's\n"
        "                     child process is killed when it expires\n"
        "  --retries=N        rerun an experiment whose child crashed,\n"
        "                     timed out or failed, up to N times\n"
        "\n"
        "One named experiment runs in this process. Several names, --all,\n"
        "--timeout or --retries run each experiment as a child process,\n"
        "so a crash is contained, and write the suite manifest to\n"
        "<json-dir>/suite-manifest.json after every experiment.\n"
        "\n"
        "Parameter resolution: defaults -> preset -> spec file -> "
        "flags.\n"
        "Exit status: 0 success, 1 a run failed, 2 usage error, 130 "
        "interrupted.\n");
}

int
cmdList(const core::ExperimentRegistry &registry)
{
    std::size_t width = 0;
    for (const auto &name : registry.names())
        width = std::max(width, name.size());
    for (const auto &[name, d] : registry.all())
        std::printf("%-*s  %s [%s]\n", static_cast<int>(width),
                    name.c_str(), d.title.c_str(),
                    d.paperReference.c_str());
    std::printf("\n%zu experiments; run one with `bigfish run <name>`.\n",
                registry.size());
    return 0;
}

int
cmdDescribe(const core::ExperimentRegistry &registry,
            const std::string &name)
{
    const auto *d = registry.find(name);
    if (d == nullptr)
        return usageError("unknown experiment \"" + name +
                          "\" (see `bigfish list`)");
    std::printf("%s — %s\n", d->name.c_str(), d->title.c_str());
    std::printf("reproduces: %s\n\n", d->paperReference.c_str());
    std::printf("parameters:\n%s", spec::helpText(d->schema).c_str());
    if (!d->smokeOverrides.empty()) {
        std::printf("\n--smoke additionally sets:");
        for (const auto &[key, value] : d->smokeOverrides)
            std::printf(" %s=%s", key.c_str(), value.c_str());
        std::printf("\n");
    }
    if (!d->expected.empty()) {
        std::printf("\npaper-expected values:\n");
        for (const auto &e : d->expected)
            std::printf("  %-36s %.6f\n", e.name.c_str(), e.value);
    }
    return 0;
}

struct RunOptions
{
    std::vector<std::string> experiments;
    bool all = false;
    bool smoke = false;
    bool full = false;
    bool help = false;
    bool keepGoing = false;
    bool explain = false;
    double timeoutSeconds = 0.0;
    int retries = 0;
    std::string specPath;
    std::string jsonPath;
    std::string jsonDir;
    std::string cacheDir;
    std::vector<std::pair<std::string, std::string>> flags;
};

/** Splits "--key=value" into its parts; false for non-flag tokens. */
bool
splitFlag(const std::string &arg, std::string &key, std::string &value)
{
    if (arg.rfind("--", 0) != 0)
        return false;
    const std::size_t eq = arg.find('=');
    if (eq == std::string::npos) {
        key = arg.substr(2);
        value.clear();
    } else {
        key = arg.substr(2, eq - 2);
        value = arg.substr(eq + 1);
    }
    return true;
}

bool
parsePositiveDouble(const std::string &text, double *out)
{
    char *end = nullptr;
    const double v = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || v < 0.0)
        return false;
    *out = v;
    return true;
}

bool
parseNonNegativeInt(const std::string &text, int *out)
{
    char *end = nullptr;
    const long v = std::strtol(text.c_str(), &end, 10);
    if (end == text.c_str() || *end != '\0' || v < 0 || v > 1000)
        return false;
    *out = static_cast<int>(v);
    return true;
}

Result<std::string>
readFile(const std::string &path)
{
    std::ifstream in(path);
    if (!in)
        return ioError("cannot read spec file " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

/** This binary's own path, for spawning supervised children. */
std::string
selfExecutable(const char *argv0)
{
    char buf[4096];
    const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        return buf;
    }
    return argv0 != nullptr && argv0[0] != '\0' ? argv0 : "bigfish";
}

/** One experiment with its spec fully resolved and output path fixed. */
struct PreparedRun
{
    const core::ExperimentDescriptor *descriptor = nullptr;
    spec::RunSpec spec;
    std::string artifactPath;
};

/** Runs one experiment in this process and writes its artifact. */
Status
runDirect(const PreparedRun &p, bool explain)
{
    core::RunContext ctx;
    ctx.descriptor = p.descriptor;
    ctx.spec = p.spec;

    const int threads = static_cast<int>(ctx.spec.getInt("threads"));
    if (threads > 0)
        setGlobalThreads(threads);

    core::printExperimentBanner(ctx);
    Stopwatch wall;
    auto artifact = p.descriptor->run(ctx);
    if (!artifact.isOk())
        return artifact.status();
    artifact.value().setWallSeconds(wall.seconds());
    if (explain) {
        std::printf("\nstage graph (fingerprints + cache "
                    "provenance):\n%s",
                    artifact.value().explainText().c_str());
    }
    if (!p.artifactPath.empty()) {
        BF_RETURN_IF_ERROR(artifact.value().writeJson(p.artifactPath));
        std::printf("report written: %s\n", p.artifactPath.c_str());
    }
    return Status::ok();
}

int
cmdRun(const core::ExperimentRegistry &registry,
       const std::vector<std::string> &args, const char *argv0)
{
    RunOptions options;
    for (const auto &arg : args) {
        std::string key, value;
        if (!splitFlag(arg, key, value)) {
            options.experiments.push_back(arg);
        } else if (key == "all" && value.empty()) {
            options.all = true;
        } else if (key == "smoke" && value.empty()) {
            options.smoke = true;
        } else if (key == "full" && value.empty()) {
            options.full = true;
        } else if (key == "help" && value.empty()) {
            options.help = true;
        } else if (key == "spec") {
            options.specPath = value;
        } else if (key == "json") {
            options.jsonPath = value;
        } else if (key == "json-dir") {
            options.jsonDir = value;
        } else if (key == "cache-dir") {
            // Kept both as a CLI option (directory creation) and as a
            // spec flag: the pipeline reads it from the resolved scale.
            options.cacheDir = value;
            options.flags.emplace_back(key, value);
        } else if (key == "resume") {
            // The schema still knows this spelling for
            // bench/harness/trace.cc; the CLI has one: --cache-dir.
            return usageError("unknown flag --resume (use --cache-dir)");
        } else if (key == "explain" && value.empty()) {
            options.explain = true;
        } else if (key == "keep-going" && value.empty()) {
            options.keepGoing = true;
        } else if (key == "timeout") {
            if (!parsePositiveDouble(value, &options.timeoutSeconds))
                return usageError("--timeout expects a non-negative "
                                  "number of seconds, got \"" +
                                  value + "\"");
        } else if (key == "retries") {
            if (!parseNonNegativeInt(value, &options.retries))
                return usageError(
                    "--retries expects an integer in [0, 1000], got \"" +
                    value + "\"");
        } else if (key == "paper-model" && value.empty()) {
            // Convenience: the old binaries took --paper-model as a
            // bare switch; keep that spelling working.
            options.flags.emplace_back("paper-model", "true");
        } else {
            options.flags.emplace_back(key, value);
        }
    }
    if (options.smoke && options.full)
        return usageError("--smoke and --full are mutually exclusive");

    std::string spec_text;
    std::string spec_experiment;
    if (!options.specPath.empty()) {
        auto text = readFile(options.specPath);
        if (!text.isOk())
            return usageError(text.status().message());
        spec_text = std::move(text).value();
        auto parsed = spec::parseSpecText(spec_text, options.specPath);
        if (!parsed.isOk()) {
            std::fprintf(stderr, "bigfish: %s\n",
                         parsed.status().message().c_str());
            return 2;
        }
        spec_experiment = parsed.value().experiment;
    }

    std::vector<std::string> names = options.experiments;
    if (options.all) {
        if (!names.empty())
            return usageError(
                "--all cannot be combined with experiment names");
        names = registry.names();
    } else if (names.empty() && !spec_experiment.empty()) {
        // `bigfish run --spec=artifact.json` replays the recorded
        // experiment without restating its name.
        names.push_back(spec_experiment);
    }
    if (names.empty())
        return usageError("no experiment named (see `bigfish list`, or "
                          "use --all)");
    if (options.help) {
        for (const auto &name : names) {
            const int rc = cmdDescribe(registry, name);
            if (rc != 0)
                return rc;
        }
        return 0;
    }
    if (!options.jsonPath.empty() && names.size() > 1)
        return usageError("--json=PATH only applies to a single "
                          "experiment; use --json-dir=DIR");

    // Resolve every spec before running anything: a malformed value in
    // any source is a usage error (exit 2) caught up front, never a
    // mid-suite surprise.
    std::map<std::string, PreparedRun> prepared;
    for (const auto &name : names) {
        const auto *descriptor = registry.find(name);
        if (descriptor == nullptr)
            return usageError("unknown experiment \"" + name +
                              "\" (see `bigfish list`)");
        if (prepared.count(name) != 0)
            continue;

        spec::SpecSources sources;
        if (options.smoke) {
            sources.presets = core::smokeScaleOverrides();
            sources.presets.insert(sources.presets.end(),
                                   descriptor->smokeOverrides.begin(),
                                   descriptor->smokeOverrides.end());
        } else if (options.full) {
            sources.presets = core::fullScaleOverrides();
        }
        sources.specText = spec_text;
        sources.specName = options.specPath;
        sources.flags = options.flags;

        auto resolved =
            spec::resolveSpec(descriptor->name, descriptor->schema,
                              sources);
        if (!resolved.isOk()) {
            std::fprintf(stderr, "bigfish: %s\n",
                         resolved.status().message().c_str());
            return 2;
        }

        PreparedRun p;
        p.descriptor = descriptor;
        p.spec = std::move(resolved).value();
        if (!options.jsonPath.empty())
            p.artifactPath = options.jsonPath;
        else if (!options.jsonDir.empty())
            p.artifactPath = options.jsonDir + "/" + name + ".json";
        prepared.emplace(name, std::move(p));
    }

    // Create output directories once every spec resolved, so a missing
    // --json-dir fails before hours of collection, not after.
    for (const std::string &dir : {options.jsonDir, options.cacheDir}) {
        if (dir.empty())
            continue;
        const Status made = createDirectories(dir);
        if (!made.isOk()) {
            std::fprintf(stderr, "bigfish: %s\n",
                         made.message().c_str());
            return 1;
        }
    }

    // One named experiment with no deadline and no retries needs no
    // child: it runs here, with the default signal actions.
    if (names.size() == 1 && !options.all &&
        options.timeoutSeconds == 0.0 && options.retries == 0) {
        const Status run =
            runDirect(prepared.at(names[0]), options.explain);
        if (run.isOk())
            return 0;
        std::fprintf(stderr, "bigfish: %s: %s\n", names[0].c_str(),
                     run.toString().c_str());
        return 1;
    }

    // A supervised suite: each experiment is a child `bigfish run` of
    // its own, which never carries --timeout, --retries or --keep-going
    // and so is always a direct run.
    std::signal(SIGINT, handleInterrupt);
    std::signal(SIGTERM, handleInterrupt);
    core::SupervisorOptions supervisor_options;
    supervisor_options.keepGoing = options.keepGoing;
    supervisor_options.timeoutSeconds = options.timeoutSeconds;
    supervisor_options.maxAttempts = options.retries + 1;
    if (!options.jsonDir.empty())
        supervisor_options.manifestPath =
            options.jsonDir + "/suite-manifest.json";
    supervisor_options.interrupted = &g_interrupted;

    const std::string exe = selfExecutable(argv0);
    const core::ChildCommand child_command =
        [&](const std::string &name) -> core::ChildPlan {
        core::ChildPlan plan;
        plan.argv = {exe, "run", name};
        if (options.smoke)
            plan.argv.push_back("--smoke");
        if (options.full)
            plan.argv.push_back("--full");
        if (!options.specPath.empty())
            plan.argv.push_back("--spec=" + options.specPath);
        if (options.explain)
            plan.argv.push_back("--explain");
        for (const auto &[key, value] : options.flags)
            plan.argv.push_back("--" + key + "=" + value);
        plan.artifactPath = prepared.at(name).artifactPath;
        if (!plan.artifactPath.empty())
            plan.argv.push_back("--json=" + plan.artifactPath);
        return plan;
    };

    const core::SuiteManifest manifest =
        core::Supervisor(supervisor_options).run(names, child_command);

    std::printf("\nsuite summary:\n");
    for (const auto &o : manifest.outcomes)
        std::printf("  %-28s %-8s attempts=%d wall=%.1fs%s%s\n",
                    o.name.c_str(), core::runStateName(o.state),
                    o.attempts, o.wallSeconds,
                    o.message.empty() ? "" : "  ", o.message.c_str());
    if (manifest.interrupted)
        std::printf("  (interrupted: remaining experiments skipped)\n");
    if (!supervisor_options.manifestPath.empty())
        std::printf("suite manifest: %s\n",
                    supervisor_options.manifestPath.c_str());
    return manifest.exitCode();
}

} // namespace

int
main(int argc, char **argv)
{
    core::ExperimentRegistry registry;
    bench::registerAllExperiments(registry);

    if (argc < 2) {
        printUsage();
        return 2;
    }
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);

    if (command == "help" || command == "--help" || command == "-h") {
        printUsage();
        return 0;
    }
    if (command == "list") {
        if (!args.empty())
            return usageError("`bigfish list` takes no arguments");
        return cmdList(registry);
    }
    if (command == "describe") {
        if (args.size() != 1)
            return usageError("usage: bigfish describe <experiment>");
        return cmdDescribe(registry, args[0]);
    }
    if (command == "run")
        return cmdRun(registry, args, argv[0]);
    return usageError("unknown command \"" + command +
                      "\" (expected list, describe, run or help)");
}
