/**
 * @file
 * Self-test for bigfish-lint (tools/lint/): runs the real binary over
 * the checked-in fixture files and asserts the exact diagnostic set.
 *
 * The contract under test:
 *  - every line annotated `// expect-lint: <rule>` in a fixture yields
 *    exactly that (file, line, rule) diagnostic, and nothing else in
 *    the fixtures fires (so suppression comments, allowlisted layer
 *    exceptions and negative cases are verified by the same equality);
 *  - disabling a rule (--disable / config file) removes exactly that
 *    rule's findings — proving each fixture exercises its own rule;
 *  - allowlist entries silence a file for one rule only;
 *  - --json emits machine-readable records and the exit code reflects
 *    whether findings remain;
 *  - --since <rev> reports exactly the full run's findings restricted
 *    to files git considers changed;
 *  - --fix removes reported unused includes and the rerun is clean.
 *
 * The binary and fixture paths are injected by tests/CMakeLists.txt as
 * BIGFISH_LINT_BINARY / BIGFISH_LINT_FIXTURES. The fixture runs use
 * the fixture-local config (fixtures.toml) so the layer-DAG pass has a
 * graph to enforce.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <tuple>
#include <vector>

namespace {

namespace fs = std::filesystem;

/** One diagnostic as (file, line, rule); messages are free-form. */
using Finding = std::tuple<std::string, int, std::string>;

struct LintRun
{
    int exitCode = -1;
    std::string stdoutText;
};

/** Runs the linter with @p args appended; captures stdout. */
LintRun
runLint(const std::string &args)
{
    const std::string cmd =
        std::string(BIGFISH_LINT_BINARY) + " " + args + " 2>/dev/null";
    FILE *pipe = popen(cmd.c_str(), "r");
    EXPECT_NE(pipe, nullptr) << "popen failed for: " << cmd;
    LintRun run;
    if (pipe == nullptr)
        return run;
    char buffer[4096];
    std::size_t got;
    while ((got = fread(buffer, 1, sizeof(buffer), pipe)) > 0)
        run.stdoutText.append(buffer, got);
    const int rc = pclose(pipe);
    run.exitCode = WIFEXITED(rc) ? WEXITSTATUS(rc) : -1;
    return run;
}

/** Standard invocation over the fixture tree with its local config. */
LintRun
lintFixtures(const std::string &extraArgs = "")
{
    const std::string dir = BIGFISH_LINT_FIXTURES;
    return runLint("--root=" + dir + " --config=" + dir +
                   "/fixtures.toml " + extraArgs + " " + dir);
}

/** Parses `path:line: [rule] message` lines into findings. */
std::vector<Finding>
parseFindings(const std::string &text)
{
    std::vector<Finding> out;
    std::istringstream in(text);
    std::string line;
    while (std::getline(in, line)) {
        const std::size_t open = line.find(": [");
        if (open == std::string::npos)
            continue;
        const std::size_t close = line.find(']', open);
        const std::size_t colon = line.rfind(':', open - 1);
        if (close == std::string::npos || colon == std::string::npos)
            continue;
        out.emplace_back(line.substr(0, colon),
                         std::stoi(line.substr(colon + 1, open - colon - 1)),
                         line.substr(open + 3, close - open - 3));
    }
    std::sort(out.begin(), out.end());
    return out;
}

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh";
}

/** Collects `// expect-lint: rule[, rule]` annotations from fixtures. */
std::vector<Finding>
expectedFindings()
{
    std::vector<Finding> out;
    const fs::path base = BIGFISH_LINT_FIXTURES;
    for (const auto &entry : fs::recursive_directory_iterator(base)) {
        if (!entry.is_regular_file() || !isSourceFile(entry.path()))
            continue;
        const std::string rel =
            fs::relative(entry.path(), base).generic_string();
        std::ifstream in(entry.path());
        std::string line;
        int lineno = 0;
        while (std::getline(in, line)) {
            ++lineno;
            const std::string marker = "expect-lint:";
            const std::size_t at = line.find(marker);
            if (at == std::string::npos)
                continue;
            std::string rules = line.substr(at + marker.size());
            std::istringstream split(rules);
            std::string rule;
            while (std::getline(split, rule, ',')) {
                rule.erase(0, rule.find_first_not_of(" \t"));
                rule.erase(rule.find_last_not_of(" \t") + 1);
                if (!rule.empty())
                    out.emplace_back(rel, lineno, rule);
            }
        }
    }
    std::sort(out.begin(), out.end());
    return out;
}

/** All rule names, straight from the binary (--list-rules). */
std::vector<std::string>
allRules()
{
    std::vector<std::string> out;
    std::istringstream in(runLint("--list-rules").stdoutText);
    std::string line;
    while (std::getline(in, line))
        if (!line.empty())
            out.push_back(line);
    return out;
}

std::string
describe(const std::vector<Finding> &findings)
{
    std::string s;
    for (const auto &[file, line, rule] : findings)
        s += "  " + file + ":" + std::to_string(line) + " [" + rule + "]\n";
    return s.empty() ? "  (none)\n" : s;
}

/** Copies fixture @p names (relative) into @p dir, keeping structure. */
void
copyFixtures(const fs::path &dir, const std::vector<std::string> &names)
{
    const fs::path base = BIGFISH_LINT_FIXTURES;
    for (const std::string &name : names) {
        const fs::path to = dir / name;
        fs::create_directories(to.parent_path());
        fs::copy_file(base / name, to,
                      fs::copy_options::overwrite_existing);
    }
}

TEST(LintFixtures, ExactDiagnosticsMatchAnnotations)
{
    const LintRun run = lintFixtures();
    const auto actual = parseFindings(run.stdoutText);
    const auto expected = expectedFindings();
    EXPECT_EQ(run.exitCode, 1) << "fixtures must produce findings";
    EXPECT_EQ(actual, expected)
        << "expected:\n" << describe(expected)
        << "actual:\n" << describe(actual);
}

TEST(LintFixtures, EveryRuleHasAtLeastOneFixtureFinding)
{
    // Guards the guard: a rule whose fixture produces nothing could be
    // deleted without ExactDiagnosticsMatchAnnotations noticing. The
    // rule list comes from the binary itself, so a newly added rule
    // without a fixture fails here.
    const auto rules = allRules();
    ASSERT_GE(rules.size(), 13u);
    const auto expected = expectedFindings();
    for (const std::string &rule : rules) {
        const bool present = std::any_of(
            expected.begin(), expected.end(),
            [&](const Finding &f) { return std::get<2>(f) == rule; });
        EXPECT_TRUE(present) << "no fixture annotation for rule " << rule;
    }
}

TEST(LintFixtures, DisablingARuleRemovesExactlyItsFindings)
{
    const auto baseline = parseFindings(lintFixtures().stdoutText);
    for (const std::string &rule : allRules()) {
        const LintRun run = lintFixtures("--disable=" + rule);
        const auto actual = parseFindings(run.stdoutText);
        std::vector<Finding> want;
        std::copy_if(baseline.begin(), baseline.end(),
                     std::back_inserter(want), [&](const Finding &f) {
                         return std::get<2>(f) != rule;
                     });
        EXPECT_EQ(actual, want) << "--disable=" << rule;
        EXPECT_LT(actual.size(), baseline.size())
            << "disabling " << rule << " must remove findings";
    }
}

TEST(LintFixtures, ConfigFileDisablesRule)
{
    const fs::path config =
        fs::temp_directory_path() / "bigfish_lint_test_rules.toml";
    {
        std::ofstream out(config);
        out << "[rules]\nnondeterminism = false\n";
    }
    const std::string dir = BIGFISH_LINT_FIXTURES;
    const LintRun run =
        runLint("--root=" + dir + " --config=" + config.string() + " " + dir);
    fs::remove(config);
    for (const auto &[file, line, rule] : parseFindings(run.stdoutText))
        EXPECT_NE(rule, "nondeterminism") << file << ":" << line;
}

TEST(LintFixtures, AllowlistSilencesOneRuleForMatchingPaths)
{
    const fs::path config =
        fs::temp_directory_path() / "bigfish_lint_test_allow.toml";
    {
        std::ofstream out(config);
        out << "[allow.nondeterminism]\npaths = [\"nondeterminism.cc\"]\n";
    }
    const std::string dir = BIGFISH_LINT_FIXTURES;
    const LintRun run =
        runLint("--root=" + dir + " --config=" + config.string() + " " + dir);
    fs::remove(config);
    const auto actual = parseFindings(run.stdoutText);
    for (const auto &[file, line, rule] : actual) {
        EXPECT_FALSE(file == "nondeterminism.cc" &&
                     rule == "nondeterminism")
            << "allowlisted finding survived at line " << line;
    }
    // The allowlist is per-rule, not per-file: other rules' findings
    // and other files' nondeterminism findings must survive.
    const bool other_rules_survive = std::any_of(
        actual.begin(), actual.end(), [](const Finding &f) {
            return std::get<2>(f) == "raw-thread";
        });
    EXPECT_TRUE(other_rules_survive);
}

TEST(LintFixtures, SuppressionCommentsSilenceAnnotatedLines)
{
    // suppressed.cc carries real violations, each with an inline
    // allow(...) comment; the exact-match test already proves it emits
    // nothing, so here just pin the file is actually scanned.
    const LintRun run = lintFixtures();
    for (const auto &[file, line, rule] : parseFindings(run.stdoutText))
        EXPECT_NE(file, "suppressed.cc")
            << "suppressed finding leaked: " << rule << " at " << line;
}

TEST(LintFixtures, JsonOutputIsMachineReadable)
{
    const LintRun run = lintFixtures("--json");
    EXPECT_EQ(run.exitCode, 1);
    EXPECT_NE(run.stdoutText.find("\"diagnostics\""), std::string::npos);
    EXPECT_NE(run.stdoutText.find("\"rule\": \"nondeterminism\""),
              std::string::npos);
    EXPECT_NE(run.stdoutText.find("\"file\": \"raw_thread.cc\""),
              std::string::npos);
    // Count field matches the text-mode finding count.
    const auto text_findings = parseFindings(lintFixtures().stdoutText);
    const std::string needle =
        "\"count\": " + std::to_string(text_findings.size());
    EXPECT_NE(run.stdoutText.find(needle), std::string::npos)
        << run.stdoutText;
}

TEST(LintSince, ReportsOnlyChangedFilesWithFullRunFindings)
{
    const fs::path dir =
        fs::temp_directory_path() / "bigfish_lint_since_repo";
    fs::remove_all(dir);
    fs::create_directories(dir);
    const auto writeSource = [&](const char *name, const char *extra) {
        std::ofstream out(dir / name);
        out << "int rand();\n"
               "int fixtureEntropy() { return rand(); }\n"
            << extra;
    };
    writeSource("changed.cc", "");
    writeSource("same.cc", "");
    const std::string git = "git -C '" + dir.string() + "' ";
    ASSERT_EQ(std::system((git + "init -q").c_str()), 0);
    ASSERT_EQ(std::system((git + "add -A").c_str()), 0);
    ASSERT_EQ(std::system((git + "-c user.email=lint@test -c "
                                 "user.name=lint commit -qm seed")
                              .c_str()),
              0);
    writeSource("changed.cc", "int fixtureMore() { return rand(); }\n");

    const std::string common = "--root=" + dir.string() + " " + dir.string();
    const auto full = parseFindings(runLint(common).stdoutText);
    const LintRun since = runLint("--since=HEAD " + common);
    const auto restricted = parseFindings(since.stdoutText);

    // Only changed.cc is reported, with exactly the findings the full
    // run produced for it — the cross-TU passes still saw everything.
    std::vector<Finding> want;
    std::copy_if(full.begin(), full.end(), std::back_inserter(want),
                 [](const Finding &f) {
                     return std::get<0>(f) == "changed.cc";
                 });
    EXPECT_FALSE(want.empty());
    EXPECT_EQ(restricted, want)
        << "since:\n" << describe(restricted)
        << "full-for-changed:\n" << describe(want);
    const bool any_same = std::any_of(
        full.begin(), full.end(), [](const Finding &f) {
            return std::get<0>(f) == "same.cc";
        });
    EXPECT_TRUE(any_same) << "full run must still cover unchanged files";
    fs::remove_all(dir);
}

TEST(LintFix, RemovesUnusedIncludesAndRerunsClean)
{
    const fs::path dir = fs::temp_directory_path() / "bigfish_lint_fix";
    fs::remove_all(dir);
    fs::create_directories(dir);
    copyFixtures(dir, {"unused_include.cc", "helpers/used.hh",
                       "helpers/unused.hh"});
    const std::string common = "--root=" + dir.string() + " " + dir.string();

    const LintRun before = runLint(common);
    const auto pre = parseFindings(before.stdoutText);
    const bool had_unused = std::any_of(
        pre.begin(), pre.end(), [](const Finding &f) {
            return std::get<2>(f) == "unused-include";
        });
    ASSERT_TRUE(had_unused);

    const LintRun fixed = runLint("--fix " + common);
    EXPECT_EQ(fixed.exitCode, 0) << fixed.stdoutText;
    {
        std::ifstream in(dir / "unused_include.cc");
        std::stringstream text;
        text << in.rdbuf();
        EXPECT_EQ(text.str().find("helpers/unused.hh"), std::string::npos)
            << "the unused include line must be gone";
        EXPECT_NE(text.str().find("helpers/used.hh"), std::string::npos)
            << "the used include must survive";
    }
    const auto post = parseFindings(runLint(common).stdoutText);
    for (const auto &[file, line, rule] : post)
        EXPECT_NE(rule, "unused-include") << file << ":" << line;
    fs::remove_all(dir);
}

TEST(LintCli, CleanInputExitsZeroAndUnknownRuleIsAnError)
{
    const fs::path clean =
        fs::temp_directory_path() / "bigfish_lint_clean.cc";
    {
        std::ofstream out(clean);
        out << "int add(int a, int b) { return a + b; }\n";
    }
    const LintRun ok = runLint("--root=" + clean.parent_path().string() +
                               " " + clean.string());
    EXPECT_EQ(ok.exitCode, 0) << ok.stdoutText;
    fs::remove(clean);

    EXPECT_EQ(lintFixtures("--disable=no-such-rule").exitCode, 2);
    EXPECT_EQ(runLint("--json").exitCode, 2) << "no inputs is a usage error";
}

} // namespace
