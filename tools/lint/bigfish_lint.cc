/**
 * @file
 * bigfish-lint: project-specific static analysis for the bigger-fish
 * reproduction.
 *
 * Enforces the load-bearing invariants of the codebase at commit time
 * instead of at runtime: bitwise-deterministic results at any thread
 * count, Status/Result error propagation instead of aborts, and (v2)
 * the architectural layer DAG, cross-TU error flow, and the parallel-
 * body concurrency contract. See tools/lint/rules.hh, graph.hh,
 * index.hh and concurrency.hh for the rule list and DESIGN.md §7/§11
 * for the rationale.
 *
 * Usage:
 *   bigfish-lint [options] <file-or-directory>...
 *
 * Options:
 *   --config=FILE    Load rule toggles + allowlists + layer DAG +
 *                    report options (TOML subset).
 *   --root=DIR       Paths in diagnostics/allowlists are relative to
 *                    DIR (default: current directory).
 *   --json           Machine-readable output on stdout.
 *   --since=REV      Report findings only for files changed since the
 *                    git revision REV (plus untracked files). The
 *                    cross-TU passes still scan everything, so the
 *                    reported findings are exactly the full run's
 *                    findings restricted to the changed files.
 *   --fix            Mechanically apply safe fixes (removes the
 *                    include lines unused-include reported), then
 *                    report what remains.
 *   --enable=RULE    Force-enable one rule (overrides config).
 *   --disable=RULE   Force-disable one rule (overrides config).
 *   --list-rules     Print the rule names and exit.
 *
 * Exit status: 0 clean, 1 findings, 2 usage/config/IO error.
 *
 * Suppressions: `// bigfish-lint: allow(rule-name)` on the offending
 * line or the line directly above silences that rule for that line;
 * `allow(all)` silences every rule.
 */

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "concurrency.hh"
#include "config.hh"
#include "graph.hh"
#include "index.hh"
#include "lexer.hh"
#include "report.hh"
#include "rules.hh"

namespace fs = std::filesystem;
using namespace bigfish::lint;

namespace {

bool
hasSourceExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".hh" || ext == ".cpp" || ext == ".h" ||
           ext == ".cxx" || ext == ".hpp";
}

bool
isHeaderExtension(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".hh" || ext == ".h" || ext == ".hpp";
}

/** @p path relative to @p root with forward slashes, for diagnostics. */
std::string
relPath(const fs::path &path, const fs::path &root)
{
    std::error_code ec;
    fs::path rel = fs::proximate(path, root, ec);
    if (ec || rel.empty())
        rel = path;
    return rel.generic_string();
}

int
usageError(const std::string &message)
{
    std::cerr << "bigfish-lint: " << message
              << "\nusage: bigfish-lint [--config=FILE] [--root=DIR] "
                 "[--json] [--since=REV] [--fix] "
                 "[--enable=RULE] [--disable=RULE] <path>...\n";
    return 2;
}

/**
 * Files changed since @p rev (git diff --name-only) plus untracked
 * files, as root-relative paths. Returns false on git failure with
 * @p error set.
 */
bool
changedFilesSince(const fs::path &root, const std::string &rev,
                  std::set<std::string> &out, std::string &error)
{
    const auto runGit = [&](const std::string &args) -> bool {
        const std::string cmd = "git -C '" + root.string() + "' " + args +
                                " 2>/dev/null";
        FILE *pipe = popen(cmd.c_str(), "r");
        if (pipe == nullptr) {
            error = "cannot run git";
            return false;
        }
        std::string text;
        char buffer[4096];
        std::size_t got;
        while ((got = fread(buffer, 1, sizeof(buffer), pipe)) > 0)
            text.append(buffer, got);
        if (pclose(pipe) != 0) {
            error = "git " + args + " failed (is '" + rev +
                    "' a valid revision in " + root.string() + "?)";
            return false;
        }
        std::istringstream lines(text);
        std::string line;
        while (std::getline(lines, line)) {
            while (!line.empty() &&
                   (line.back() == '\r' || line.back() == '\n'))
                line.pop_back();
            if (!line.empty())
                out.insert(line);
        }
        return true;
    };
    return runGit("diff --name-only " + rev) &&
           runGit("ls-files --others --exclude-standard");
}

/**
 * Removes the 1-based @p lines from @p path. Returns "" or an error.
 * Plain rewrite (no temp file): this is an interactive host tool and
 * the file is small.
 */
std::string
removeLines(const fs::path &path, const std::set<int> &lines)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return "cannot read " + path.string();
    std::vector<std::string> kept;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        if (lines.count(lineno) == 0)
            kept.push_back(line);
    }
    in.close();
    std::ofstream outFile(path, std::ios::binary | std::ios::trunc);
    if (!outFile)
        return "cannot write " + path.string();
    for (const std::string &keep : kept)
        outFile << keep << "\n";
    return outFile ? "" : "short write to " + path.string();
}

} // namespace

int
main(int argc, char **argv)
{
    Config config;
    fs::path root = fs::current_path();
    bool json = false;
    bool fix = false;
    std::string since_rev;
    std::vector<fs::path> inputs;
    // Apply --enable/--disable after the config file regardless of
    // argument order: the command line always wins.
    std::vector<std::pair<std::string, bool>> overrides;
    std::string config_path;

    for (int a = 1; a < argc; ++a) {
        const std::string arg = argv[a];
        if (arg == "--json") {
            json = true;
        } else if (arg == "--fix") {
            fix = true;
        } else if (arg == "--list-rules") {
            for (const std::string &rule : allRuleNames())
                std::cout << rule << "\n";
            return 0;
        } else if (arg.rfind("--config=", 0) == 0) {
            config_path = arg.substr(9);
        } else if (arg.rfind("--root=", 0) == 0) {
            root = fs::path(arg.substr(7));
        } else if (arg.rfind("--since=", 0) == 0) {
            since_rev = arg.substr(8);
        } else if (arg.rfind("--enable=", 0) == 0) {
            overrides.emplace_back(arg.substr(9), true);
        } else if (arg.rfind("--disable=", 0) == 0) {
            overrides.emplace_back(arg.substr(10), false);
        } else if (arg.rfind("--", 0) == 0) {
            return usageError("unknown option '" + arg + "'");
        } else {
            inputs.emplace_back(arg);
        }
    }
    if (inputs.empty())
        return usageError("no files or directories to scan");

    if (!config_path.empty()) {
        std::ifstream in(config_path);
        if (!in)
            return usageError("cannot open config '" + config_path + "'");
        std::stringstream buffer;
        buffer << in.rdbuf();
        const std::string error = config.parse(buffer.str());
        if (!error.empty())
            return usageError("config " + config_path + ": " + error);
    }
    for (const auto &[rule, on] : overrides) {
        if (!config.setRuleEnabled(rule, on))
            return usageError("unknown rule '" + rule + "'");
    }

    // Expand directories into a deterministic, sorted file list.
    std::vector<fs::path> files;
    for (const fs::path &input : inputs) {
        std::error_code ec;
        if (fs::is_directory(input, ec)) {
            for (const auto &entry :
                 fs::recursive_directory_iterator(input, ec)) {
                if (entry.is_regular_file() &&
                    hasSourceExtension(entry.path()))
                    files.push_back(entry.path());
            }
        } else if (fs::is_regular_file(input, ec)) {
            files.push_back(input);
        } else {
            return usageError("no such file or directory: '" +
                              input.string() + "'");
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());

    // Pass 0: lex everything once. Every later pass shares the token
    // streams; the cross-TU passes always see the whole scan set even
    // under --since.
    std::vector<LexedFile> lexed_storage;
    lexed_storage.reserve(files.size());
    std::vector<std::string> rels;
    rels.reserve(files.size());
    for (const fs::path &path : files) {
        std::ifstream in(path, std::ios::binary);
        if (!in) {
            std::cerr << "bigfish-lint: cannot read " << path << "\n";
            return 2;
        }
        std::stringstream buffer;
        buffer << in.rdbuf();
        lexed_storage.push_back(lex(buffer.str()));
        rels.push_back(relPath(path, root));
    }
    std::map<std::string, const LexedFile *> lexed;
    std::map<std::string, fs::path> absOf;
    for (std::size_t i = 0; i < files.size(); ++i) {
        lexed[rels[i]] = &lexed_storage[i];
        absOf[rels[i]] = files[i];
    }

    // The report set: every scanned file, or (--since) only the
    // changed ones. The scan set never shrinks — symbol index and
    // include graph need it whole for cross-TU correctness.
    std::set<std::string> reportSet(rels.begin(), rels.end());
    if (!since_rev.empty()) {
        std::set<std::string> changed;
        std::string error;
        if (!changedFilesSince(root, since_rev, changed, error))
            return usageError("--since: " + error);
        std::set<std::string> restricted;
        for (const std::string &rel : rels)
            if (changed.count(rel) > 0)
                restricted.insert(rel);
        std::cerr << "bigfish-lint: --since=" << since_rev << ": "
                  << restricted.size() << " of " << rels.size()
                  << " scanned file(s) changed\n";
        reportSet = std::move(restricted);
    }

    // Pass 1: repository include graph (layering, cycles, unused
    // includes). Pass 2: cross-TU symbol index (error flow).
    const IncludeGraph graph(rels, lexed);
    const SymbolIndex index = buildSymbolIndex(lexed);

    std::vector<Diagnostic> diagnostics =
        graph.run(config, lexed, reportSet);
    for (std::size_t i = 0; i < files.size(); ++i) {
        const std::string &rel = rels[i];
        if (reportSet.count(rel) == 0)
            continue;
        const LexedFile &file = lexed_storage[i];
        auto diags = runRules(rel, file, isHeaderExtension(files[i]),
                              config, index.statusReturners);
        diagnostics.insert(diagnostics.end(), diags.begin(), diags.end());
        diags = runErrorFlowRules(rel, file, config, index);
        diagnostics.insert(diagnostics.end(), diags.begin(), diags.end());
        diags = runConcurrencyRules(rel, file, config);
        diagnostics.insert(diagnostics.end(), diags.begin(), diags.end());
    }
    std::sort(diagnostics.begin(), diagnostics.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  return a.rule < b.rule;
              });
    // One line can trip the same rule twice (e.g. `.begin()` and
    // `.end()` in one loop header); report it once.
    diagnostics.erase(
        std::unique(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic &a, const Diagnostic &b) {
                        return a.file == b.file && a.line == b.line &&
                               a.rule == b.rule;
                    }),
        diagnostics.end());

    // --fix: remove the include lines unused-include reported, then
    // drop those findings from the report.
    if (fix) {
        std::map<std::string, std::set<int>> removals;
        for (const Diagnostic &d : diagnostics)
            if (d.rule == "unused-include")
                removals[d.file].insert(d.line);
        std::size_t removed = 0;
        for (const auto &[file, lines] : removals) {
            const std::string error = removeLines(absOf.at(file), lines);
            if (!error.empty()) {
                std::cerr << "bigfish-lint: --fix: " << error << "\n";
                return 2;
            }
            removed += lines.size();
        }
        if (!removals.empty())
            std::cerr << "bigfish-lint: --fix removed " << removed
                      << " unused include(s) in " << removals.size()
                      << " file(s)\n";
        diagnostics.erase(
            std::remove_if(diagnostics.begin(), diagnostics.end(),
                           [](const Diagnostic &d) {
                               return d.rule == "unused-include";
                           }),
            diagnostics.end());
    }

    if (json)
        std::cout << renderJson(diagnostics, files.size());
    else
        std::cout << renderText(diagnostics, files.size());
    return diagnostics.empty() ? 0 : 1;
}
