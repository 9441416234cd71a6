/**
 * @file
 * The per-file bigfish-lint rules (v1 set) plus the shared token
 * helpers every pass builds on. Each rule encodes one invariant the
 * reproduction's results depend on (see DESIGN.md "Static analysis"):
 *
 *  nondeterminism       — no ambient entropy (rand, random_device,
 *                         time, system/steady clocks, getenv) outside
 *                         allowlisted timing/infrastructure files.
 *  unordered-iteration  — no iteration over std::unordered_{map,set}:
 *                         bucket order leaks into results.
 *  discarded-status     — a call returning Status/Result must be
 *                         consumed; Status/Result-returning
 *                         declarations in headers carry [[nodiscard]].
 *  raw-thread           — std::thread/std::async only inside
 *                         base/thread_pool; everything else goes
 *                         through parallelFor/parallelMap.
 *  allocating-algorithm — no std::inplace_merge / stable_sort /
 *                         stable_partition: each allocates a hidden
 *                         temporary buffer per call, the cold-run cost
 *                         class the simulator hot path eliminated
 *                         (DESIGN.md §13); sort and merge through
 *                         explicit local buffers, as
 *                         normalizeTimeline's radix sort does.
 *  parallel-float-accum — no `x += ...` reductions onto captured
 *                         variables inside parallelFor/parallelMap
 *                         bodies; accumulate into pre-sized slots or
 *                         lambda-local variables instead.
 *  intrinsics-header    — ISA-specific intrinsics headers (immintrin.h
 *                         and friends) only inside base/simd.hh; all
 *                         other code dispatches through ml/kernels.hh
 *                         so vector code cannot spread.
 *  stage-timing         — no ad-hoc stopwatches (base/stopwatch.hh,
 *                         posixClockSeconds) outside the stage
 *                         framework: phase timing flows through
 *                         StageGraph::run() so `--explain` and the
 *                         artifact's per-stage table stay the single
 *                         source of truth.
 *
 * The v2 repository-wide passes live next door:
 *  graph.hh       — layering, unused-include (include-graph pass)
 *  index.hh       — status-swallowed, ordie-outside-binary (error flow)
 *  concurrency.hh — parallel-capture-race, parallel-mutex,
 *                   parallel-shared-rng (parallelFor rule pack)
 */

#ifndef BIGFISH_LINT_RULES_HH
#define BIGFISH_LINT_RULES_HH

#include <cstddef>
#include <set>
#include <string>
#include <vector>

#include "config.hh"
#include "lexer.hh"

namespace bigfish::lint {

struct Diagnostic
{
    std::string file; ///< Path relative to the scan root.
    int line;
    std::string rule;
    std::string message;
};

/** Sentinel index for the token-walking helpers below. */
inline constexpr std::size_t kTokNpos = static_cast<std::size_t>(-1);

/** Appends a diagnostic unless @p file suppresses @p rule on @p line. */
void emitDiagnostic(std::vector<Diagnostic> &out, const LexedFile &file,
                    const std::string &relPath, int line,
                    const std::string &rule, const std::string &message);

/** Index of the `)` matching the `(` at @p open, or kTokNpos. */
std::size_t matchParen(const std::vector<Token> &toks, std::size_t open);

/** Index of the `}` matching the `{` at @p open, or kTokNpos. */
std::size_t matchBrace(const std::vector<Token> &toks, std::size_t open);

/**
 * Index just past the `>` matching the `<` at @p open, or kTokNpos.
 * Treats `>>` as two closes; gives up on `;`/`{`.
 */
std::size_t skipAngles(const std::vector<Token> &toks, std::size_t open);

/** True for C++ keywords the rules must not mistake for names. */
bool isLintKeyword(const std::string &s);

/** True when @p t looks like a type name introducing a declaration. */
bool looksLikeTypeName(const std::string &t);

/**
 * Pass 1 of the discarded-status rule: harvests the names of functions
 * declared (or defined) with a Status / Result<...> return type from
 * one file's tokens. The union over all scanned files is the call-site
 * ban set for pass 2.
 */
std::set<std::string> collectStatusReturners(const LexedFile &file);

/**
 * Runs every enabled, non-allowlisted per-file rule over one file.
 *
 * @param relPath          File path relative to the scan root (used in
 *                         diagnostics and for allowlist matching).
 * @param isHeader         True for .hh/.h files; the missing-nodiscard
 *                         half of discarded-status only fires here.
 * @param statusReturners  Union of collectStatusReturners over the scan
 *                         set.
 */
std::vector<Diagnostic> runRules(const std::string &relPath,
                                 const LexedFile &file, bool isHeader,
                                 const Config &config,
                                 const std::set<std::string> &statusReturners);

} // namespace bigfish::lint

#endif // BIGFISH_LINT_RULES_HH
