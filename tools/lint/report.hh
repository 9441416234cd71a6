/**
 * @file
 * bigfish-lint reporting: the two output formats, human text (one line
 * per finding) and the machine-readable --json document.
 */

#ifndef BIGFISH_LINT_REPORT_HH
#define BIGFISH_LINT_REPORT_HH

#include <string>
#include <vector>

#include "rules.hh"

namespace bigfish::lint {

/** Human-readable one-line-per-finding report. */
std::string renderText(const std::vector<Diagnostic> &diagnostics,
                       std::size_t filesScanned);

/** The machine-readable --json document. */
std::string renderJson(const std::vector<Diagnostic> &diagnostics,
                       std::size_t filesScanned);

} // namespace bigfish::lint

#endif // BIGFISH_LINT_REPORT_HH
