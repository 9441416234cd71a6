#include "report.hh"

#include <sstream>

namespace bigfish::lint {

namespace {

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            out += c;
        }
    }
    return out;
}

} // namespace

std::string
renderText(const std::vector<Diagnostic> &diagnostics,
           std::size_t filesScanned)
{
    std::ostringstream out;
    for (const Diagnostic &d : diagnostics)
        out << d.file << ":" << d.line << ": [" << d.rule << "] "
            << d.message << "\n";
    out << "bigfish-lint: " << diagnostics.size() << " finding(s) in "
        << filesScanned << " file(s) scanned\n";
    return out.str();
}

std::string
renderJson(const std::vector<Diagnostic> &diagnostics,
           std::size_t filesScanned)
{
    std::ostringstream out;
    out << "{\n  \"files_scanned\": " << filesScanned
        << ",\n  \"count\": " << diagnostics.size()
        << ",\n  \"diagnostics\": [";
    bool first = true;
    for (const Diagnostic &d : diagnostics) {
        out << (first ? "" : ",") << "\n    {\"file\": \""
            << jsonEscape(d.file) << "\", \"line\": " << d.line
            << ", \"rule\": \"" << jsonEscape(d.rule)
            << "\", \"message\": \"" << jsonEscape(d.message) << "\"}";
        first = false;
    }
    out << (first ? "]" : "\n  ]") << "\n}\n";
    return out.str();
}

} // namespace bigfish::lint
