#include "config.hh"

#include <algorithm>
#include <cctype>
#include <set>

namespace bigfish::lint {

namespace {

std::string
trim(const std::string &s)
{
    std::size_t b = 0, e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b])))
        ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1])))
        --e;
    return s.substr(b, e - b);
}

/** Strips a trailing # comment that is not inside a string literal. */
std::string
stripComment(const std::string &line)
{
    bool in_string = false;
    for (std::size_t i = 0; i < line.size(); ++i) {
        if (line[i] == '"')
            in_string = !in_string;
        else if (line[i] == '#' && !in_string)
            return line.substr(0, i);
    }
    return line;
}

/**
 * Parses a ["a", "b"] array of strings into @p out. Returns an empty
 * string on success, else a parse error.
 */
std::string
parseStringArray(const std::string &value, std::vector<std::string> &out)
{
    if (value.size() < 2 || value.front() != '[' || value.back() != ']')
        return "value must be a [\"...\"] array";
    const std::string body = value.substr(1, value.size() - 2);
    std::size_t pos = 0;
    while (pos < body.size()) {
        const std::size_t open = body.find('"', pos);
        if (open == std::string::npos) {
            if (!trim(body.substr(pos)).empty() &&
                trim(body.substr(pos)) != ",")
                return "malformed string array";
            break;
        }
        const std::size_t close = body.find('"', open + 1);
        if (close == std::string::npos)
            return "unterminated string in array";
        out.push_back(body.substr(open + 1, close - open - 1));
        pos = close + 1;
    }
    return "";
}

} // namespace

std::vector<std::string>
allRuleNames()
{
    return {"nondeterminism",     "unordered-iteration",
            "discarded-status",   "raw-thread",
            "allocating-algorithm", "parallel-float-accum",
            "intrinsics-header",
            "layering",           "unused-include",
            "status-swallowed",   "ordie-outside-binary",
            "parallel-capture-race", "parallel-mutex",
            "parallel-shared-rng",  "stage-timing"};
}

Config::Config()
{
    for (const std::string &rule : allRuleNames())
        enabled_[rule] = true;
}

std::string
Config::parse(const std::string &text)
{
    std::string section;
    std::size_t start = 0;
    int lineno = 0;
    while (start <= text.size()) {
        std::size_t end = text.find('\n', start);
        if (end == std::string::npos)
            end = text.size();
        const std::string raw = text.substr(start, end - start);
        start = end + 1;
        ++lineno;

        const std::string line = trim(stripComment(raw));
        if (line.empty())
            continue;
        const std::string where = "line " + std::to_string(lineno) + ": ";

        if (line.front() == '[') {
            if (line.back() != ']')
                return where + "unterminated section header";
            section = trim(line.substr(1, line.size() - 2));
            if (section.rfind("layer.", 0) == 0) {
                const std::string name = section.substr(6);
                if (name.empty())
                    return where + "layer section needs a name";
                layers_[name]; // declare even if the body is empty
            }
            continue;
        }

        const std::size_t eq = line.find('=');
        if (eq == std::string::npos)
            return where + "expected 'key = value'";
        const std::string key = trim(line.substr(0, eq));
        const std::string value = trim(line.substr(eq + 1));

        if (section == "rules") {
            bool on;
            if (value == "true")
                on = true;
            else if (value == "false")
                on = false;
            else
                return where + "rule value must be true or false";
            if (!setRuleEnabled(key, on))
                return where + "unknown rule '" + key + "'";
            continue;
        }
        if (section.rfind("allow.", 0) == 0) {
            const std::string rule = section.substr(6);
            const auto names = allRuleNames();
            if (std::find(names.begin(), names.end(), rule) == names.end())
                return where + "unknown rule in section '" + section + "'";
            if (key != "paths")
                return where + "allow sections take only 'paths'";
            std::vector<std::string> paths;
            const std::string error = parseStringArray(value, paths);
            if (!error.empty())
                return where + error;
            for (const std::string &path : paths)
                addAllowlist(rule, path);
            continue;
        }
        if (section.rfind("layer.", 0) == 0) {
            Layer &layer = layers_[section.substr(6)];
            std::vector<std::string> *field = nullptr;
            if (key == "paths")
                field = &layer.paths;
            else if (key == "deps")
                field = &layer.deps;
            else
                return where + "layer sections take 'paths' and 'deps'";
            const std::string error = parseStringArray(value, *field);
            if (!error.empty())
                return where + error;
            continue;
        }
        return where + "unknown section '" + section + "'";
    }

    // The declared layer graph must itself be a DAG over known names:
    // an upward include can only be *detected* against a well-formed
    // declaration.
    for (const auto &[name, layer] : layers_) {
        for (const std::string &dep : layer.deps) {
            if (layers_.count(dep) == 0)
                return "layer '" + name + "' depends on undeclared layer '" +
                       dep + "'";
        }
    }
    // Depth-first cycle check; the graph is tiny (one node per layer).
    std::set<std::string> done;
    for (const auto &[name, layer] : layers_) {
        (void)layer;
        std::set<std::string> path;
        std::vector<std::string> stack = {name};
        std::vector<std::size_t> next = {0};
        path.insert(name);
        while (!stack.empty()) {
            const Layer &top = layers_.at(stack.back());
            if (next.back() >= top.deps.size()) {
                path.erase(stack.back());
                done.insert(stack.back());
                stack.pop_back();
                next.pop_back();
                continue;
            }
            const std::string dep = top.deps[next.back()++];
            if (path.count(dep) > 0)
                return "layer dependency cycle through '" + dep + "'";
            if (done.count(dep) == 0) {
                stack.push_back(dep);
                next.push_back(0);
                path.insert(dep);
            }
        }
    }
    return "";
}

bool
Config::setRuleEnabled(const std::string &rule, bool enabled)
{
    const auto it = enabled_.find(rule);
    if (it == enabled_.end())
        return false;
    it->second = enabled;
    return true;
}

bool
Config::ruleEnabled(const std::string &rule) const
{
    const auto it = enabled_.find(rule);
    return it != enabled_.end() && it->second;
}

bool
Config::isAllowlisted(const std::string &rule,
                      const std::string &relPath) const
{
    const auto it = allowlists_.find(rule);
    if (it == allowlists_.end())
        return false;
    for (const std::string &prefix : it->second)
        if (relPath.rfind(prefix, 0) == 0)
            return true;
    return false;
}

void
Config::addAllowlist(const std::string &rule, const std::string &prefix)
{
    allowlists_[rule].push_back(prefix);
}

std::string
Config::layerOf(const std::string &relPath) const
{
    for (const auto &[name, layer] : layers_) {
        for (const std::string &prefix : layer.paths)
            if (relPath.rfind(prefix, 0) == 0)
                return name;
    }
    return "";
}

bool
Config::layerMayInclude(const std::string &from, const std::string &to) const
{
    if (from == to)
        return true;
    const auto it = layers_.find(from);
    if (it == layers_.end())
        return false;
    const auto &deps = it->second.deps;
    return std::find(deps.begin(), deps.end(), to) != deps.end();
}

} // namespace bigfish::lint
