/**
 * @file
 * bigfish-lint configuration: rule toggles, per-rule path allowlists,
 * and the declared layer DAG.
 *
 * Loaded from a TOML subset (tools/lint/bigfish-lint.toml) so the config
 * needs no third-party parser. Supported grammar:
 *
 *   # comment
 *   [rules]
 *   nondeterminism = true          # booleans toggle rules
 *   [allow.nondeterminism]
 *   paths = ["bench/", "src/base/thread_pool.cc"]
 *   [layer.sim]                    # one section per architectural layer
 *   paths = ["src/sim/"]           # files belonging to the layer
 *   deps = ["base", "timers"]      # layers it may include (direct)
 *
 * Allowlist and layer entries are path prefixes, matched against the
 * path of the scanned file relative to the scan root with forward
 * slashes; a prefix ending in '/' matches a whole directory. The layer
 * dependency lists must themselves form a DAG; parse() rejects a config
 * whose declared layers are cyclic or name unknown layers. Files that
 * match no layer (tests, tools, bench) are unconstrained.
 */

#ifndef BIGFISH_LINT_CONFIG_HH
#define BIGFISH_LINT_CONFIG_HH

#include <map>
#include <string>
#include <vector>

namespace bigfish::lint {

/** Stable identifiers of every rule the linter implements. */
std::vector<std::string> allRuleNames();

/** One declared architectural layer (see the [layer.*] sections). */
struct Layer
{
    std::vector<std::string> paths; ///< Path prefixes owned by the layer.
    std::vector<std::string> deps;  ///< Layers it may include directly.
};

class Config
{
  public:
    /** All rules enabled, empty allowlists, no layers declared. */
    Config();

    /**
     * Parses the TOML subset in @p text. Returns an empty error string
     * on success, else a human-readable parse error; the config is
     * unspecified after a failure.
     */
    std::string parse(const std::string &text);

    /** Enables or disables one rule; unknown names return false. */
    bool setRuleEnabled(const std::string &rule, bool enabled);

    bool ruleEnabled(const std::string &rule) const;

    /** True when @p relPath starts with an allowlisted prefix of @p rule. */
    bool isAllowlisted(const std::string &rule,
                       const std::string &relPath) const;

    void addAllowlist(const std::string &rule, const std::string &prefix);

    /** The declared layer DAG, keyed by layer name (empty when unset). */
    const std::map<std::string, Layer> &layers() const { return layers_; }

    /** Layer owning @p relPath, or "" when no layer claims it. */
    std::string layerOf(const std::string &relPath) const;

    /** True when layer @p from may include layer @p to directly. */
    bool layerMayInclude(const std::string &from,
                         const std::string &to) const;

  private:
    std::map<std::string, bool> enabled_;
    std::map<std::string, std::vector<std::string>> allowlists_;
    std::map<std::string, Layer> layers_;
};

} // namespace bigfish::lint

#endif // BIGFISH_LINT_CONFIG_HH
