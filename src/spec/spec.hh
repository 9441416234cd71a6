/**
 * @file
 * The run-spec layer: declarative experiment parameters.
 *
 * Every experiment declares its parameters once as a ParamSchema (name,
 * type, default, legal range, help text). A RunSpec is a
 * *fully-resolved* assignment of a value to every declared parameter,
 * produced by layering sources in a fixed order:
 *
 *   defaults -> presets (--smoke / --full) -> JSON spec file ->
 *   command-line flags
 *
 * Nothing else sets a parameter: a run is exactly what its flags and
 * spec file say. Resolution is strict: a malformed value fails with a
 * Status naming the offending source (e.g. `flag --sites: invalid
 * integer "abc"`), and a spec-file key that is not a declared parameter
 * is rejected rather than ignored. The resolved spec serializes to JSON
 * and parses back losslessly, so any run can be replayed bit-for-bit
 * from the spec embedded in its emitted report.
 */

#ifndef BF_SPEC_SPEC_HH
#define BF_SPEC_SPEC_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "base/result.hh"
#include "base/status.hh"

namespace bigfish::spec {

/**
 * Version of the emitted run-artifact JSON schema. History:
 *  v1 — (implicit; no "schemaVersion" key) ad-hoc per-phase
 *       collect/featurize/train/eval second fields on "phases".
 *  v2 — adds "schemaVersion" and the per-stage "stages" table (the
 *       phase rollup is reduced from it); drops the overlapping-wall
 *       trainSeconds/evalSeconds legacy fields.
 *  v3 — stage lines gain simulator perf counters (simEvents,
 *       simInterrupts, simAllocations, simBytesSorted,
 *       simEventsPerSec; see sim/perf.hh), carried on the *Seconds
 *       line so cold/warm artifact diffs stay clean.
 *  v4 — drops simAllocations from stage lines.
 * Spec replay (`--spec=<artifact.json>`) accepts any version up to
 * this one — parameters live under "spec" in every version — and
 * rejects newer artifacts with a clear version-mismatch error.
 */
inline constexpr long long kArtifactSchemaVersion = 4;

/** The type of one declared parameter. */
enum class ValueType
{
    Int,
    Bool,
    String,
};

/** One typed parameter value. */
class Value
{
  public:
    Value() = default;

    static Value ofInt(long long v);
    static Value ofBool(bool v);
    static Value ofString(std::string v);

    /** Typed accessors; panic on a type mismatch (schema bug). */
    long long asInt() const;
    bool asBool() const;
    const std::string &asString() const;

    /** The value as a JSON literal: `42`, `true`, `"quoted"`. */
    std::string render() const;

    friend bool operator==(const Value &a, const Value &b);

  private:
    ValueType type_ = ValueType::Int;
    long long int_ = 0;
    bool bool_ = false;
    std::string string_;
};

/** Declaration of one parameter. */
struct ParamDef
{
    std::string name; ///< Key in spec files; the flag is "--<name>".
    /** Second command-line spelling "--<flagAlias>" ("" = none). */
    std::string flagAlias;
    ValueType type = ValueType::Int;
    Value defaultValue;
    /** Inclusive legal range (Int parameters only). */
    long long minValue = 0;
    long long maxValue = 0;
    std::string help;
};

/** The declared parameters of one experiment, in declaration order. */
class ParamSchema
{
  public:
    ParamSchema &addInt(std::string name, long long default_value,
                        long long min_value, long long max_value,
                        std::string help);
    ParamSchema &addBool(std::string name, bool default_value,
                         std::string help);
    ParamSchema &addString(std::string name, std::string default_value,
                           std::string help);

    /**
     * Makes "--<alias>" a second command-line spelling of the declared
     * parameter @p target. Flags only: spec files know the parameter
     * by its name alone.
     */
    ParamSchema &addFlagAlias(std::string alias, const std::string &target);

    /** The definition of @p name, or nullptr when undeclared. */
    const ParamDef *find(const std::string &name) const;

    /** find(), also accepting a flag alias. */
    const ParamDef *findFlag(const std::string &flag) const;

    const std::vector<ParamDef> &params() const { return params_; }

  private:
    ParamSchema &add(ParamDef def);

    std::vector<ParamDef> params_;
};

/**
 * A fully-resolved run specification: the experiment name plus one
 * value per declared parameter. Parameters iterate in sorted key order,
 * so serialization is deterministic.
 */
class RunSpec
{
  public:
    RunSpec() = default;
    RunSpec(std::string experiment, std::map<std::string, Value> values);

    const std::string &experiment() const { return experiment_; }

    /** The value of @p name; panics when absent (resolution bug). */
    const Value &get(const std::string &name) const;

    long long getInt(const std::string &name) const;
    bool getBool(const std::string &name) const;
    const std::string &getString(const std::string &name) const;

    /**
     * The parameter block alone as a JSON object (sorted keys), for
     * embedding in a larger report: `{"folds": 5, "sites": 20, ...}`.
     * @p indent prefixes each key line; pass "" for a compact block.
     */
    std::string paramsJson(const std::string &indent) const;

    friend bool operator==(const RunSpec &a, const RunSpec &b);

  private:
    std::string experiment_;
    std::map<std::string, Value> values_;
};

/**
 * @p s as a JSON string literal: `"` and `\` are backslash-escaped,
 * a newline is written `\n` and every other byte below 0x20 `\u00XX`,
 * so the literal is valid JSON whatever @p s holds.
 * parseSpecText() decodes every escape this writes.
 */
std::string quoteJsonString(const std::string &s);

/**
 * An unresolved spec file: optional experiment name plus raw key/value
 * entries (values unquoted but not yet coerced against a schema).
 */
struct SpecFile
{
    std::string experiment; ///< "" when the file names no experiment.
    std::vector<std::pair<std::string, std::string>> entries;
};

/**
 * Parses JSON spec text: one JSON object, either a flat parameter
 * object or a full emitted run artifact — when a "spec" sub-object is
 * present, parameters come from it (and "experiment" from the top
 * level), so `bigfish run --spec=<artifact.json>` replays a recorded
 * run directly. Any other text is a ParseError. @p source_name labels
 * errors ("run.json").
 */
[[nodiscard]] Result<SpecFile> parseSpecText(const std::string &text,
                                             const std::string &source_name);

/** The layered value sources resolveSpec() applies, weakest first. */
struct SpecSources
{
    /** Preset (--smoke/--full) overrides, as (name, raw value). */
    std::vector<std::pair<std::string, std::string>> presets;
    /** Spec-file text ("" = none) and its name for error messages. */
    std::string specText;
    std::string specName;
    /** Command-line flag overrides, as (name, raw value). */
    std::vector<std::pair<std::string, std::string>> flags;
};

/**
 * Resolves @p schema against the layered @p sources into a full
 * RunSpec for @p experiment. Fails (with the offending source named)
 * on malformed or out-of-range values, on spec-file keys that are not
 * declared parameters, on unknown flags, on a flag and its alias given
 * different values, and on a spec file whose `experiment` disagrees
 * with @p experiment.
 */
[[nodiscard]] Result<RunSpec> resolveSpec(const std::string &experiment,
                                          const ParamSchema &schema,
                                          const SpecSources &sources);

/** One flag-help line per parameter, for a CLI `--help` screen. */
std::string helpText(const ParamSchema &schema);

} // namespace bigfish::spec

#endif // BF_SPEC_SPEC_HH
