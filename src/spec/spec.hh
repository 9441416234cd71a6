/**
 * @file
 * The run-spec layer: declarative experiment parameters.
 *
 * Every experiment declares its parameters once as a ParamSchema (name,
 * type, default, legal range, env variable, help text). A RunSpec is a
 * *fully-resolved* assignment of a value to every declared parameter,
 * produced by layering sources in a fixed order:
 *
 *   defaults -> environment -> presets (--smoke / --full) ->
 *   spec file (TOML or JSON) -> command-line flags
 *
 * Resolution is strict: a malformed value fails with a Status naming
 * the offending source (e.g. `environment variable BF_SITES: invalid
 * integer "abc"`), and a spec-file key that is not a declared parameter
 * is rejected rather than ignored. The resolved spec serializes to
 * JSON/TOML and parses back losslessly, so any run can be replayed
 * bit-for-bit from the spec embedded in its emitted report.
 *
 * This module never touches the process environment itself (bigfish-lint
 * bans getenv outside sanctioned files): callers inject an EnvLookup.
 */

#ifndef BF_SPEC_SPEC_HH
#define BF_SPEC_SPEC_HH

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
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
 * Spec replay (`--spec=<artifact.json>`) accepts any version up to
 * this one — parameters live under "spec" in every version — and
 * rejects newer artifacts with a clear version-mismatch error.
 */
inline constexpr long long kArtifactSchemaVersion = 3;

/** The type of one declared parameter. */
enum class ValueType
{
    Int,
    Double,
    Bool,
    String,
};

/** Stable name of a value type ("int", "double", "bool", "string"). */
const char *valueTypeName(ValueType type);

/** One typed parameter value. */
class Value
{
  public:
    Value() = default;

    static Value ofInt(long long v);
    static Value ofDouble(double v);
    static Value ofBool(bool v);
    static Value ofString(std::string v);

    ValueType type() const { return type_; }

    /** Typed accessors; panic on a type mismatch (schema bug). */
    long long asInt() const;
    double asDouble() const;
    bool asBool() const;
    const std::string &asString() const;

    /**
     * The value as a TOML/JSON literal: `42`, `0.5`, `true`,
     * `"quoted"`. Doubles render with enough digits to round-trip.
     */
    std::string render() const;

    friend bool operator==(const Value &a, const Value &b);
    friend bool operator!=(const Value &a, const Value &b)
    {
        return !(a == b);
    }

  private:
    ValueType type_ = ValueType::Int;
    long long int_ = 0;
    double double_ = 0.0;
    bool bool_ = false;
    std::string string_;
};

/** Declaration of one parameter. */
struct ParamDef
{
    std::string name; ///< Key in spec files; the flag is "--<name>".
    std::string env;  ///< Environment variable ("" = no env override).
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
    ParamSchema &addInt(std::string name, std::string env,
                        long long default_value, long long min_value,
                        long long max_value, std::string help);
    ParamSchema &addDouble(std::string name, std::string env,
                           double default_value, std::string help);
    ParamSchema &addBool(std::string name, std::string env,
                         bool default_value, std::string help);
    ParamSchema &addString(std::string name, std::string env,
                           std::string default_value, std::string help);

    /**
     * Makes "--<alias>" a second command-line spelling of the declared
     * parameter @p target. Flags only: spec files and the environment
     * know the parameter by its name alone.
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
    const std::map<std::string, Value> &params() const { return values_; }

    bool has(const std::string &name) const;

    /** The value of @p name; panics when absent (resolution bug). */
    const Value &get(const std::string &name) const;

    long long getInt(const std::string &name) const;
    double getDouble(const std::string &name) const;
    bool getBool(const std::string &name) const;
    const std::string &getString(const std::string &name) const;

    /**
     * The parameter block alone as a JSON object (sorted keys), for
     * embedding in a larger report: `{"folds": 5, "sites": 20, ...}`.
     * @p indent prefixes each key line; pass "" for a compact block.
     */
    std::string paramsJson(const std::string &indent) const;

    /** `{"experiment": "...", "spec": {...}}` — the replayable form. */
    std::string toJson() const;

    /** TOML form: `experiment = "..."` plus one `key = value` line. */
    std::string toToml() const;

    friend bool operator==(const RunSpec &a, const RunSpec &b);
    friend bool operator!=(const RunSpec &a, const RunSpec &b)
    {
        return !(a == b);
    }

  private:
    std::string experiment_;
    std::map<std::string, Value> values_;
};

/** Looks a variable up in the (injected) environment. */
using EnvLookup =
    std::function<std::optional<std::string>(const std::string &)>;

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
 * Parses TOML (flat `key = value` lines) or JSON spec text; the format
 * is auto-detected (JSON starts with '{'). JSON accepts either a flat
 * parameter object or a full emitted run artifact — when a "spec"
 * sub-object is present, parameters come from it (and "experiment" from
 * the top level), so `bigfish run --spec=<artifact.json>` replays a
 * recorded run directly. @p source_name labels errors ("run.toml").
 */
[[nodiscard]] Result<SpecFile> parseSpecText(const std::string &text,
                                             const std::string &source_name);

/** The layered value sources resolveSpec() applies, weakest first. */
struct SpecSources
{
    /** Environment lookup; null disables env overrides. */
    EnvLookup env;
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
