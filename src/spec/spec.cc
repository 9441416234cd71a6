#include "spec/spec.hh"

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>

#include "base/logging.hh"

namespace bigfish::spec {

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

/** Parses @p raw as one value of @p def's type; @p source labels errors. */
Result<Value>
parseValue(const ParamDef &def, const std::string &raw,
           const std::string &source)
{
    const std::string text = trim(raw);
    switch (def.type) {
      case ValueType::Int: {
        if (text.empty())
            return parseError(source + ": empty value (expected integer)");
        errno = 0;
        char *end = nullptr;
        const long long v = std::strtoll(text.c_str(), &end, 10);
        if (errno == ERANGE || end == text.c_str() || *end != '\0')
            return parseError(source + ": invalid integer \"" + text +
                              "\"");
        if (v < def.minValue || v > def.maxValue)
            return outOfRangeError(
                source + ": value " + std::to_string(v) +
                " out of range [" + std::to_string(def.minValue) + ", " +
                std::to_string(def.maxValue) + "]");
        return Value::ofInt(v);
      }
      case ValueType::Bool: {
        if (text == "true" || text == "1")
            return Value::ofBool(true);
        if (text == "false" || text == "0")
            return Value::ofBool(false);
        return parseError(source + ": invalid boolean \"" + text +
                          "\" (expected true/false)");
      }
      case ValueType::String:
        return Value::ofString(raw);
    }
    panic("unhandled ValueType in parseValue");
}

/** Stable name of a value type ("int", "bool", "string"). */
const char *
valueTypeName(ValueType type)
{
    switch (type) {
      case ValueType::Int:
        return "int";
      case ValueType::Bool:
        return "bool";
      case ValueType::String:
        return "string";
    }
    return "unknown";
}

} // namespace

std::string
quoteJsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        const auto byte = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (c == '\n') {
            out += "\\n";
        } else if (byte < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", byte);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    out.push_back('"');
    return out;
}

Value
Value::ofInt(long long v)
{
    Value value;
    value.type_ = ValueType::Int;
    value.int_ = v;
    return value;
}

Value
Value::ofBool(bool v)
{
    Value value;
    value.type_ = ValueType::Bool;
    value.bool_ = v;
    return value;
}

Value
Value::ofString(std::string v)
{
    Value value;
    value.type_ = ValueType::String;
    value.string_ = std::move(v);
    return value;
}

long long
Value::asInt() const
{
    panicIf(type_ != ValueType::Int, "Value::asInt on a non-int value");
    return int_;
}

bool
Value::asBool() const
{
    panicIf(type_ != ValueType::Bool, "Value::asBool on a non-bool value");
    return bool_;
}

const std::string &
Value::asString() const
{
    panicIf(type_ != ValueType::String,
            "Value::asString on a non-string value");
    return string_;
}

std::string
Value::render() const
{
    switch (type_) {
      case ValueType::Int:
        return std::to_string(int_);
      case ValueType::Bool:
        return bool_ ? "true" : "false";
      case ValueType::String:
        return quoteJsonString(string_);
    }
    return "";
}

bool
operator==(const Value &a, const Value &b)
{
    if (a.type_ != b.type_)
        return false;
    switch (a.type_) {
      case ValueType::Int:
        return a.int_ == b.int_;
      case ValueType::Bool:
        return a.bool_ == b.bool_;
      case ValueType::String:
        return a.string_ == b.string_;
    }
    return false;
}

ParamSchema &
ParamSchema::add(ParamDef def)
{
    panicIf(def.name.empty(), "parameter declared with an empty name");
    panicIf(find(def.name) != nullptr,
            "parameter '" + def.name + "' declared twice");
    params_.push_back(std::move(def));
    return *this;
}

ParamSchema &
ParamSchema::addInt(std::string name, long long default_value,
                    long long min_value, long long max_value,
                    std::string help)
{
    panicIf(default_value < min_value || default_value > max_value,
            "default of parameter '" + name + "' outside its range");
    ParamDef def;
    def.name = std::move(name);
    def.type = ValueType::Int;
    def.defaultValue = Value::ofInt(default_value);
    def.minValue = min_value;
    def.maxValue = max_value;
    def.help = std::move(help);
    return add(std::move(def));
}

ParamSchema &
ParamSchema::addBool(std::string name, bool default_value, std::string help)
{
    ParamDef def;
    def.name = std::move(name);
    def.type = ValueType::Bool;
    def.defaultValue = Value::ofBool(default_value);
    def.help = std::move(help);
    return add(std::move(def));
}

ParamSchema &
ParamSchema::addString(std::string name, std::string default_value,
                       std::string help)
{
    ParamDef def;
    def.name = std::move(name);
    def.type = ValueType::String;
    def.defaultValue = Value::ofString(std::move(default_value));
    def.help = std::move(help);
    return add(std::move(def));
}

ParamSchema &
ParamSchema::addFlagAlias(std::string alias, const std::string &target)
{
    panicIf(findFlag(alias) != nullptr,
            "flag alias '" + alias + "' clashes with a declared flag");
    for (ParamDef &def : params_) {
        if (def.name == target) {
            def.flagAlias = std::move(alias);
            return *this;
        }
    }
    panic("flag alias '" + alias + "' names undeclared parameter '" +
          target + "'");
}

const ParamDef *
ParamSchema::find(const std::string &name) const
{
    for (const ParamDef &def : params_)
        if (def.name == name)
            return &def;
    return nullptr;
}

const ParamDef *
ParamSchema::findFlag(const std::string &flag) const
{
    for (const ParamDef &def : params_)
        if (def.name == flag ||
            (!def.flagAlias.empty() && def.flagAlias == flag))
            return &def;
    return nullptr;
}

RunSpec::RunSpec(std::string experiment, std::map<std::string, Value> values)
    : experiment_(std::move(experiment)), values_(std::move(values))
{
}

const Value &
RunSpec::get(const std::string &name) const
{
    const auto it = values_.find(name);
    panicIf(it == values_.end(),
            "RunSpec has no parameter '" + name + "'");
    return it->second;
}

long long
RunSpec::getInt(const std::string &name) const
{
    return get(name).asInt();
}

bool
RunSpec::getBool(const std::string &name) const
{
    return get(name).asBool();
}

const std::string &
RunSpec::getString(const std::string &name) const
{
    return get(name).asString();
}

std::string
RunSpec::paramsJson(const std::string &indent) const
{
    std::string out = "{";
    bool first = true;
    for (const auto &[name, value] : values_) {
        out += first ? "\n" : ",\n";
        first = false;
        out += indent + "  " + quoteJsonString(name) + ": " + value.render();
    }
    if (!first)
        out += "\n" + indent;
    out += "}";
    return out;
}

bool
operator==(const RunSpec &a, const RunSpec &b)
{
    return a.experiment_ == b.experiment_ && a.values_ == b.values_;
}

Result<RunSpec>
resolveSpec(const std::string &experiment, const ParamSchema &schema,
            const SpecSources &sources)
{
    std::map<std::string, Value> values;
    for (const ParamDef &def : schema.params())
        values[def.name] = def.defaultValue;

    // Layer 2: presets (--smoke / --full scale macros).
    for (const auto &[name, raw] : sources.presets) {
        const ParamDef *def = schema.find(name);
        if (def == nullptr)
            continue; // Presets are scale hints; not every experiment
                      // declares every scale parameter.
        auto value = parseValue(*def, raw, "preset " + name);
        if (!value.isOk())
            return value.status();
        values[def->name] = std::move(value).value();
    }

    // Layer 3: the spec file (strict: unknown keys are rejected).
    if (!sources.specText.empty()) {
        auto file = parseSpecText(sources.specText, sources.specName);
        if (!file.isOk())
            return file.status();
        const SpecFile &spec_file = file.value();
        if (!spec_file.experiment.empty() &&
            spec_file.experiment != experiment) {
            return invalidArgumentError(
                sources.specName + ": spec is for experiment \"" +
                spec_file.experiment + "\", not \"" + experiment + "\"");
        }
        for (const auto &[name, raw] : spec_file.entries) {
            const ParamDef *def = schema.find(name);
            if (def == nullptr)
                return invalidArgumentError(
                    sources.specName + ": unknown key \"" + name +
                    "\" (not a parameter of experiment " + experiment +
                    ")");
            auto value = parseValue(*def, raw,
                                    sources.specName + " key " + name);
            if (!value.isOk())
                return value.status();
            values[def->name] = std::move(value).value();
        }
    }

    // Layer 4: command-line flags (strongest; unknown flags rejected).
    // A parameter's two spellings must agree: which one wins is not
    // something a user should have to know.
    std::map<std::string, std::pair<std::string, std::string>> by_alias;
    for (const auto &[name, raw] : sources.flags) {
        const ParamDef *def = schema.findFlag(name);
        if (def == nullptr)
            return invalidArgumentError(
                "unknown flag --" + name + " for experiment " +
                experiment + " (see `bigfish describe " + experiment +
                "`)");
        if (!def->flagAlias.empty()) {
            const auto [seen, fresh] =
                by_alias.try_emplace(def->name, name, raw);
            if (!fresh && seen->second.first != name &&
                seen->second.second != raw)
                return invalidArgumentError(
                    "--" + seen->second.first + "=" + seen->second.second +
                    " and --" + name + "=" + raw + " set --" + def->name +
                    " to different values");
            seen->second = {name, raw};
        }
        auto value = parseValue(*def, raw, "flag --" + name);
        if (!value.isOk())
            return value.status();
        values[def->name] = std::move(value).value();
    }

    return RunSpec(experiment, std::move(values));
}

std::string
helpText(const ParamSchema &schema)
{
    std::string out;
    for (const ParamDef &def : schema.params()) {
        std::string left = "  --" + def.name + "=<" +
                           valueTypeName(def.type) + ">";
        if (left.size() < 26)
            left.resize(26, ' ');
        out += left + def.help;
        out += " (default " + def.defaultValue.render() + ")\n";
    }
    return out;
}

} // namespace bigfish::spec
