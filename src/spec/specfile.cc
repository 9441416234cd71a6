/**
 * @file
 * Spec-file parsing: a small JSON reader.
 *
 * A spec file is one JSON object, flat or a whole emitted artifact; it
 * parses to a SpecFile (raw key/value entries plus an optional
 * experiment name). Type coercion against the schema happens in
 * resolveSpec(), which is also where unknown keys are rejected.
 */

#include "spec/spec.hh"

#include <algorithm>
#include <cctype>
#include <cstdlib>

namespace bigfish::spec {

namespace {

struct JsonReader
{
    const std::string &text;
    const std::string &sourceName;
    std::size_t pos = 0;

    std::string
    where() const
    {
        return sourceName + " offset " + std::to_string(pos);
    }

    void
    skipWs()
    {
        while (pos < text.size() &&
               std::isspace(static_cast<unsigned char>(text[pos])))
            ++pos;
    }

    bool
    eat(char c)
    {
        skipWs();
        if (pos < text.size() && text[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    [[nodiscard]] Result<std::string>
    parseString()
    {
        skipWs();
        if (pos >= text.size() || text[pos] != '"')
            return parseError(where() + ": expected string");
        std::string out;
        ++pos;
        while (pos < text.size() && text[pos] != '"') {
            if (text[pos] != '\\') {
                out.push_back(text[pos++]);
                continue;
            }
            if (++pos >= text.size())
                break;
            switch (const char c = text[pos++]) {
              case '"':
              case '\\':
                out.push_back(c);
                break;
              case 'n':
                out.push_back('\n');
                break;
              case 'u': {
                // Four hex digits of an ASCII code point: the escapes
                // quoteJsonString() writes for other control bytes.
                const std::string hex = text.substr(pos, 4);
                const bool all_hex =
                    hex.size() == 4 &&
                    std::all_of(hex.begin(), hex.end(), [](char h) {
                        return std::isxdigit(static_cast<unsigned char>(h));
                    });
                const unsigned long code =
                    all_hex ? std::strtoul(hex.c_str(), nullptr, 16) : 0x80;
                if (code >= 0x80)
                    return parseError(where() + ": unsupported escape");
                out.push_back(static_cast<char>(code));
                pos += 4;
                break;
              }
              default:
                return parseError(where() + ": unsupported escape");
            }
        }
        if (pos >= text.size())
            return parseError(where() + ": unterminated string");
        ++pos;
        return out;
    }

    /**
     * Parses one scalar JSON value into its raw-text form ("" second
     * means "not a scalar": the caller must handle nesting itself).
     */
    [[nodiscard]] Result<std::string>
    parseScalar()
    {
        skipWs();
        if (pos >= text.size())
            return parseError(where() + ": unexpected end of input");
        const char c = text[pos];
        if (c == '"')
            return parseString();
        if (std::isdigit(static_cast<unsigned char>(c)) || c == '-' ||
            c == '+') {
            std::string out;
            while (pos < text.size() &&
                   (std::isdigit(static_cast<unsigned char>(text[pos])) ||
                    text[pos] == '-' || text[pos] == '+' ||
                    text[pos] == '.' || text[pos] == 'e' ||
                    text[pos] == 'E')) {
                out.push_back(text[pos]);
                ++pos;
            }
            return out;
        }
        if (text.compare(pos, 4, "true") == 0) {
            pos += 4;
            return std::string("true");
        }
        if (text.compare(pos, 5, "false") == 0) {
            pos += 5;
            return std::string("false");
        }
        return parseError(where() + ": unsupported JSON value");
    }

    /** Skips any JSON value (scalar, object, array, null). */
    [[nodiscard]] Status
    skipValue()
    {
        skipWs();
        if (pos >= text.size())
            return parseError(where() + ": unexpected end of input");
        const char c = text[pos];
        if (c == '{' || c == '[') {
            const char close = c == '{' ? '}' : ']';
            ++pos;
            skipWs();
            if (eat(close))
                return Status::ok();
            while (true) {
                if (c == '{') {
                    BF_RETURN_IF_ERROR(parseString().status());
                    if (!eat(':'))
                        return parseError(where() + ": expected ':'");
                }
                BF_RETURN_IF_ERROR(skipValue());
                if (eat(close))
                    return Status::ok();
                if (!eat(','))
                    return parseError(where() + ": expected ',' or '" +
                                      std::string(1, close) + "'");
            }
        }
        if (text.compare(pos, 4, "null") == 0) {
            pos += 4;
            return Status::ok();
        }
        return parseScalar().status();
    }

    /** Parses `{"key": scalar, ...}` into raw entries. */
    [[nodiscard]] Result<std::vector<std::pair<std::string, std::string>>>
    parseFlatObject()
    {
        std::vector<std::pair<std::string, std::string>> entries;
        if (!eat('{'))
            return parseError(where() + ": expected '{'");
        if (eat('}'))
            return entries;
        while (true) {
            auto key = parseString();
            if (!key.isOk())
                return key.status();
            if (!eat(':'))
                return parseError(where() + ": expected ':'");
            auto value = parseScalar();
            if (!value.isOk())
                return Status(
                    ErrorCode::ParseError,
                    sourceName + ": key \"" + key.value() +
                        "\" has a non-scalar value (nested specs are "
                        "not supported)");
            entries.emplace_back(std::move(key).value(),
                                 std::move(value).value());
            if (eat('}'))
                return entries;
            if (!eat(','))
                return parseError(where() + ": expected ',' or '}'");
        }
    }
};

} // namespace

Result<SpecFile>
parseSpecText(const std::string &text, const std::string &source_name)
{
    JsonReader reader{text, source_name};
    if (!reader.eat('{'))
        return parseError(source_name + ": expected a JSON object");

    SpecFile file;
    std::vector<std::pair<std::string, std::string>> top_scalars;
    bool saw_spec_object = false;

    if (!reader.eat('}')) {
        while (true) {
            auto key = reader.parseString();
            if (!key.isOk())
                return key.status();
            if (!reader.eat(':'))
                return parseError(reader.where() + ": expected ':'");
            const std::string &k = key.value();
            reader.skipWs();
            if (k == "spec" && reader.pos < text.size() &&
                text[reader.pos] == '{') {
                auto entries = reader.parseFlatObject();
                if (!entries.isOk())
                    return entries.status();
                file.entries = std::move(entries).value();
                saw_spec_object = true;
            } else if (k == "experiment") {
                auto name = reader.parseString();
                if (!name.isOk())
                    return name.status();
                file.experiment = std::move(name).value();
            } else {
                reader.skipWs();
                const bool nested = reader.pos < text.size() &&
                                    (text[reader.pos] == '{' ||
                                     text[reader.pos] == '[');
                if (nested) {
                    // Tolerated only in the artifact form, where the
                    // parameters come from the "spec" object anyway.
                    BF_RETURN_IF_ERROR(reader.skipValue());
                    top_scalars.emplace_back(k, std::string());
                } else {
                    auto value = reader.parseScalar();
                    if (!value.isOk())
                        return value.status();
                    top_scalars.emplace_back(k,
                                             std::move(value).value());
                }
            }
            if (reader.eat('}'))
                break;
            if (!reader.eat(','))
                return parseError(reader.where() +
                                  ": expected ',' or '}'");
        }
    }

    // Artifact schema versioning: a missing "schemaVersion" is the v1
    // artifact (or a flat spec, which never carries one); anything newer
    // than this build understands is rejected by name rather than
    // misread.
    for (auto it = top_scalars.begin(); it != top_scalars.end(); ++it) {
        if (it->first != "schemaVersion")
            continue;
        char *end = nullptr;
        const long long version = std::strtoll(it->second.c_str(), &end, 10);
        if (end == it->second.c_str() || *end != '\0' || version < 1)
            return parseError(source_name + ": malformed schemaVersion \"" +
                              it->second + "\"");
        if (version > kArtifactSchemaVersion)
            return parseError(
                source_name + ": artifact schemaVersion " +
                std::to_string(version) + " is newer than the supported " +
                std::to_string(kArtifactSchemaVersion) +
                "; re-emit the artifact with this build or upgrade");
        top_scalars.erase(it);
        break;
    }

    if (!saw_spec_object) {
        // Flat form: every top-level key (minus "experiment") is a
        // parameter; nested values have no meaning here.
        for (auto &[k, v] : top_scalars)
            file.entries.emplace_back(std::move(k), std::move(v));
    }
    reader.skipWs();
    if (reader.pos != text.size())
        return parseError(reader.where() +
                          ": trailing content after JSON object");
    return file;
}

} // namespace bigfish::spec
