/**
 * @file
 * Tests for the run-spec layer (src/spec): typed parameter resolution
 * across the layered sources, strict error reporting that names the
 * offending source, JSON spec-file parsing (including the
 * emitted-artifact replay form), and lossless serialization
 * round-trips.
 */

#include "spec/spec.hh"

#include <gtest/gtest.h>

namespace bigfish::spec {
namespace {

ParamSchema
testSchema()
{
    ParamSchema schema;
    schema.addInt("sites", 20, 2, 1000, "closed-world sites")
        .addInt("seed", 2022, 0, 1000000, "master seed")
        .addBool("paper-model", false, "paper hyperparameters")
        .addString("label", "default", "free-form label");
    return schema;
}

TEST(SpecResolve, DefaultsWhenNoSources)
{
    const auto resolved = resolveSpec("exp", testSchema(), SpecSources{});
    ASSERT_TRUE(resolved.isOk());
    const RunSpec &spec = resolved.value();
    EXPECT_EQ(spec.experiment(), "exp");
    EXPECT_EQ(spec.getInt("sites"), 20);
    EXPECT_EQ(spec.getInt("seed"), 2022);
    EXPECT_FALSE(spec.getBool("paper-model"));
    EXPECT_EQ(spec.getString("label"), "default");
}

TEST(SpecResolve, GarbageFlagNamesTheFlag)
{
    SpecSources sources;
    sources.flags = {{"sites", "abc"}};
    const auto resolved = resolveSpec("exp", testSchema(), sources);
    ASSERT_FALSE(resolved.isOk());
    EXPECT_EQ(resolved.status().code(), ErrorCode::ParseError);
    EXPECT_NE(resolved.status().message().find("flag --sites"),
              std::string::npos)
        << resolved.status().message();
}

TEST(SpecResolve, PartiallyNumericFlagIsAnError)
{
    // An atol()-style parser would silently read "12abc" as 12.
    SpecSources sources;
    sources.flags = {{"sites", "12abc"}};
    const auto resolved = resolveSpec("exp", testSchema(), sources);
    ASSERT_FALSE(resolved.isOk());
    EXPECT_NE(resolved.status().message().find("flag --sites"),
              std::string::npos);
}

TEST(SpecResolve, OutOfRangeNamesSourceAndRange)
{
    SpecSources sources;
    sources.flags = {{"sites", "1"}};
    const auto resolved = resolveSpec("exp", testSchema(), sources);
    ASSERT_FALSE(resolved.isOk());
    EXPECT_EQ(resolved.status().code(), ErrorCode::OutOfRange);
    EXPECT_NE(resolved.status().message().find("flag --sites"),
              std::string::npos);
    EXPECT_NE(resolved.status().message().find("[2, 1000]"),
              std::string::npos);
}

TEST(SpecResolve, LayerPrecedenceFlagsBeatSpecBeatPresetBeatDefault)
{
    SpecSources sources;
    sources.presets = {{"sites", "40"}, {"seed", "1"}, {"label", "preset"}};
    sources.specText = "{\"sites\": 50, \"seed\": 7}";
    sources.specName = "test.json";
    sources.flags = {{"sites", "60"}};
    const auto resolved = resolveSpec("exp", testSchema(), sources);
    ASSERT_TRUE(resolved.isOk());
    EXPECT_EQ(resolved.value().getInt("sites"), 60);          // flag wins
    EXPECT_EQ(resolved.value().getInt("seed"), 7);            // spec
    EXPECT_EQ(resolved.value().getString("label"), "preset"); // preset
    EXPECT_FALSE(resolved.value().getBool("paper-model"));    // default
}

TEST(SpecResolve, UnknownFlagRejected)
{
    SpecSources sources;
    sources.flags = {{"bogus", "1"}};
    const auto resolved = resolveSpec("exp", testSchema(), sources);
    ASSERT_FALSE(resolved.isOk());
    EXPECT_NE(resolved.status().message().find("unknown flag --bogus"),
              std::string::npos);
}

TEST(SpecResolve, FlagAliasSetsItsTargetAndMustAgreeWithIt)
{
    ParamSchema schema = testSchema();
    schema.addFlagAlias("tag", "label");

    SpecSources sources;
    sources.flags = {{"tag", "x"}};
    auto resolved = resolveSpec("exp", schema, sources);
    ASSERT_TRUE(resolved.isOk()) << resolved.status().message();
    EXPECT_EQ(resolved.value().getString("label"), "x");
    EXPECT_EQ(resolved.value().paramsJson("").find("\"tag\""),
              std::string::npos);

    // Both spellings with one value are fine; with two they are an
    // error, whichever comes first.
    sources.flags = {{"label", "x"}, {"tag", "x"}};
    EXPECT_TRUE(resolveSpec("exp", schema, sources).isOk());
    sources.flags = {{"tag", "x"}, {"label", "y"}};
    resolved = resolveSpec("exp", schema, sources);
    ASSERT_FALSE(resolved.isOk());
    EXPECT_NE(resolved.status().message().find(
                  "--tag=x and --label=y set --label"),
              std::string::npos)
        << resolved.status().message();

    // The alias is a flag spelling only, not a spec-file key.
    sources.flags.clear();
    sources.specText = "{\"tag\": \"x\"}";
    sources.specName = "test.json";
    EXPECT_FALSE(resolveSpec("exp", schema, sources).isOk());
}

TEST(SpecResolve, UnknownSpecFileKeyRejected)
{
    SpecSources sources;
    sources.specText = "{\"bogus\": 1}";
    sources.specName = "test.json";
    const auto resolved = resolveSpec("exp", testSchema(), sources);
    ASSERT_FALSE(resolved.isOk());
    EXPECT_NE(resolved.status().message().find("unknown key \"bogus\""),
              std::string::npos);
}

TEST(SpecResolve, SpecFileExperimentMismatchRejected)
{
    SpecSources sources;
    sources.specText = "{\"experiment\": \"other\", \"sites\": 5}";
    sources.specName = "test.json";
    const auto resolved = resolveSpec("exp", testSchema(), sources);
    ASSERT_FALSE(resolved.isOk());
    EXPECT_NE(resolved.status().message().find("other"),
              std::string::npos);
}

TEST(SpecResolve, BoolSpellings)
{
    for (const char *truthy : {"true", "1"}) {
        SpecSources sources;
        sources.flags = {{"paper-model", truthy}};
        const auto resolved = resolveSpec("exp", testSchema(), sources);
        ASSERT_TRUE(resolved.isOk());
        EXPECT_TRUE(resolved.value().getBool("paper-model"));
    }
    SpecSources bad;
    bad.flags = {{"paper-model", "yes"}};
    EXPECT_FALSE(resolveSpec("exp", testSchema(), bad).isOk());
}

TEST(SpecFileParse, FlatJsonObject)
{
    const auto parsed = parseSpecText(
        "{\"experiment\": \"exp\", \"sites\": 50, \"paper-model\": true}",
        "t.json");
    ASSERT_TRUE(parsed.isOk());
    EXPECT_EQ(parsed.value().experiment, "exp");
    ASSERT_EQ(parsed.value().entries.size(), 2u);
}

TEST(SpecFileParse, ArtifactJsonUsesSpecSubObject)
{
    // The emitted artifact embeds the resolved spec under "spec";
    // every other top-level key (metrics, phases, ...) is ignored.
    const auto parsed = parseSpecText(
        "{\n"
        "  \"experiment\": \"exp\",\n"
        "  \"threads\": 4,\n"
        "  \"spec\": {\"sites\": 50, \"rate\": 0.25},\n"
        "  \"phases\": {\"collectSeconds\": 1.0},\n"
        "  \"metrics\": {\"x_top1\": 0.5}\n"
        "}\n",
        "artifact.json");
    ASSERT_TRUE(parsed.isOk());
    EXPECT_EQ(parsed.value().experiment, "exp");
    ASSERT_EQ(parsed.value().entries.size(), 2u);
    EXPECT_EQ(parsed.value().entries[0].first, "sites");
    EXPECT_EQ(parsed.value().entries[1].first, "rate");
}

TEST(SpecFileParse, ArtifactSchemaVersionUpToCurrentAccepted)
{
    // v1 artifacts carry no schemaVersion at all; v2 artifacts carry
    // the current version. Both must replay.
    const auto v1 = parseSpecText(
        "{\"experiment\": \"exp\", \"spec\": {\"sites\": 50}}",
        "old-artifact.json");
    ASSERT_TRUE(v1.isOk());
    EXPECT_EQ(v1.value().entries.size(), 1u);

    const auto v2 = parseSpecText(
        "{\"schemaVersion\": " + std::to_string(kArtifactSchemaVersion) +
            ", \"experiment\": \"exp\", \"spec\": {\"sites\": 50}}",
        "artifact.json");
    ASSERT_TRUE(v2.isOk());
    EXPECT_EQ(v2.value().experiment, "exp");
    EXPECT_EQ(v2.value().entries.size(), 1u);
}

TEST(SpecFileParse, ArtifactNewerSchemaVersionRejectedByName)
{
    const auto parsed = parseSpecText(
        "{\"schemaVersion\": 99, \"experiment\": \"exp\", "
        "\"spec\": {\"sites\": 50}}",
        "future.json");
    ASSERT_FALSE(parsed.isOk());
    EXPECT_EQ(parsed.status().code(), ErrorCode::ParseError);
    // The error names both the found and the supported version.
    EXPECT_NE(parsed.status().message().find("schemaVersion 99"),
              std::string::npos)
        << parsed.status().message();
    EXPECT_NE(parsed.status().message().find(
                  std::to_string(kArtifactSchemaVersion)),
              std::string::npos)
        << parsed.status().message();
}

TEST(SpecFileParse, ArtifactMalformedSchemaVersionRejected)
{
    EXPECT_FALSE(parseSpecText("{\"schemaVersion\": \"two\", "
                               "\"spec\": {\"sites\": 5}}",
                               "bad.json")
                     .isOk());
    EXPECT_FALSE(parseSpecText("{\"schemaVersion\": 0, "
                               "\"spec\": {\"sites\": 5}}",
                               "bad.json")
                     .isOk());
}

TEST(SpecFileParse, MalformedJsonRejected)
{
    EXPECT_FALSE(parseSpecText("{\"sites\": }", "t.json").isOk());
    EXPECT_FALSE(parseSpecText("{\"sites\": 5", "t.json").isOk());
    EXPECT_FALSE(parseSpecText("{} trailing", "t.json").isOk());
    EXPECT_FALSE(parseSpecText("", "t.json").isOk());
    // Spec files are JSON only; other text fails naming the file.
    const auto toml = parseSpecText("sites = 5\n", "t.toml");
    ASSERT_FALSE(toml.isOk());
    EXPECT_EQ(toml.status().code(), ErrorCode::ParseError);
    EXPECT_NE(toml.status().message().find("t.toml"), std::string::npos)
        << toml.status().message();
}

TEST(SpecRoundTrip, JsonSerializeReparseResolveEquality)
{
    // Every byte below 0x20 must come out as valid JSON and read back.
    std::string control_bytes = "dir\nwith\ttab\rand";
    for (char c = 0; c < 0x20; ++c)
        control_bytes.push_back(c);
    for (const std::string &label :
         {std::string("quoted \"inner\" text \\ slash"), control_bytes}) {
        SpecSources sources;
        sources.flags = {
            {"sites", "123"}, {"paper-model", "true"}, {"label", label}};
        const auto original = resolveSpec("exp", testSchema(), sources);
        ASSERT_TRUE(original.isOk());

        // The replayable form a run artifact embeds.
        const std::string json = "{\"experiment\": \"exp\", \"spec\": " +
                                 original.value().paramsJson("  ") + "}";
        const std::string literal = quoteJsonString(label);
        for (const char c : literal)
            EXPECT_GE(static_cast<unsigned char>(c), 0x20) << literal;
        EXPECT_NE(json.find(literal), std::string::npos);

        SpecSources replay;
        replay.specText = json;
        replay.specName = "emitted.json";
        const auto reparsed = resolveSpec("exp", testSchema(), replay);
        ASSERT_TRUE(reparsed.isOk()) << reparsed.status().message();
        EXPECT_EQ(original.value(), reparsed.value());
        EXPECT_EQ(reparsed.value().getString("label"), label);
    }
}

TEST(SpecHelp, MentionsEveryParameter)
{
    const std::string help = helpText(testSchema());
    for (const char *needle : {"--sites=<int>", "--paper-model=<bool>",
                               "--label=<string>", "default 20"})
        EXPECT_NE(help.find(needle), std::string::npos) << needle;
}

} // namespace
} // namespace bigfish::spec
