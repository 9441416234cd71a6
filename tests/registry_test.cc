/**
 * @file
 * Tests for the experiment registry: DESIGN.md §4 completeness (every
 * experiment the design doc names is registered, and vice versa), smoke
 * runnability of every descriptor, artifact shape, and bit-identical
 * replay of a run from its own emitted artifact JSON.
 */

#include "experiments.hh"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "core/artifact.hh"
#include "core/registry.hh"
#include "spec/spec.hh"

namespace bigfish {
namespace {

const core::ExperimentRegistry &
registry()
{
    static const core::ExperimentRegistry *instance = [] {
        auto *r = new core::ExperimentRegistry;
        bench::registerAllExperiments(*r);
        return r;
    }();
    return *instance;
}

/** Resolves @p descriptor's spec at --smoke scale, no env, no flags. */
spec::RunSpec
smokeSpec(const core::ExperimentDescriptor &descriptor)
{
    spec::SpecSources sources;
    sources.presets = core::smokeScaleOverrides();
    sources.presets.insert(sources.presets.end(),
                           descriptor.smokeOverrides.begin(),
                           descriptor.smokeOverrides.end());
    auto resolved =
        spec::resolveSpec(descriptor.name, descriptor.schema, sources);
    EXPECT_TRUE(resolved.isOk()) << resolved.status().message();
    return std::move(resolved).value();
}

Result<core::RunArtifact>
runWithSpec(const core::ExperimentDescriptor &descriptor,
            spec::RunSpec run_spec)
{
    core::RunContext ctx;
    ctx.descriptor = &descriptor;
    ctx.spec = std::move(run_spec);
    return descriptor.run(ctx);
}

TEST(Registry, MatchesDesignDocExperimentIndex)
{
    std::ifstream in(BIGFISH_DESIGN_MD);
    ASSERT_TRUE(in) << "cannot open " << BIGFISH_DESIGN_MD;
    std::ostringstream text;
    text << in.rdbuf();
    const std::string design = text.str();

    std::set<std::string> documented;
    // Every "bigfish run <name>" with a non-empty [a-z0-9_]+ name.
    const std::string prefix = "bigfish run ";
    for (std::size_t pos = design.find(prefix); pos != std::string::npos;
         pos = design.find(prefix, pos)) {
        pos += prefix.size();
        const std::size_t end = design.find_first_not_of(
            "abcdefghijklmnopqrstuvwxyz0123456789_", pos);
        const std::string name = design.substr(pos, end - pos);
        if (!name.empty())
            documented.insert(name);
    }

    const auto names = registry().names();
    const std::set<std::string> registered(names.begin(), names.end());

    EXPECT_GE(registered.size(), 15u);
    for (const auto &name : documented)
        EXPECT_TRUE(registered.count(name))
            << "DESIGN.md names `bigfish run " << name
            << "` but the registry has no such experiment";
    for (const auto &name : registered)
        EXPECT_TRUE(documented.count(name))
            << "experiment \"" << name
            << "\" is registered but absent from DESIGN.md §4";
}

TEST(Registry, DescriptorsAreWellFormed)
{
    for (const auto &[name, d] : registry().all()) {
        EXPECT_FALSE(d.title.empty()) << name;
        EXPECT_FALSE(d.paperReference.empty()) << name;
        EXPECT_TRUE(static_cast<bool>(d.run)) << name;
        // The common scale vocabulary must be declared everywhere so
        // --sites / --seed etc. mean the same thing in every run.
        for (const char *param :
             {"sites", "traces", "open", "features", "folds", "seed",
              "paper-model", "threads"})
            EXPECT_NE(d.schema.find(param), nullptr)
                << name << " lacks common parameter " << param;
    }
}

TEST(Registry, EverySmokeRunSucceedsWithMetrics)
{
    for (const auto &[name, d] : registry().all()) {
        auto artifact = runWithSpec(d, smokeSpec(d));
        ASSERT_TRUE(artifact.isOk())
            << name << ": " << artifact.status().message();
        EXPECT_EQ(artifact.value().experiment(), name);
        EXPECT_FALSE(artifact.value().metrics().empty()) << name;
        for (const auto &[metric, value] : artifact.value().metrics())
            EXPECT_TRUE(value == value)
                << name << " produced NaN metric " << metric;
    }
}

TEST(Registry, ReplayFromEmittedArtifactIsBitIdentical)
{
    // fig7 is cheap and purely deterministic: run it, replay from the
    // artifact JSON it emitted, and demand identical metrics.
    const auto *d = registry().find("fig7_timer_outputs");
    ASSERT_NE(d, nullptr);
    auto first = runWithSpec(*d, smokeSpec(*d));
    ASSERT_TRUE(first.isOk()) << first.status().message();
    const std::string artifact_json = first.value().toJson();

    spec::SpecSources replay;
    replay.specText = artifact_json;
    replay.specName = "emitted-artifact.json";
    auto respec = spec::resolveSpec(d->name, d->schema, replay);
    ASSERT_TRUE(respec.isOk()) << respec.status().message();
    EXPECT_EQ(respec.value(), first.value().spec());

    auto second = runWithSpec(*d, std::move(respec).value());
    ASSERT_TRUE(second.isOk()) << second.status().message();
    ASSERT_EQ(first.value().metrics().size(),
              second.value().metrics().size());
    for (std::size_t i = 0; i < first.value().metrics().size(); ++i) {
        EXPECT_EQ(first.value().metrics()[i].first,
                  second.value().metrics()[i].first);
        EXPECT_EQ(first.value().metrics()[i].second,
                  second.value().metrics()[i].second)
            << first.value().metrics()[i].first;
    }
}

TEST(Registry, Table1SmokeMetricsMatchPreStageGraphBaseline)
{
    // Pinned %.6f metric values recorded from a pre-stage-graph smoke
    // run of table1_fingerprinting (same seeds, same smoke scale). The
    // stage-graph refactor moved the pipeline onto declared stages with
    // a unified cache, but the numbers are a pure function of the spec:
    // any drift here means the refactor changed results, not just
    // structure.
    struct Pinned
    {
        const char *name;
        double value;
    };
    const Pinned baseline[] = {
        {"Chrome_Linux_loop_top1", 0.000000},
        {"Chrome_Linux_loop_open_combined", 0.150000},
        {"Chrome_Linux_sweep_top1", 0.000000},
        {"Chrome_Linux_sweep_open_combined", 0.150000},
        {"Chrome_Windows_loop_top1", 0.000000},
        {"Chrome_Windows_loop_open_combined", 0.200000},
        {"Chrome_Windows_sweep_top1", 0.083333},
        {"Chrome_Windows_sweep_open_combined", 0.150000},
        {"Chrome_macOS_loop_top1", 0.083333},
        {"Chrome_macOS_loop_open_combined", 0.250000},
        {"Chrome_macOS_sweep_top1", 0.083333},
        {"Chrome_macOS_sweep_open_combined", 0.300000},
        {"Firefox_Linux_loop_top1", 0.000000},
        {"Firefox_Linux_loop_open_combined", 0.350000},
        {"Firefox_Linux_sweep_top1", 0.000000},
        {"Firefox_Linux_sweep_open_combined", 0.200000},
        {"Firefox_Windows_loop_top1", 0.000000},
        {"Firefox_Windows_loop_open_combined", 0.250000},
        {"Firefox_Windows_sweep_top1", 0.166667},
        {"Firefox_Windows_sweep_open_combined", 0.250000},
        {"Firefox_macOS_loop_top1", 0.083333},
        {"Firefox_macOS_loop_open_combined", 0.200000},
        {"Firefox_macOS_sweep_top1", 0.083333},
        {"Firefox_macOS_sweep_open_combined", 0.300000},
        {"Safari_macOS_loop_top1", 0.000000},
        {"Safari_macOS_loop_open_combined", 0.300000},
        {"Safari_macOS_sweep_top1", 0.083333},
        {"Safari_macOS_sweep_open_combined", 0.200000},
        {"Tor_Linux_loop_top1", 0.000000},
        {"Tor_Linux_loop_open_combined", 0.150000},
        {"Tor_Linux_sweep_top1", 0.000000},
        {"Tor_Linux_sweep_open_combined", 0.150000},
    };

    const auto *d = registry().find("table1_fingerprinting");
    ASSERT_NE(d, nullptr);
    auto artifact = runWithSpec(*d, smokeSpec(*d));
    ASSERT_TRUE(artifact.isOk()) << artifact.status().message();
    for (const auto &pin : baseline) {
        const auto got = artifact.value().findMetric(pin.name);
        ASSERT_TRUE(got.has_value()) << pin.name;
        // The artifact prints %.6f; compare at that precision, the
        // contract the emitted JSON actually makes.
        EXPECT_NEAR(*got, pin.value, 5e-7) << pin.name;
    }
    EXPECT_EQ(artifact.value().collectedTraces(), 320u);
    EXPECT_EQ(artifact.value().droppedTraces(), 0u);
}

TEST(Registry, ExpectedValuesKeyRealMetrics)
{
    // Paper-expected values live in the descriptors; each one must key
    // a metric the smoke run actually emits (catches renames).
    for (const char *name :
         {"table2_noise", "fig8_loop_durations", "background_noise"}) {
        const auto *d = registry().find(name);
        ASSERT_NE(d, nullptr) << name;
        auto artifact = runWithSpec(*d, smokeSpec(*d));
        ASSERT_TRUE(artifact.isOk())
            << name << ": " << artifact.status().message();
        for (const auto &e : d->expected)
            EXPECT_TRUE(artifact.value().findMetric(e.name).has_value())
                << name << ": expected value \"" << e.name
                << "\" does not match any emitted metric";
    }
}

TEST(Registry, AddPanicsOnDuplicateName)
{
    core::ExperimentRegistry r;
    core::ExperimentDescriptor d;
    d.name = "dup";
    d.title = "t";
    d.paperReference = "p";
    d.run = [](const core::RunContext &ctx) {
        return Result<core::RunArtifact>(core::makeArtifact(ctx));
    };
    r.add(d);
    EXPECT_DEATH(r.add(d), "dup");
}

} // namespace
} // namespace bigfish
