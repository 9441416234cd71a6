/**
 * @file
 * Unit tests for src/core: configuration plumbing, deterministic trace
 * collection, dataset assembly, and the fingerprinting pipeline.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "core/collector.hh"
#include "core/pipeline.hh"
#include "core/presets.hh"
#include "stats/descriptive.hh"

namespace bigfish::core {
namespace {

constexpr attack::AttackerKind kLoop = attack::AttackerKind::LoopCounting;
constexpr attack::AttackerKind kLoopOnly[] = {kLoop};

TEST(CollectionConfig, EffectiveDefaults)
{
    CollectionConfig config;
    EXPECT_EQ(config.effectivePeriod(), 5 * kMsec);
    EXPECT_EQ(config.effectiveTimer().kind, timers::TimerKind::Jittered);
}

TEST(CollectionConfig, OverridesWin)
{
    CollectionConfig config;
    config.period = 100 * kMsec;
    config.timerOverride = timers::TimerSpec::randomizedDefense();
    EXPECT_EQ(config.effectivePeriod(), 100 * kMsec);
    EXPECT_EQ(config.effectiveTimer().kind, timers::TimerKind::Randomized);
}

TEST(TraceCollector, DeterministicPerSeed)
{
    CollectionConfig config;
    config.seed = 77;
    const TraceCollector c1(config), c2(config);
    const auto site = web::amazonSignature(3);
    const auto a = c1.collectOne(kLoop, site, 5).valueOrDie();
    const auto b = c2.collectOne(kLoop, site, 5).valueOrDie();
    ASSERT_EQ(a.counts.size(), b.counts.size());
    for (std::size_t i = 0; i < a.counts.size(); ++i)
        EXPECT_DOUBLE_EQ(a.counts[i], b.counts[i]);
}

TEST(TraceCollector, RunsDiffer)
{
    CollectionConfig config;
    const TraceCollector collector(config);
    const auto site = web::amazonSignature(3);
    const auto a = collector.collectOne(kLoop, site, 0).valueOrDie();
    const auto b = collector.collectOne(kLoop, site, 1).valueOrDie();
    double diff = 0.0;
    for (std::size_t i = 0; i < std::min(a.size(), b.size()); ++i)
        diff += std::abs(a.counts[i] - b.counts[i]);
    EXPECT_GT(diff, 100.0);
}

TEST(TraceCollector, LabelsFollowSiteIds)
{
    CollectionConfig config;
    const TraceCollector collector(config);
    const web::SiteCatalog catalog(4, 7);
    const auto set =
        collector.collectClosedWorldMulti(catalog, 3, kLoopOnly)
            .valueOrDie()[0];
    ASSERT_EQ(set.size(), 12u);
    EXPECT_EQ(set.traces[0].label, 0);
    EXPECT_EQ(set.traces[11].label, 3);
    EXPECT_EQ(set.numClasses(), 4);
}

TEST(TraceCollector, OpenWorldLabeledAsCatchAll)
{
    CollectionConfig config;
    const TraceCollector collector(config);
    const web::SiteCatalog catalog(4, 7);
    const auto set =
        collector.collectOpenWorldMulti(catalog, 5, 4, kLoopOnly)
            .valueOrDie()[0];
    ASSERT_EQ(set.size(), 5u);
    for (const auto &trace : set.traces)
        EXPECT_EQ(trace.label, 4);
    // Traces come from distinct one-off sites and thus differ.
    double diff = 0.0;
    for (std::size_t i = 0;
         i < std::min(set.traces[0].size(), set.traces[1].size()); ++i)
        diff += std::abs(set.traces[0].counts[i] - set.traces[1].counts[i]);
    EXPECT_GT(diff, 100.0);
}

TEST(TraceCollector, TimelineExposedForInstrumentation)
{
    CollectionConfig config;
    const TraceCollector collector(config);
    const auto site = web::nytimesSignature(0);
    const auto timeline = collector.synthesizeTimeline(site, 0);
    EXPECT_EQ(timeline.duration, config.browser.traceDuration);
    EXPECT_FALSE(timeline.stolen.empty());
    // The exposed timeline is the one the attacker measured: a second
    // call reproduces it exactly.
    const auto again = collector.synthesizeTimeline(site, 0);
    ASSERT_EQ(timeline.stolen.size(), again.stolen.size());
    EXPECT_EQ(timeline.stolen[5].arrival, again.stolen[5].arrival);
}

TEST(TraceCollector, NoiseCountermeasureChangesTraces)
{
    CollectionConfig plain;
    CollectionConfig noisy = plain;
    noisy.spuriousInterruptNoise = true;
    const auto site = web::amazonSignature(1);
    const auto a =
        TraceCollector(plain).collectOne(kLoop, site, 0).valueOrDie();
    const auto b =
        TraceCollector(noisy).collectOne(kLoop, site, 0).valueOrDie();
    // Under injected interrupts the attacker completes fewer iterations.
    EXPECT_LT(stats::mean(b.counts), stats::mean(a.counts));
}

TEST(TraceCollector, CacheSweepSlowsOnlySweepAttacker)
{
    CollectionConfig plain;
    CollectionConfig noisy = plain;
    noisy.cacheSweepNoise = true;

    const auto site = web::nytimesSignature(0);
    const auto slowdown = [&](attack::AttackerKind kind) {
        return stats::mean(TraceCollector(plain)
                               .collectOne(kind, site, 0)
                               .valueOrDie()
                               .counts) /
               std::max(1.0, stats::mean(TraceCollector(noisy)
                                             .collectOne(kind, site, 0)
                                             .valueOrDie()
                                             .counts));
    };
    const double loop_drop = slowdown(kLoop);
    const double sweep_drop = slowdown(attack::AttackerKind::SweepCounting);
    // The sweeping attacker's iterations slow under full-LLC occupancy
    // (prefetch-amortized misses on every victim-touched line); the
    // loop attacker barely notices.
    EXPECT_GT(sweep_drop, 1.04);
    EXPECT_LT(loop_drop, 1.03);
    EXPECT_GT(sweep_drop, loop_drop);
}

TEST(ToDataset, StandardizesFeatures)
{
    attack::TraceSet set;
    attack::Trace t;
    t.label = 0;
    t.counts.assign(200, 100.0);
    t.counts[50] = 50.0;
    set.add(t);
    const auto data = toDataset(set, 100, 2);
    ASSERT_EQ(data.size(), 1u);
    EXPECT_NEAR(stats::mean(data.features[0]), 0.0, 1e-9);
}

TEST(ToDataset, EmptyTraceSetYieldsEmptyDatasetWithDeclaredClasses)
{
    const attack::TraceSet set;
    const auto data = toDataset(set, 64, 5);
    EXPECT_EQ(data.size(), 0u);
    EXPECT_TRUE(data.features.empty());
    EXPECT_TRUE(data.labels.empty());
    // The declared class count survives even with no rows, so a
    // degraded-collection check can still reason about the world size.
    EXPECT_EQ(data.numClasses, 5);
}

TEST(ToDataset, FeatureLenLongerThanShortestTraceStillFixedWidth)
{
    // Interpolating resample: a trace with fewer periods than
    // feature_len buckets must still produce exactly feature_len values
    // per channel, never a ragged row.
    attack::TraceSet set;
    attack::Trace shorty;
    shorty.label = 0;
    shorty.counts = {90.0, 100.0, 95.0, 80.0, 100.0};
    set.add(shorty);
    attack::Trace longer;
    longer.label = 1;
    longer.counts.assign(500, 100.0);
    set.add(longer);
    const std::size_t feature_len = 64;
    const auto data = toDataset(set, feature_len, 2);
    ASSERT_EQ(data.size(), 2u);
    // Two channels (bucket mean + dip depth), concatenated.
    EXPECT_EQ(data.features[0].size(), 2 * feature_len);
    EXPECT_EQ(data.features[1].size(), 2 * feature_len);
    EXPECT_EQ(data.featureLen(), 2 * feature_len);
}

TEST(ToDataset, AllDroppedSiteLeavesGapInLabelsNotInRows)
{
    // Fault-degraded collection can silently drop every trace of one
    // site; the dataset must keep the surviving rows and cover the
    // absent class via the declared class count.
    attack::TraceSet set;
    for (int label : {0, 0, 2, 2}) {
        attack::Trace t;
        t.label = label;
        t.counts.assign(64, 100.0 + label);
        t.counts[10 + label] = 40.0;
        set.add(t);
    }
    const auto data = toDataset(set, 16, 3);
    ASSERT_EQ(data.size(), 4u);
    EXPECT_EQ(data.numClasses, 3);
    EXPECT_EQ(data.labels, (std::vector<Label>{0, 0, 2, 2}));
}

TEST(ToDataset, SingleClassInputsKeepDeclaredWorldSize)
{
    attack::TraceSet set;
    for (int i = 0; i < 3; ++i) {
        attack::Trace t;
        t.label = 0;
        t.counts.assign(128, 100.0);
        t.counts[20 * (i + 1)] = 55.0;
        set.add(t);
    }
    const auto data = toDataset(set, 32, 4);
    ASSERT_EQ(data.size(), 3u);
    for (const auto &label : data.labels)
        EXPECT_EQ(label, 0);
    // num_classes is a floor, not a measurement: the single surviving
    // class does not shrink the declared world.
    EXPECT_EQ(data.numClasses, 4);
}

TEST(Presets, Table1MatrixMatchesPaper)
{
    const auto rows = presets::table1Rows();
    ASSERT_EQ(rows.size(), 8u);
    EXPECT_EQ(rows[0].name, "chrome/linux");
    EXPECT_EQ(rows[7].name, "tor/linux");
    // Tor rows must carry the 100 ms quantized timer and 50 s traces.
    EXPECT_EQ(rows[7].config.browser.timer.kind,
              timers::TimerKind::Quantized);
    EXPECT_EQ(rows[7].config.browser.traceDuration, 50 * kSec);
    // Windows rows run the Xeon workstation profile.
    EXPECT_EQ(rows[1].config.machine.os.name, "windows");
}

TEST(PresetsDeath, RejectsUnevaluatedCombinations)
{
    EXPECT_EXIT(presets::table1Row("safari", "windows"),
                ::testing::ExitedWithCode(1), "Safari");
    EXPECT_EXIT(presets::table1Row("tor", "macos"),
                ::testing::ExitedWithCode(1), "Tor");
    EXPECT_EXIT(presets::table1Row("opera", "linux"),
                ::testing::ExitedWithCode(1), "unknown browser");
}

TEST(Presets, Table2ConditionsToggleDefenses)
{
    const auto none = presets::table2Condition("none");
    EXPECT_FALSE(none.spuriousInterruptNoise);
    EXPECT_FALSE(none.cacheSweepNoise);
    const auto irq = presets::table2Condition("interrupt");
    EXPECT_TRUE(irq.spuriousInterruptNoise);
    const auto cache = presets::table2Condition("cache-sweep");
    EXPECT_TRUE(cache.cacheSweepNoise);
    const auto bg = presets::table2Condition("background");
    EXPECT_TRUE(bg.backgroundApps);
}

TEST(Presets, Table3LevelsAccumulate)
{
    const auto l0 = presets::table3Isolation(0);
    EXPECT_TRUE(l0.machine.frequencyScaling);
    EXPECT_FALSE(l0.machine.pinnedCores);
    const auto l2 = presets::table3Isolation(2);
    EXPECT_FALSE(l2.machine.frequencyScaling);
    EXPECT_TRUE(l2.machine.pinnedCores);
    EXPECT_EQ(l2.machine.routing, sim::IrqRoutingPolicy::Spread);
    const auto l4 = presets::table3Isolation(4);
    EXPECT_EQ(l4.machine.routing, sim::IrqRoutingPolicy::PinnedAway);
    EXPECT_TRUE(l4.machine.vmIsolation);
    // The Python attacker with a precise clock, as in the paper.
    EXPECT_EQ(l4.browser.timer.kind, timers::TimerKind::Precise);
}

TEST(Presets, Table4TimersAndPeriods)
{
    const auto jitter = presets::table4Timer("jittered", 5);
    ASSERT_TRUE(jitter.timerOverride.has_value());
    EXPECT_EQ(jitter.timerOverride->kind, timers::TimerKind::Jittered);
    EXPECT_EQ(jitter.effectivePeriod(), 5 * kMsec);
    const auto rand500 = presets::table4Timer("randomized", 500);
    EXPECT_EQ(rand500.timerOverride->kind, timers::TimerKind::Randomized);
    EXPECT_EQ(rand500.effectivePeriod(), 500 * kMsec);
}

/** The TimelineInputs group each config joins, numbered in first-
 *  appearance order (as runFingerprintingShared groups them). */
std::vector<std::size_t>
timelineGroups(const std::vector<CollectionConfig> &configs)
{
    std::vector<TimelineInputs> keys;
    std::vector<std::size_t> groups;
    for (const CollectionConfig &config : configs) {
        const TimelineInputs key = TimelineInputs::of(config);
        auto it = std::find(keys.begin(), keys.end(), key);
        if (it == keys.end())
            it = keys.insert(keys.end(), key);
        groups.push_back(static_cast<std::size_t>(it - keys.begin()));
    }
    return groups;
}

TEST(TimelineInputs, Table1PresetsFormFourGroups)
{
    // {Chrome, Firefox} x Linux, {Chrome, Firefox} x Windows,
    // {Chrome, Firefox, Safari} x macOS and {Tor} x Linux.
    std::vector<CollectionConfig> configs;
    std::vector<std::string> names;
    for (const presets::NamedConfig &row : presets::table1Rows()) {
        configs.push_back(row.config);
        names.push_back(row.name);
    }
    ASSERT_EQ(names, (std::vector<std::string>{
                         "chrome/linux", "chrome/windows", "chrome/macos",
                         "firefox/linux", "firefox/windows",
                         "firefox/macos", "safari/macos", "tor/linux"}));
    EXPECT_EQ(timelineGroups(configs),
              (std::vector<std::size_t>{0, 1, 2, 0, 1, 2, 2, 3}));
}

TEST(TimelineInputs, Table4RowsFormOneGroup)
{
    const std::vector<CollectionConfig> configs = {
        presets::table4Timer("jittered", 5),
        presets::table4Timer("quantized", 5),
        presets::table4Timer("randomized", 5),
        presets::table4Timer("randomized", 100),
        presets::table4Timer("randomized", 500)};
    EXPECT_EQ(timelineGroups(configs),
              (std::vector<std::size_t>(configs.size(), 0)));
}

TEST(TimelineInputs, OneDifferentInputSeparatesConfigs)
{
    const CollectionConfig base = presets::table1Row("chrome", "linux");
    CollectionConfig background = base;
    background.backgroundApps = true;
    CollectionConfig tick = base;
    tick.machine.os.tickHz = 1000;
    CollectionConfig variability = base;
    variability.browser.loadVariability = 1.5;
    for (const CollectionConfig &other : {background, tick, variability})
        EXPECT_FALSE(TimelineInputs::of(other) == TimelineInputs::of(base));

    // What only the browser runtime, the timer or the faults read keeps
    // a config in the group.
    CollectionConfig runtime = base;
    runtime.browser.runtimeNoiseSigma = 0.5;
    runtime.browser.timer = timers::TimerSpec::quantized(kMsec);
    runtime.period = 100 * kMsec;
    runtime.faults.dropInterruptProb = 0.1;
    EXPECT_TRUE(TimelineInputs::of(runtime) == TimelineInputs::of(base));
}

TEST(Pipeline, EndToEndBeatsChanceClearly)
{
    CollectionConfig config;
    config.seed = 5;
    PipelineConfig pipeline;
    pipeline.numSites = 5;
    pipeline.tracesPerSite = 8;
    pipeline.featureLen = 192;
    pipeline.eval.folds = 4;
    pipeline.factory = ml::knnFactory(3); // Fast and adequate here.
    const auto result =
        runFingerprintingShared(config, kLoopOnly, pipeline).valueOrDie()[0];
    EXPECT_GT(result.closedWorld.top1Mean, 0.6); // Chance is 0.2.
    EXPECT_FALSE(result.hasOpenWorld);
}

TEST(Pipeline, OpenWorldProducesMetrics)
{
    CollectionConfig config;
    config.seed = 6;
    PipelineConfig pipeline;
    pipeline.numSites = 4;
    pipeline.tracesPerSite = 8;
    pipeline.openWorldExtra = 16;
    pipeline.featureLen = 192;
    pipeline.eval.folds = 4;
    pipeline.factory = ml::knnFactory(3);
    const auto result =
        runFingerprintingShared(config, kLoopOnly, pipeline).valueOrDie()[0];
    ASSERT_TRUE(result.hasOpenWorld);
    EXPECT_GT(result.openWorld.openWorld.combinedAccuracy, 0.5);
    EXPECT_GT(result.openWorld.openWorld.sensitiveAccuracy, 0.0);
}

} // namespace
} // namespace bigfish::core
