/**
 * @file
 * Ablation of the classifier featurization (DESIGN.md decision #6) and
 * of the attacker's measurement primitive.
 *
 * Featurization: the pipeline feeds the CNN-LSTM two channels per time
 * bucket — bucket mean (coarse profile) and sub-bucket dip depth (fine
 * interrupt texture). This experiment measures each channel alone, the
 * combination, and the effect of dropping winsorization.
 *
 * Primitive: compares the loop-counting trace against the gap-trace
 * attacker (per-period stolen time from CLOCK_MONOTONIC polling), the
 * paper's Section 5.2 observation that different attack code sees the
 * same channel.
 */

#include <algorithm>
#include <cstdio>

#include "base/stopwatch.hh"
#include "base/table.hh"
#include "experiments.hh"
#include "stats/descriptive.hh"

namespace bigfish::bench {

namespace {

/** Builds a dataset with a configurable featurization. */
ml::Dataset
makeDataset(const attack::TraceSet &traces, std::size_t feature_len,
            int num_classes, bool mean_channel, bool dip_channel,
            bool winsorized)
{
    ml::Dataset data;
    const auto means = traces.toFeatures(feature_len);
    const auto dips = traces.toDipFeatures(feature_len);
    const auto labels = traces.labels();
    for (std::size_t i = 0; i < means.size(); ++i) {
        std::vector<double> x;
        if (mean_channel) {
            auto m = winsorized ? stats::winsorize(means[i]) : means[i];
            const auto z = stats::zscore(m);
            x.insert(x.end(), z.begin(), z.end());
        }
        if (dip_channel) {
            const auto z = stats::zscore(dips[i]);
            x.insert(x.end(), z.begin(), z.end());
        }
        data.add(std::move(x), labels[i]);
    }
    data.numClasses = std::max(data.numClasses, num_classes);
    return data;
}

Result<core::RunArtifact>
run(const core::RunContext &ctx)
{
    const auto scale = core::scaleFromSpec(ctx.spec);
    auto artifact = core::makeArtifact(ctx);

    core::CollectionConfig config = core::collectionForScale(scale);
    config.browser = web::BrowserProfile::chrome();
    const web::SiteCatalog catalog(scale.sites, 7);
    const core::TraceCollector collector(config);
    const attack::AttackerKind loop[] = {attack::AttackerKind::LoopCounting};
    auto collected =
        collector.collectClosedWorldMulti(catalog, scale.tracesPerSite, loop);
    if (!collected.isOk())
        return collected.status();
    const auto &traces = collected.value()[0];

    ml::EvalConfig eval;
    eval.folds = scale.folds;
    eval.seed = scale.seed;
    eval.topK = scale.topK;

    struct Variant
    {
        const char *name;
        bool mean, dip, winsor;
        std::size_t channels;
    };
    const Variant variants[] = {
        {"mean + dip (default)", true, true, true, 2},
        {"mean only", true, false, true, 1},
        {"dip only", false, true, true, 1},
        {"mean + dip, no winsorize", true, true, false, 2},
    };

    // This experiment drives ml::crossValidate() directly (it ablates
    // the featurization below toDataset()), so it meters the whole
    // cross-validation itself and books it under "train" — the eval
    // pass is a rounding error next to the fits, and the fold-level
    // split now lives in the stage graph the main pipeline runs.
    Table table({"featurization", "top-1", "top-k"});
    int variant_index = 0;
    for (const auto &v : variants) {
        const auto data = makeDataset(traces, scale.featureLen,
                                      scale.sites, v.mean, v.dip,
                                      v.winsor);
        auto params = ml::CnnLstmParams::traceDefaults();
        params.inputChannels = v.channels;
        ProcessCpuStopwatch cv_cpu;
        Stopwatch cv_wall;
        const auto result =
            ml::crossValidate(ml::cnnLstmFactory(params), data, eval);
        artifact.addMetric("variant" + std::to_string(variant_index++) +
                               "_top1",
                           result.top1Mean);
        artifact.addPhaseSeconds("train", cv_cpu.seconds(),
                                 cv_wall.seconds());
        table.addRow({v.name,
                      formatPercentPm(result.top1Mean, result.top1Std),
                      formatPercent(result.topKMean)});
        std::printf("finished: %s\n", v.name);
    }
    std::printf("\nFEATURIZATION ABLATION (chance = %.1f%%)\n%s",
                100.0 / scale.sites, table.render().c_str());

    // Measurement-primitive comparison: loop counter vs gap trace.
    attack::TraceSet gap_traces;
    for (SiteId id = 0; id < catalog.size(); ++id) {
        for (int run_index = 0; run_index < scale.tracesPerSite;
             ++run_index) {
            const auto timeline =
                collector.synthesizeTimeline(catalog.site(id), run_index);
            auto gap = attack::collectGapTrace(timeline,
                                               config.effectivePeriod());
            if (!gap.isOk())
                return gap.status();
            attack::Trace t = std::move(gap).value();
            t.siteId = id;
            t.label = id;
            gap_traces.add(std::move(t));
        }
    }
    const auto gap_data = core::toDataset(gap_traces, scale.featureLen,
                                          scale.sites);
    ProcessCpuStopwatch prim_cpu;
    Stopwatch prim_wall;
    const auto gap_result = ml::crossValidate(
        core::classifierForScale(scale), gap_data, eval);
    const auto loop_data =
        core::toDataset(traces, scale.featureLen, scale.sites);
    const auto loop_result = ml::crossValidate(
        core::classifierForScale(scale), loop_data, eval);
    artifact.addPhaseSeconds("train", prim_cpu.seconds(),
                             prim_wall.seconds());

    Table prim({"measurement primitive", "top-1", "top-k"});
    prim.addRow({"loop counter (throughput)",
                 formatPercentPm(loop_result.top1Mean,
                                 loop_result.top1Std),
                 formatPercent(loop_result.topKMean)});
    prim.addRow({"monotonic-clock gaps (stolen time)",
                 formatPercentPm(gap_result.top1Mean, gap_result.top1Std),
                 formatPercent(gap_result.topKMean)});
    std::printf("\nMEASUREMENT-PRIMITIVE COMPARISON\n%s",
                prim.render().c_str());
    std::printf("\nexpected: both primitives fingerprint websites — the "
                "channel is the interrupt\nactivity itself, not any one "
                "way of observing it (Section 5.2).\n");
    artifact.addMetric("loop_primitive_top1", loop_result.top1Mean);
    artifact.addMetric("gap_primitive_top1", gap_result.top1Mean);
    return artifact;
}

} // namespace

void
registerAblationFeaturization(core::ExperimentRegistry &registry)
{
    core::ExperimentDescriptor d;
    d.name = "ablation_featurization";
    d.title = "classifier input channels & measurement primitives";
    d.paperReference = "DESIGN.md decision #6 (not a paper table)";
    d.schema = core::commonScaleSchema();
    d.run = run;
    registry.add(std::move(d));
}

} // namespace bigfish::bench
