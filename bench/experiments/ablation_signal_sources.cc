/**
 * @file
 * Ablation: which simulated leakage channels carry the attack?
 *
 * DESIGN.md calls out the interrupt-stream decomposition as the central
 * modelling decision; this experiment deletes one channel at a time from
 * the machine model and re-measures closed-world accuracy, quantifying
 * each channel's contribution. It also ablates the classifier (CNN-LSTM
 * vs softmax regression vs kNN) and the feature length.
 *
 * Expected shape: non-movable channels (softirqs + resched/TLB IPIs)
 * carry the majority of the signal, mirroring the paper's Section 5;
 * DVFS and contention are minor; the attack survives any single
 * deletion (defense-in-depth failure).
 */

#include <cstdio>

#include "base/table.hh"
#include "experiments.hh"

namespace bigfish::bench {

namespace {

const attack::AttackerKind kLoop[] = {attack::AttackerKind::LoopCounting};

Result<double>
accuracy(const core::CollectionConfig &config,
         const core::PipelineConfig &pipeline,
         core::RunArtifact &artifact, const std::string &label)
{
    auto results = core::runFingerprintingShared(config, kLoop, pipeline);
    if (!results.isOk())
        return results.status();
    artifact.addResult(label, results.value()[0]);
    return results.value()[0].closedWorld.top1Mean;
}

Result<core::RunArtifact>
run(const core::RunContext &ctx)
{
    const auto scale = core::scaleFromSpec(ctx.spec);
    auto artifact = core::makeArtifact(ctx);
    const auto pipeline = core::pipelineForScale(scale);

    core::CollectionConfig base = core::collectionForScale(scale);
    base.browser = web::BrowserProfile::nativePython();
    base.machine.pinnedCores = true; // Isolate the interrupt channels.

    struct Step
    {
        const char *name;
        void (*apply)(core::CollectionConfig &);
    };
    const Step steps[] = {
        {"full model", [](core::CollectionConfig &) {}},
        {"- movable device IRQs",
         [](core::CollectionConfig &c) {
             c.machine.routing = sim::IrqRoutingPolicy::PinnedAway;
         }},
        {"- softirq dispatch to attacker core",
         [](core::CollectionConfig &c) {
             c.machine.os.softirqShare = 0.0;
         }},
        {"- victim resched/TLB IPIs",
         [](core::CollectionConfig &c) {
             // Zeroing the victim's IPI activity is not possible from
             // config, so approximate by muting the IPI handlers.
             c.machine.handlerCosts.setParams(
                 sim::InterruptKind::ReschedIpi, {1, 0.01});
             c.machine.handlerCosts.setParams(
                 sim::InterruptKind::TlbShootdown, {1, 0.01});
             c.machine.handlerCosts.contextSwitchNs = 1500;
         }},
        {"- DVFS signal",
         [](core::CollectionConfig &c) {
             c.machine.frequencyScaling = false;
         }},
        {"- tick work modulation",
         [](core::CollectionConfig &c) {
             c.machine.handlerCosts.setParams(
                 sim::InterruptKind::SoftirqTimer, {1, 0.01});
             c.machine.handlerCosts.setParams(
                 sim::InterruptKind::IrqWork, {1, 0.01});
         }},
    };

    // Deletions accumulate; each step changes the machine, so each
    // config collects on its own.
    std::vector<core::CollectionConfig> configs;
    core::CollectionConfig config = base;
    for (const auto &step : steps) {
        step.apply(config);
        configs.push_back(config);
    }
    auto channels = core::runFingerprintingShared(configs, kLoop, pipeline);
    if (!channels.isOk())
        return channels.status();
    Table table({"model (cumulative deletions)", "top-1", "delta"});
    double prev = -1.0;
    for (std::size_t s = 0; s < configs.size(); ++s) {
        const core::FingerprintResult &result = channels.value()[s][0];
        artifact.addResult("channel_step" + std::to_string(s), result);
        const double acc = result.closedWorld.top1Mean;
        table.addRow({steps[s].name, formatPercent(acc),
                      prev < 0 ? std::string("-")
                               : formatDouble((acc - prev) * 100.0, 1)});
        prev = acc;
        std::printf("finished: %s\n", steps[s].name);
    }
    std::printf("\nLEAKAGE-CHANNEL ABLATION (chance = %.1f%%)\n%s",
                100.0 / scale.sites, table.render().c_str());

    // Classifier ablation on the unmodified attack.
    Table clf({"classifier", "top-1"});
    struct ClfRow
    {
        const char *name;
        ml::ClassifierFactory factory;
    };
    const ClfRow classifiers[] = {
        {"cnn-lstm (paper architecture)",
         core::classifierForScale(scale)},
        {"softmax regression", ml::softmaxRegressionFactory()},
        {"kNN (k=5)", ml::knnFactory(5)},
    };
    int clf_index = 0;
    for (const auto &row : classifiers) {
        auto p = pipeline;
        p.factory = row.factory;
        auto acc = accuracy(base, p, artifact,
                            "classifier" + std::to_string(clf_index++));
        if (!acc.isOk())
            return acc.status();
        clf.addRow({row.name, formatPercent(acc.value())});
        std::printf("finished classifier: %s\n", row.name);
    }
    std::printf("\nCLASSIFIER ABLATION\n%s", clf.render().c_str());

    // Feature-length ablation.
    Table feat({"feature length", "top-1"});
    for (std::size_t len : {64u, 128u, 256u, 512u}) {
        auto p = pipeline;
        p.featureLen = len;
        auto acc = accuracy(base, p, artifact,
                            "features" + std::to_string(len));
        if (!acc.isOk())
            return acc.status();
        feat.addRow({std::to_string(len), formatPercent(acc.value())});
        std::printf("finished feature length: %zu\n", len);
    }
    std::printf("\nFEATURE-LENGTH ABLATION\n%s", feat.render().c_str());
    return artifact;
}

} // namespace

void
registerAblationSignalSources(core::ExperimentRegistry &registry)
{
    core::ExperimentDescriptor d;
    d.name = "ablation_signal_sources";
    d.title = "per-channel leakage contributions";
    d.paperReference = "DESIGN.md ablations (not a paper table)";
    d.schema = core::commonScaleSchema();
    d.run = run;
    registry.add(std::move(d));
}

} // namespace bigfish::bench
