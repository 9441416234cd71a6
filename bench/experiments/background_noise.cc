/**
 * @file
 * Section 4.2: robustness of the loop-counting attack to realistic
 * background noise — Slack plus Spotify playing music next to the
 * victim browser.
 *
 * Expected shape (paper): accuracy drops only from 96.6% to 93.4%;
 * the attack does not depend on a quiet machine.
 */

#include <cstdio>

#include "core/presets.hh"
#include "experiments.hh"

namespace bigfish::bench {

namespace {

Result<core::RunArtifact>
run(const core::RunContext &ctx)
{
    const auto scale = core::scaleFromSpec(ctx.spec);
    auto artifact = core::makeArtifact(ctx);
    const auto pipeline = core::pipelineForScale(scale);

    const core::CollectionConfig configs[] = {
        core::collectionForScale(
            scale, core::presets::table2Condition("background")),
        core::collectionForScale(scale,
                                 core::presets::table2Condition("none"))};
    const attack::AttackerKind loop[] = {attack::AttackerKind::LoopCounting};
    auto results = core::runFingerprintingShared(configs, loop, pipeline);
    if (!results.isOk())
        return results.status();
    const core::FingerprintResult &bg = results.value()[0][0];
    const core::FingerprintResult &qt = results.value()[1][0];
    artifact.addResult("loop-counting_background", bg);
    artifact.addResult("loop-counting_quiet", qt);

    std::printf("\nbackground noise (Slack + Spotify playing music):\n");
    std::printf("  paper:    96.6%% -> 93.4%%\n");
    std::printf("  measured: %.1f%% -> %.1f%%\n",
                qt.closedWorld.top1Mean * 100.0,
                bg.closedWorld.top1Mean * 100.0);
    std::printf("\nexpected shape: background apps cost only a few "
                "points.\n");
    return artifact;
}

} // namespace

void
registerBackgroundNoise(core::ExperimentRegistry &registry)
{
    core::ExperimentDescriptor d;
    d.name = "background_noise";
    d.title = "loop-counting accuracy with Slack + Spotify running";
    d.paperReference = "Section 4.2 (Chrome on Linux, closed world)";
    d.schema = core::commonScaleSchema();
    d.expected = {
        {"loop-counting_quiet_top1", 0.966},
        {"loop-counting_background_top1", 0.934},
    };
    d.run = run;
    registry.add(std::move(d));
}

} // namespace bigfish::bench
