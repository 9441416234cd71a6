/**
 * @file
 * Table 3: the Python loop-counting attacker under incrementally
 * stronger isolation mechanisms.
 *
 * Each configuration inherits all previous mechanisms:
 *   default -> +disable frequency scaling -> +pin to separate cores
 *   -> +remove (movable) IRQ interrupts -> +run in separate VMs.
 *
 * Expected shape (paper): 95.2 / 94.2 / 94.0 / 88.2 / 91.6 top-1 —
 * small dips for DVFS and pinning, a visible dip when movable IRQs
 * leave, and a *rise* under VM isolation (interrupt amplification).
 */

#include <cstdio>
#include <iterator>

#include "base/table.hh"
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

    // Mechanisms accumulate: level s is core::presets::table3Isolation(s).
    const char *steps[] = {
        "default",
        "+ disable frequency scaling",
        "+ pin to separate cores",
        "+ remove IRQ interrupts",
        "+ run in separate VMs",
    };

    const auto expected = [&ctx](const std::string &metric) {
        return formatPercent(
            ctx.descriptor->expectedValue(metric).value_or(0.0));
    };
    Table table({"isolation mechanism", "top-1 paper", "top-1 meas",
                 "top-5 paper", "top-5 meas"});
    // Each step changes the machine, so each config collects on its own.
    std::vector<core::CollectionConfig> configs;
    for (int level = 0; level < static_cast<int>(std::size(steps)); ++level)
        configs.push_back(core::collectionForScale(
            scale, core::presets::table3Isolation(level)));
    const attack::AttackerKind loop[] = {attack::AttackerKind::LoopCounting};
    auto results = core::runFingerprintingShared(configs, loop, pipeline);
    if (!results.isOk())
        return results.status();
    for (std::size_t s = 0; s < configs.size(); ++s) {
        const core::FingerprintResult &result = results.value()[s][0];
        const std::string label = "isolation_step" + std::to_string(s);
        artifact.addResult(label, result);
        table.addRow({steps[s], expected(label + "_top1"),
                      formatPercentPm(result.closedWorld.top1Mean,
                                      result.closedWorld.top1Std),
                      expected(label + "_top5"),
                      formatPercent(result.closedWorld.topKMean)});
        std::printf("finished: %s\n", steps[s]);
    }

    std::printf("\n%s", table.render().c_str());
    std::printf("\nexpected shape: small dips from DVFS/pinning; a clear "
                "dip when movable IRQs\nare removed; accuracy *recovers* "
                "under VM isolation (handler amplification).\n"
                "Takeaway 3: no isolation mechanism stops the attack.\n");
    return artifact;
}

} // namespace

void
registerTable3Isolation(core::ExperimentRegistry &registry)
{
    core::ExperimentDescriptor d;
    d.name = "table3_isolation";
    d.title = "isolation mechanisms vs the Python attacker";
    d.paperReference = "Table 3 (incremental isolation; top-1/top-5)";
    d.schema = core::commonScaleSchema();
    d.expected = {
        {"isolation_step0_top1", 0.952}, {"isolation_step0_top5", 0.991},
        {"isolation_step1_top1", 0.942}, {"isolation_step1_top5", 0.986},
        {"isolation_step2_top1", 0.940}, {"isolation_step2_top5", 0.983},
        {"isolation_step3_top1", 0.882}, {"isolation_step3_top5", 0.973},
        {"isolation_step4_top1", 0.916}, {"isolation_step4_top5", 0.973},
    };
    d.run = run;
    registry.add(std::move(d));
}

} // namespace bigfish::bench
