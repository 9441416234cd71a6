/**
 * @file
 * Figure 4: normalized traces averaged over many runs, collected with
 * the loop-counting and sweep-counting attackers on the same sites.
 *
 * The paper reports Pearson correlations between the two attackers'
 * averaged traces of r = 0.87 (nytimes.com), 0.79 (amazon.com) and
 * 0.94 (weather.com) — evidence that both attackers are shaped by the
 * same system events. We reproduce the same averaging and correlation.
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "base/table.hh"
#include "experiments.hh"
#include "stats/descriptive.hh"
#include "web/catalog.hh"

namespace bigfish::bench {

namespace {

Result<core::RunArtifact>
run(const core::RunContext &ctx)
{
    const auto scale = core::scaleFromSpec(ctx.spec);
    auto artifact = core::makeArtifact(ctx);

    // The paper averages 100 runs; 0 = auto (100 at paper scale, 30
    // otherwise — the old binary's behavior).
    int runs = static_cast<int>(ctx.spec.getInt("runs"));
    if (runs == 0)
        runs = scale.tracesPerSite >= 100 ? 100 : 30;

    core::CollectionConfig config;
    config.seed = scale.seed;
    const core::TraceCollector collector(config);

    Table table({"website", "runs", "paper r", "measured r", "loop max",
                 "sweep max"});
    for (const auto &site : web::SiteCatalog::exampleSites()) {
        std::vector<std::vector<double>> loop_runs, sweep_runs;
        double loop_max = 0.0, sweep_max = 0.0;
        for (int run_index = 0; run_index < runs; ++run_index) {
            auto loop = collector.collectOne(
                attack::AttackerKind::LoopCounting, site, run_index);
            if (!loop.isOk())
                return loop.status();
            auto sweep = collector.collectOne(
                attack::AttackerKind::SweepCounting, site, run_index);
            if (!sweep.isOk())
                return sweep.status();
            loop_runs.push_back(
                stats::downsample(loop.value().normalized(), 300));
            sweep_runs.push_back(
                stats::downsample(sweep.value().normalized(), 300));
            loop_max = std::max(loop_max, loop.value().maxCount());
            sweep_max = std::max(sweep_max, sweep.value().maxCount());
        }
        const double r =
            stats::pearson(stats::elementwiseMean(loop_runs),
                           stats::elementwiseMean(sweep_runs));
        artifact.addMetric(site.name + "_pearson_r", r);
        const auto paper_r =
            ctx.descriptor->expectedValue(site.name + "_pearson_r");
        table.addRow({site.name, std::to_string(runs),
                      paper_r ? formatDouble(*paper_r, 2)
                              : std::string("-"),
                      formatDouble(r, 2), formatDouble(loop_max, 0),
                      formatDouble(sweep_max, 0)});
    }
    std::printf("\n%s\n", table.render().c_str());
    std::printf("paper context: maximum counts were ~27,000 iterations for "
                "the loop attacker\nand ~32 sweeps for the sweep attacker; "
                "averaged traces are strongly correlated.\n");
    return artifact;
}

} // namespace

void
registerFig4Correlation(core::ExperimentRegistry &registry)
{
    core::ExperimentDescriptor d;
    d.name = "fig4_correlation";
    d.title = "loop-counting vs sweep-counting trace shapes";
    d.paperReference =
        "Figure 4 (averaged normalized traces; r = 0.87/0.79/0.94)";
    d.schema = core::commonScaleSchema();
    d.schema.addInt("runs", 0, 0, 100000,
                    "averaging runs (0 = auto: 100 at paper scale, "
                    "else 30)");
    d.expected = {
        {"nytimes.com_pearson_r", 0.87},
        {"amazon.com_pearson_r", 0.79},
        {"weather.com_pearson_r", 0.94},
    };
    d.smokeOverrides = {{"runs", "4"}};
    d.run = run;
    registry.add(std::move(d));
}

} // namespace bigfish::bench
