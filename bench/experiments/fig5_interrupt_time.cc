/**
 * @file
 * Figure 5: with movable IRQs pinned away from the attacker's core, the
 * eBPF tracer measures the share of each 100 ms interval spent in
 * interrupt handlers (split softirq vs rescheduling IPI) averaged over
 * many runs of the three example sites — the profile that visually
 * matches the Figure 3 trace strips.
 *
 * The old fig5 binary also computed the Section 5.2 gap-attribution
 * headline; that is now its own registration (gap_attribution).
 */

#include <algorithm>
#include <cstdio>
#include <vector>

#include "experiments.hh"
#include "ktrace/attribution.hh"
#include "stats/descriptive.hh"
#include "web/catalog.hh"

namespace bigfish::bench {

namespace {

void
renderSeries(const char *label, const std::vector<double> &series)
{
    const double peak = stats::maxValue(series);
    std::printf("  %-10s|", label);
    for (double v : series) {
        const int level =
            peak > 0.0 ? std::min(9, static_cast<int>(v / peak * 9.99))
                       : 0;
        std::printf("%c", " .:-=+*#%@"[level]);
    }
    std::printf("| peak %.2f%%\n", peak * 100.0);
}

Result<core::RunArtifact>
run(const core::RunContext &ctx)
{
    const auto scale = core::scaleFromSpec(ctx.spec);
    auto artifact = core::makeArtifact(ctx);

    // Paper setup: irqbalance pins IRQs away; attacker pinned to a core.
    core::CollectionConfig config;
    config.machine.routing = sim::IrqRoutingPolicy::PinnedAway;
    config.machine.pinnedCores = true;
    config.browser = web::BrowserProfile::nativeRust();
    config.seed = scale.seed;
    const core::TraceCollector collector(config);

    int runs = static_cast<int>(ctx.spec.getInt("runs"));
    if (runs == 0)
        runs = scale.tracesPerSite >= 100 ? 100 : 25;

    std::printf("\n%% of each 100 ms interval spent in non-movable "
                "interrupt handlers (averaged over %d runs):\n\n",
                runs);

    for (const auto &site : web::SiteCatalog::exampleSites()) {
        std::vector<std::vector<double>> softirq_runs, resched_runs,
            total_runs;
        for (int run_index = 0; run_index < runs; ++run_index) {
            const auto timeline =
                collector.synthesizeTimeline(site, run_index);
            const auto records = ktrace::KernelTracer().record(timeline);
            const auto profile = ktrace::KernelTracer::profile(
                records, timeline.duration);
            softirq_runs.push_back(profile.softirqFraction);
            resched_runs.push_back(profile.reschedFraction);
            total_runs.push_back(profile.totalFraction);
        }
        std::printf("%s (0 .. 15 s)\n", site.name.c_str());
        renderSeries("softirq", stats::elementwiseMean(softirq_runs));
        renderSeries("resched", stats::elementwiseMean(resched_runs));
        const auto total_mean = stats::elementwiseMean(total_runs);
        renderSeries("total", total_mean);
        artifact.addMetric(site.name + "_total_peak",
                           stats::maxValue(total_mean));
        std::printf("\n");
    }

    std::printf("expected shape: nytimes interrupt time concentrated in "
                "the first ~4 s;\namazon spikes near 5 s and 10 s; "
                "weather shows recurring resched activity.\n");
    return artifact;
}

} // namespace

void
registerFig5InterruptTime(core::ExperimentRegistry &registry)
{
    core::ExperimentDescriptor d;
    d.name = "fig5_interrupt_time";
    d.title = "time spent in interrupt handlers per 100 ms interval";
    d.paperReference = "Figure 5 (softirq vs resched-IPI profiles)";
    d.schema = core::commonScaleSchema();
    d.schema.addInt("runs", 0, 0, 100000,
                    "averaging runs (0 = auto: 100 at paper scale, "
                    "else 25)");
    d.smokeOverrides = {{"runs", "4"}};
    d.run = run;
    registry.add(std::move(d));
}

} // namespace bigfish::bench
