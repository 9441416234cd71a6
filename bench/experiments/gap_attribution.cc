/**
 * @file
 * Section 5.2: the fraction of user-space execution gaps >100 ns
 * attributable to interrupts — the paper's evidence that interrupts,
 * not cache contention, carry the side channel.
 *
 * Expected shape (paper): over 99% of gaps line up with an interrupt
 * recorded by the eBPF tracer.
 */

#include <cstdio>

#include "experiments.hh"
#include "ktrace/attribution.hh"
#include "web/catalog.hh"

namespace bigfish::bench {

namespace {

Result<core::RunArtifact>
run(const core::RunContext &ctx)
{
    const auto scale = core::scaleFromSpec(ctx.spec);
    auto artifact = core::makeArtifact(ctx);

    // Same setup as fig5_interrupt_time: IRQs pinned away, attacker
    // pinned, native Rust victim.
    core::CollectionConfig config;
    config.machine.routing = sim::IrqRoutingPolicy::PinnedAway;
    config.machine.pinnedCores = true;
    config.browser = web::BrowserProfile::nativeRust();
    config.seed = scale.seed;
    const core::TraceCollector collector(config);

    int runs = static_cast<int>(ctx.spec.getInt("runs"));
    if (runs == 0)
        runs = scale.tracesPerSite >= 100 ? 100 : 25;

    std::size_t total_gaps = 0, attributed = 0;
    for (const auto &site : web::SiteCatalog::exampleSites()) {
        for (int run_index = 0; run_index < runs; ++run_index) {
            const auto timeline =
                collector.synthesizeTimeline(site, run_index);
            const auto records = ktrace::KernelTracer().record(timeline);
            const auto gap_report =
                ktrace::summarize(ktrace::attributeGaps(
                    ktrace::GapDetector().detect(timeline), records));
            total_gaps += gap_report.totalGaps;
            attributed += gap_report.attributedToInterrupt;
        }
    }

    const double fraction = total_gaps > 0
                                ? static_cast<double>(attributed) /
                                      static_cast<double>(total_gaps)
                                : 0.0;
    std::printf("\ngap attribution (threshold 100 ns, %d runs x 3 "
                "sites):\n", runs);
    std::printf("  paper:    >99%% of gaps caused by interrupts\n");
    std::printf("  measured: %.2f%% of %zu gaps attributed to "
                "interrupts\n", fraction * 100.0, total_gaps);

    artifact.addMetric("interrupt_attribution_fraction", fraction);
    artifact.addMetric("total_gaps", static_cast<double>(total_gaps));
    return artifact;
}

} // namespace

void
registerGapAttribution(core::ExperimentRegistry &registry)
{
    core::ExperimentDescriptor d;
    d.name = "gap_attribution";
    d.title = "share of execution gaps caused by interrupts";
    d.paperReference = "Section 5.2 (>99% of gaps >100 ns)";
    d.schema = core::commonScaleSchema();
    d.schema.addInt("runs", 0, 0, 100000,
                    "runs per site (0 = auto: 100 at paper scale, "
                    "else 25)");
    d.expected = {
        {"interrupt_attribution_fraction", 0.99},
    };
    d.smokeOverrides = {{"runs", "4"}};
    d.run = run;
    registry.add(std::move(d));
}

} // namespace bigfish::bench
