/**
 * @file
 * Figure 6: distributions of user-space execution gap lengths per
 * interrupt type, measured over many page loads.
 *
 * Expected shape (paper, Section 5.3): every gap exceeds ~1.5 us
 * (Meltdown-era context-switch overhead); each type has a
 * characteristic distribution; softirq and IRQ-work gaps include the
 * timer tick they piggyback on, so the IRQ-work mode lines up with a
 * late timer-interrupt mode (~5.5 us in the paper).
 */

#include <algorithm>
#include <cstdio>

#include "experiments.hh"
#include "ktrace/attribution.hh"
#include "stats/descriptive.hh"
#include "stats/histogram.hh"
#include "web/catalog.hh"

namespace bigfish::bench {

namespace {

Result<core::RunArtifact>
run(const core::RunContext &ctx)
{
    const auto scale = core::scaleFromSpec(ctx.spec);
    auto artifact = core::makeArtifact(ctx);

    // Paper: a core that does not receive network IRQs or IRQ work is
    // used for most series; we keep the spread policy so network RX and
    // IRQ work are also observable, as in the figure.
    core::CollectionConfig config;
    config.machine.pinnedCores = true;
    config.browser = web::BrowserProfile::nativeRust();
    config.seed = scale.seed;
    const core::TraceCollector collector(config);

    const web::SiteCatalog catalog(std::max(scale.sites, 10), 7);
    const int loads = static_cast<int>(ctx.spec.getInt("loads"));

    std::vector<ktrace::AttributedGap> all_gaps;
    for (int load = 0; load < loads; ++load) {
        const auto &site = catalog.site(load % 10);
        const auto timeline =
            collector.synthesizeTimeline(site, 1000 + load);
        const auto gaps = ktrace::attributeGaps(
            ktrace::GapDetector().detect(timeline),
            ktrace::KernelTracer().record(timeline));
        all_gaps.insert(all_gaps.end(), gaps.begin(), gaps.end());
    }

    const sim::InterruptKind kinds[] = {
        sim::InterruptKind::SoftirqNetRx,
        sim::InterruptKind::TimerTick,
        sim::InterruptKind::IrqWork,
        sim::InterruptKind::NetworkRx,
        sim::InterruptKind::ReschedIpi,
        sim::InterruptKind::TlbShootdown,
    };

    double min_gap_us = 1e18;
    for (const auto kind : kinds) {
        auto lengths = ktrace::gapLengthsForKind(all_gaps, kind);
        if (lengths.empty()) {
            std::printf("%s: no samples\n\n",
                        sim::interruptKindName(kind).c_str());
            continue;
        }
        for (double &v : lengths) {
            v /= 1000.0; // ns -> us
            min_gap_us = std::min(min_gap_us, v);
        }
        stats::Histogram hist(0.0, 10.0, 20);
        hist.addAll(lengths);
        const double median = stats::quantile(lengths, 0.5);
        std::printf("%s  (%zu gaps, median %.1f us, mode bin %.2f us)\n",
                    sim::interruptKindName(kind).c_str(), lengths.size(),
                    median, hist.binCenter(hist.modeBin()));
        std::printf("%s\n", hist.render(" us", 46).c_str());
        artifact.addMetric(sim::interruptKindName(kind) +
                               "_median_gap_us",
                           median);
    }

    std::printf("minimum observed gap: %.2f us "
                "(paper: all gaps > 1.5 us)\n", min_gap_us);
    std::printf("note: softirq/IRQ-work gaps include the timer tick they "
                "piggyback on,\nso their distributions sit above the "
                "resched-IPI distribution.\n");
    artifact.addMetric("min_gap_us", min_gap_us);
    return artifact;
}

} // namespace

void
registerFig6GapDistributions(core::ExperimentRegistry &registry)
{
    core::ExperimentDescriptor d;
    d.name = "fig6_gap_distributions";
    d.title = "gap lengths per interrupt type";
    d.paperReference = "Figure 6 (50 loads over 10 sites; gaps > 1.5 us)";
    d.schema = core::commonScaleSchema();
    d.schema.addInt("loads", 50, 1, 1000000,
                    "page loads to aggregate gaps over");
    d.expected = {
        {"min_gap_us", 1.5},
    };
    d.smokeOverrides = {{"loads", "6"}};
    d.run = run;
    registry.add(std::move(d));
}

} // namespace bigfish::bench
