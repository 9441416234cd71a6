/**
 * @file
 * Figure 3: example loop-counting traces for nytimes.com, amazon.com and
 * weather.com, collected over 15 seconds with P = 5 ms in Chrome.
 *
 * The paper renders traces as shaded strips (darker = smaller counter =
 * more interrupt activity); this experiment renders the same strips in
 * ASCII and reports the counter range, which the paper gives as roughly
 * 21,000-27,000 iterations.
 */

#include <algorithm>
#include <cstdio>

#include "experiments.hh"
#include "stats/descriptive.hh"
#include "web/catalog.hh"

namespace bigfish::bench {

namespace {

/** Renders a trace as an ASCII density strip (dark = low count). */
void
renderStrip(const attack::Trace &trace, int width)
{
    static const char shades[] = " .:-=+*#%@";
    const auto norm = stats::downsample(trace.normalized(),
                                        static_cast<std::size_t>(width));
    const double lo = stats::minValue(norm);
    const double hi = stats::maxValue(norm);
    std::printf("  |");
    for (double v : norm) {
        // Invert: darker (higher index) = lower counter value.
        const double darkness = hi > lo ? (hi - v) / (hi - lo) : 0.0;
        const int idx = std::min(9, static_cast<int>(darkness * 10.0));
        std::printf("%c", shades[idx]);
    }
    std::printf("|\n");
}

Result<core::RunArtifact>
run(const core::RunContext &ctx)
{
    const auto scale = core::scaleFromSpec(ctx.spec);
    auto artifact = core::makeArtifact(ctx);

    core::CollectionConfig config;
    config.machine = sim::MachineConfig::linuxDesktop();
    config.browser = web::BrowserProfile::chrome();
    config.seed = scale.seed;
    const core::TraceCollector collector(config);

    std::printf("\npaper: counter values range from ~21,000 to ~27,000;\n"
                "darker shades = smaller counter = interrupt-heavy spans.\n"
                "time axis: 0 .. 15 s\n\n");

    for (const auto &site : web::SiteCatalog::exampleSites()) {
        auto trace =
            collector.collectOne(attack::AttackerKind::LoopCounting, site, 0);
        if (!trace.isOk())
            return trace.status();
        std::printf("%s\n", site.name.c_str());
        for (int row = 0; row < 3; ++row) {
            auto strip = collector.collectOne(
                attack::AttackerKind::LoopCounting, site, row);
            if (!strip.isOk())
                return strip.status();
            renderStrip(strip.value(), 100);
        }
        std::printf("  counter: min %.0f  mean %.0f  max %.0f  "
                    "(%zu periods)\n\n",
                    stats::minValue(trace.value().counts),
                    stats::mean(trace.value().counts),
                    trace.value().maxCount(), trace.value().size());
        artifact.addMetric(site.name + "_counter_mean",
                           stats::mean(trace.value().counts));
        artifact.addMetric(site.name + "_counter_max",
                           trace.value().maxCount());
    }

    std::printf("expected shape: nytimes dark in the first ~4 s;\n"
                "amazon dark for ~2 s with spikes near 5 s and 10 s;\n"
                "weather shows recurring dark bands from periodic "
                "activity.\n");
    return artifact;
}

} // namespace

void
registerFig3Traces(core::ExperimentRegistry &registry)
{
    core::ExperimentDescriptor d;
    d.name = "fig3_traces";
    d.title = "example loop-counting traces";
    d.paperReference =
        "Figure 3 (three 15 s traces, P = 5 ms, Chrome on Linux)";
    d.schema = core::commonScaleSchema();
    d.run = run;
    registry.add(std::move(d));
}

} // namespace bigfish::bench
