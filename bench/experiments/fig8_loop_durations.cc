/**
 * @file
 * Figure 8: the distribution of the *real* duration of one 5 ms
 * attacker measurement period under each secure timer.
 *
 * Expected shape (paper):
 *  (a) quantized 100 ms — the attacker cannot end a 5 ms period until
 *      the observed clock steps, so durations cluster at ~100 ms;
 *  (b) jittered 0.1 ms — durations spread roughly 4.8-5.2 ms around P;
 *  (c) randomized — durations spread across 0-100 ms: the attacker can
 *      no longer measure throughput over a known interval.
 */

#include <cstdio>
#include <vector>

#include "experiments.hh"
#include "stats/descriptive.hh"
#include "stats/histogram.hh"
#include "web/catalog.hh"

namespace bigfish::bench {

namespace {

/** Measures period durations under @p spec; returns the median (ms). */
Result<double>
durationsUnder(const char *title, const timers::TimerSpec &spec,
               std::uint64_t seed, int runs, double hist_lo,
               double hist_hi)
{
    core::CollectionConfig config;
    config.browser = web::BrowserProfile::nativePython();
    config.timerOverride = spec;
    config.period = 5 * kMsec;
    config.seed = seed;
    const core::TraceCollector collector(config);

    std::vector<double> durations_ms;
    for (int run_index = 0; run_index < runs; ++run_index) {
        auto trace = collector.collectOne(attack::AttackerKind::LoopCounting,
                                          web::nytimesSignature(0),
                                          run_index);
        if (!trace.isOk())
            return trace.status();
        for (TimeNs w : trace.value().wallTimes)
            durations_ms.push_back(static_cast<double>(w) / kMsec);
    }

    stats::Histogram hist(hist_lo, hist_hi, 20);
    hist.addAll(durations_ms);
    const double median = stats::quantile(durations_ms, 0.5);
    std::printf("%s\n", title);
    std::printf("  %zu periods, median %.2f ms, p5 %.2f ms, p95 %.2f ms\n",
                durations_ms.size(), median,
                stats::quantile(durations_ms, 0.05),
                stats::quantile(durations_ms, 0.95));
    std::printf("%s\n", hist.render(" ms", 40).c_str());
    return median;
}

Result<core::RunArtifact>
run(const core::RunContext &ctx)
{
    const auto scale = core::scaleFromSpec(ctx.spec);
    auto artifact = core::makeArtifact(ctx);
    const int runs = static_cast<int>(ctx.spec.getInt("runs"));
    std::printf("\n");

    auto quantized = durationsUnder(
        "(a) quantized timer, A = 100 ms (Tor)",
        timers::TimerSpec::quantized(100 * kMsec), scale.seed, runs,
        90.0, 110.0);
    if (!quantized.isOk())
        return quantized.status();
    artifact.addMetric("quantized_median_ms", quantized.value());

    auto jittered = durationsUnder(
        "(b) jittered timer, A = 0.1 ms (Chrome)",
        timers::TimerSpec::jittered(100 * kUsec), scale.seed, runs, 4.5,
        5.5);
    if (!jittered.isOk())
        return jittered.status();
    artifact.addMetric("jittered_median_ms", jittered.value());

    auto randomized = durationsUnder(
        "(c) randomized timer (ours)",
        timers::TimerSpec::randomizedDefense(), scale.seed, runs, 0.0,
        100.0);
    if (!randomized.isOk())
        return randomized.status();
    artifact.addMetric("randomized_median_ms", randomized.value());
    return artifact;
}

} // namespace

void
registerFig8LoopDurations(core::ExperimentRegistry &registry)
{
    core::ExperimentDescriptor d;
    d.name = "fig8_loop_durations";
    d.title = "one 5 ms attacker loop under secure timers";
    d.paperReference =
        "Figure 8 (quantized ~100 ms; jittered ~4.8-5.2 ms; randomized "
        "0-100 ms)";
    d.schema = core::commonScaleSchema();
    d.schema.addInt("runs", 3, 1, 10000,
                    "traces per timer variant");
    d.expected = {
        {"quantized_median_ms", 100.0},
        {"jittered_median_ms", 5.0},
    };
    d.smokeOverrides = {{"runs", "2"}};
    d.run = run;
    registry.add(std::move(d));
}

} // namespace bigfish::bench
