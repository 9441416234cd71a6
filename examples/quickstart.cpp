/**
 * @file
 * Quickstart: collect loop-counting traces for three example websites
 * and classify them with the CNN-LSTM model.
 *
 * This walks the library's three core steps in ~60 lines:
 *   1. Describe the attack setup (machine + browser + attacker).
 *   2. Collect labeled traces while the simulated victim loads sites.
 *   3. Train/evaluate the classifier with cross-validation.
 */

#include <cstdio>

#include "core/collector.hh"
#include "core/pipeline.hh"
#include "stats/descriptive.hh"
#include "web/catalog.hh"

using namespace bigfish;

int
main()
{
    // 1. Attack setup: a 4-core Linux desktop, Chrome's jittered 0.1 ms
    //    timer with P = 5 ms, and the loop-counting attacker.
    core::CollectionConfig config;
    config.machine = sim::MachineConfig::linuxDesktop();
    config.browser = web::BrowserProfile::chrome();
    config.seed = 2022;
    const attack::AttackerKind loop[] = {attack::AttackerKind::LoopCounting};

    const core::TraceCollector collector(config);

    // 2. Collect a few traces of the paper's three running examples.
    const auto sites = web::SiteCatalog::exampleSites();
    std::printf("Collecting example traces (15 s victim page loads)...\n");
    for (const auto &site : sites) {
        const attack::Trace trace =
            collector.collectOne(loop[0], site, 0).valueOrDie();
        std::printf(
            "  %-14s %4zu periods   counter: min %7.0f  mean %7.0f  "
            "max %7.0f\n",
            site.name.c_str(), trace.size(),
            stats::minValue(trace.counts), stats::mean(trace.counts),
            trace.maxCount());
    }

    // 3. Fingerprint a small closed world end to end.
    core::PipelineConfig pipeline;
    pipeline.numSites = 8;
    pipeline.tracesPerSite = 12;
    pipeline.featureLen = 256;
    pipeline.eval.folds = 4;
    pipeline.eval.seed = 7;

    std::printf("\nTraining the CNN-LSTM on %d sites x %d traces...\n",
                pipeline.numSites, pipeline.tracesPerSite);
    const auto result =
        core::runFingerprintingShared(config, loop, pipeline).valueOrDie()[0];
    std::printf("closed-world accuracy: top-1 %.1f%%  top-%d %.1f%%\n",
                result.closedWorld.top1Mean * 100.0,
                result.closedWorld.topK,
                result.closedWorld.topKMean * 100.0);
    std::printf("(chance would be %.1f%%)\n", 100.0 / pipeline.numSites);
    return 0;
}
