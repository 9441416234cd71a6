/**
 * @file
 * Full website-fingerprinting scenario (the paper's Section 4 pipeline):
 * closed world + open world, loop-counting vs sweep-counting, with a
 * per-site classification report.
 *
 * Usage:
 *   website_fingerprint [sites] [traces_per_site] [open_world_extra]
 *
 * Defaults are small (12 x 12 + 36) so the example finishes in well
 * under a minute on one core.
 */

#include <cstdio>
#include <cstdlib>

#include "core/collector.hh"
#include "core/pipeline.hh"
#include "stats/confusion.hh"
#include "web/catalog.hh"

using namespace bigfish;

namespace {

/** Trains on a fixed split and prints the per-site recall report. */
void
perSiteReport(const core::CollectionConfig &config,
              const web::SiteCatalog &catalog, int traces_per_site,
              std::size_t feature_len)
{
    const core::TraceCollector collector(config);
    const attack::AttackerKind loop[] = {attack::AttackerKind::LoopCounting};
    const auto set =
        collector.collectClosedWorldMulti(catalog, traces_per_site, loop)
            .valueOrDie()[0];
    const auto data =
        core::toDataset(set, feature_len, catalog.size());

    // 75/10/15 split by trace index (run index varies within a site).
    ml::Dataset train, val, test;
    train.numClasses = val.numClasses = test.numClasses = data.numClasses;
    for (std::size_t i = 0; i < data.size(); ++i) {
        const int run = static_cast<int>(i) % traces_per_site;
        if (run < traces_per_site * 3 / 4)
            train.add(data.features[i], data.labels[i]);
        else if (run < traces_per_site * 17 / 20)
            val.add(data.features[i], data.labels[i]);
        else
            test.add(data.features[i], data.labels[i]);
    }

    auto model = ml::cnnLstmFactory(ml::CnnLstmParams::traceDefaults())(
        data.numClasses, data.featureLen(), 99);
    model->fit(train, val);

    stats::ConfusionMatrix confusion(catalog.size());
    for (std::size_t i = 0; i < test.size(); ++i)
        confusion.add(test.labels[i], model->predict(test.features[i]));

    std::printf("\nper-site recall on the held-out runs:\n");
    for (SiteId id = 0; id < catalog.size(); ++id) {
        std::printf("  %-22s %5.1f%%\n", catalog.site(id).name.c_str(),
                    confusion.recall(id) * 100.0);
    }
    std::printf("overall: %.1f%% (chance %.1f%%)\n",
                confusion.accuracy() * 100.0, 100.0 / catalog.size());
}

} // namespace

int
main(int argc, char **argv)
{
    const int sites = argc > 1 ? std::atoi(argv[1]) : 12;
    const int traces = argc > 2 ? std::atoi(argv[2]) : 12;
    const int open_extra = argc > 3 ? std::atoi(argv[3]) : 36;

    core::CollectionConfig config;
    config.machine = sim::MachineConfig::linuxDesktop();
    config.browser = web::BrowserProfile::chrome();
    config.seed = 1234;

    core::PipelineConfig pipeline;
    pipeline.numSites = sites;
    pipeline.tracesPerSite = traces;
    pipeline.openWorldExtra = open_extra;
    pipeline.featureLen = 256;
    pipeline.eval.folds = 4;

    std::printf("closed world: %d sites x %d traces; open world: +%d "
                "one-off traces\n", sites, traces, open_extra);

    // Loop-counting attack (this paper).
    const attack::AttackerKind loop_kind[] = {
        attack::AttackerKind::LoopCounting};
    const auto loop =
        core::runFingerprintingShared(config, loop_kind, pipeline)
            .valueOrDie()[0];
    std::printf("\nloop-counting attack:\n");
    std::printf("  closed world: top-1 %.1f%%  top-%d %.1f%%\n",
                loop.closedWorld.top1Mean * 100.0,
                loop.closedWorld.topK,
                loop.closedWorld.topKMean * 100.0);
    std::printf("  open world:   sensitive %.1f%%  non-sensitive %.1f%%  "
                "combined %.1f%%\n",
                loop.openWorld.openWorld.sensitiveAccuracy * 100.0,
                loop.openWorld.openWorld.nonSensitiveAccuracy * 100.0,
                loop.openWorld.openWorld.combinedAccuracy * 100.0);

    // Sweep-counting baseline (Shusterman et al.).
    const attack::AttackerKind sweep_kind[] = {
        attack::AttackerKind::SweepCounting};
    auto sweep_pipeline = pipeline;
    sweep_pipeline.openWorldExtra = 0;
    const auto sweep =
        core::runFingerprintingShared(config, sweep_kind, sweep_pipeline)
            .valueOrDie()[0];
    std::printf("\nsweep-counting (cache-occupancy) baseline:\n");
    std::printf("  closed world: top-1 %.1f%%  top-%d %.1f%%\n",
                sweep.closedWorld.top1Mean * 100.0,
                sweep.closedWorld.topK,
                sweep.closedWorld.topKMean * 100.0);

    // Per-site report for the loop attack.
    const web::SiteCatalog catalog(sites, pipeline.catalogSeed);
    perSiteReport(config, catalog, traces, pipeline.featureLen);
    return 0;
}
