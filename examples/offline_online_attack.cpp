/**
 * @file
 * The paper's two-phase attack workflow as two decoupled stages:
 *
 *   offline phase — collect labeled traces on an attacker-controlled
 *   machine, persist them, train the classifier, persist the weights;
 *
 *   online phase  — reload the weights into a freshly constructed model
 *   and classify new "victim" traces it has never seen.
 *
 * Both halves persist through one stage cache (core/stage_cache.hh),
 * the store behind `bigfish run --cache-dir`: every collected (site,
 * run) cell is a "cell" entry, and the trained weights are a "model"
 * entry in the ml/serialize.hh codec. A second collector on the same
 * configuration must replay every cell from the cache; the example
 * exits non-zero if any cell had to be recollected.
 *
 * Usage:
 *   offline_online_attack [work_dir]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "base/logging.hh"
#include "core/collector.hh"
#include "core/pipeline.hh"
#include "core/stage_cache.hh"
#include "ml/serialize.hh"
#include "web/catalog.hh"

using namespace bigfish;

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : "/tmp";

    const int sites = 8;
    const int traces_per_site = 14;
    const std::size_t feature_len = 256;

    core::CollectionConfig config;
    config.browser = web::BrowserProfile::chrome();
    config.seed = 777;
    const web::SiteCatalog catalog(sites, 7);
    const attack::AttackerKind loop[] = {attack::AttackerKind::LoopCounting};
    const std::uint64_t fingerprint =
        core::collectionFingerprint(config, 7, sites, 0, loop);
    auto cache = core::StageCache::open(dir + "/bigfish_cache").valueOrDie();

    // ---- Offline phase -------------------------------------------------
    std::printf("[offline] collecting %d x %d traces...\n", sites,
                traces_per_site);
    core::TraceCollector collector(config);
    collector.setCache(&cache, fingerprint);
    const auto trainset =
        collector.collectClosedWorldMulti(catalog, traces_per_site, loop)
            .valueOrDie()[0];
    std::printf("[offline] saved %zu traces to %s\n", trainset.size(),
                cache.dir().c_str());

    // Reload from disk: a second collector on the same configuration
    // replays every cell from the cache (proving training runs off the
    // persisted traces) instead of simulating it again.
    core::TraceCollector reloader(config);
    reloader.setCache(&cache, fingerprint);
    const std::size_t hits_before = cache.stats().hits;
    const auto reloaded =
        reloader.collectClosedWorldMulti(catalog, traces_per_site, loop)
            .valueOrDie()[0];
    const std::size_t replayed = cache.stats().hits - hits_before;
    const std::size_t cells =
        static_cast<std::size_t>(sites) * traces_per_site;
    std::printf("[offline] replayed %zu/%zu cells from the cache\n",
                replayed, cells);
    if (replayed != cells)
        return EXIT_FAILURE;
    const auto data = core::toDataset(reloaded, feature_len, sites);

    ml::CnnLstmParams params = ml::CnnLstmParams::traceDefaults();
    ml::CnnLstmClassifier model(sites, data.featureLen(), params, 42);
    std::printf("[offline] training on reloaded traces...\n");
    model.fit(data, data);
    // The model is a pure function of the collected cells (features,
    // parameters and seed are fixed above), so it shares their key.
    const Status stored =
        cache.put("model", fingerprint, ml::encodeWeights(model.network()));
    fatalIf(!stored.isOk(), stored.toString());
    std::printf("[offline] saved weights (%zu parameters) to %s\n",
                model.network().numParameters(),
                cache.entryPath("model", fingerprint).c_str());

    // ---- Online phase --------------------------------------------------
    // A fresh process would construct the same architecture and load the
    // weights; we simulate that with a second model instance seeded
    // differently (so its random init is provably overwritten).
    ml::CnnLstmClassifier online(sites, data.featureLen(), params, 999);
    const auto weights = cache.lookup("model", fingerprint);
    fatalIf(!weights, "model entry missing from " + cache.dir());
    const Status loaded = ml::decodeWeights(*weights, online.network());
    fatalIf(!loaded.isOk(), loaded.toString());

    std::printf("[online] classifying 3 fresh victim page loads:\n");
    int hits = 0, total = 0;
    for (SiteId id = 0; id < sites; id += 3) {
        // Run indices beyond the training range = unseen loads.
        const auto victim_trace =
            collector
                .collectOne(attack::AttackerKind::LoopCounting,
                            catalog.site(id), traces_per_site + 5)
                .valueOrDie();
        attack::TraceSet one;
        one.add(victim_trace);
        const auto features = core::toDataset(one, feature_len, sites);
        const Label predicted = online.predict(features.features[0]);
        std::printf("  victim loaded %-20s -> predicted %s\n",
                    catalog.site(id).name.c_str(),
                    catalog.site(predicted).name.c_str());
        ++total;
        if (predicted == id)
            ++hits;
    }
    std::printf("[online] %d/%d correct\n", hits, total);
    return 0;
}
