/**
 * @file
 * The paper's two-phase attack workflow as two decoupled stages:
 *
 *   offline phase — collect labeled traces on an attacker-controlled
 *   machine, save them to disk, train the classifier, save the weights;
 *
 *   online phase  — reload the weights into a freshly constructed model
 *   and classify new "victim" traces it has never seen.
 *
 * Demonstrates trace CSV persistence (attack/trace_io.hh) and model
 * weight persistence (ml/serialize.hh).
 *
 * Usage:
 *   offline_online_attack [work_dir]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "attack/trace_io.hh"
#include "core/collector.hh"
#include "core/pipeline.hh"
#include "ml/serialize.hh"
#include "web/catalog.hh"

using namespace bigfish;

int
main(int argc, char **argv)
{
    const std::string dir = argc > 1 ? argv[1] : "/tmp";
    const std::string trace_path = dir + "/bigfish_traces.csv";
    const std::string weight_path = dir + "/bigfish_model.txt";

    const int sites = 8;
    const int traces_per_site = 14;
    const std::size_t feature_len = 256;

    core::CollectionConfig config;
    config.browser = web::BrowserProfile::chrome();
    config.seed = 777;
    const web::SiteCatalog catalog(sites, 7);

    // ---- Offline phase -------------------------------------------------
    std::printf("[offline] collecting %d x %d traces...\n", sites,
                traces_per_site);
    const core::TraceCollector collector(config);
    const attack::AttackerKind loop[] = {attack::AttackerKind::LoopCounting};
    const auto trainset =
        collector.collectClosedWorldMulti(catalog, traces_per_site, loop)
            .valueOrDie()[0];
    attack::saveTracesOrDie(trace_path, trainset);
    std::printf("[offline] saved %zu traces to %s\n", trainset.size(),
                trace_path.c_str());

    // Reload from disk (proving the training pipeline runs off CSV).
    const auto reloaded = attack::loadTracesOrDie(trace_path);
    const auto data = core::toDataset(reloaded, feature_len, sites);

    ml::CnnLstmParams params = ml::CnnLstmParams::traceDefaults();
    ml::CnnLstmClassifier model(sites, data.featureLen(), params, 42);
    std::printf("[offline] training on reloaded traces...\n");
    model.fit(data, data);
    ml::saveWeightsOrDie(weight_path, model.network());
    std::printf("[offline] saved weights (%zu parameters) to %s\n",
                model.network().numParameters(), weight_path.c_str());

    // ---- Online phase --------------------------------------------------
    // A fresh process would construct the same architecture and load the
    // weights; we simulate that with a second model instance seeded
    // differently (so its random init is provably overwritten).
    ml::CnnLstmClassifier online(sites, data.featureLen(), params, 999);
    ml::loadWeightsOrDie(weight_path, online.network());

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
