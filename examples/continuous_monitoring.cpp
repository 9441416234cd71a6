/**
 * @file
 * Continuous-monitoring scenario: the victim browses from page to page
 * while the attacker records ONE long trace, then segments it at
 * detected navigations and classifies each visit — the deployment mode
 * a real attacker faces (the paper's evaluation uses per-load traces).
 *
 * Usage:
 *   continuous_monitoring [visits] [sites]
 */

#include <cstdio>
#include <cstdlib>

#include "attack/segmentation.hh"
#include "core/collector.hh"
#include "core/pipeline.hh"
#include "web/session.hh"

using namespace bigfish;

int
main(int argc, char **argv)
{
    const int visits = argc > 1 ? std::atoi(argv[1]) : 6;
    const int sites = argc > 2 ? std::atoi(argv[2]) : 8;
    const std::size_t feature_len = 256;

    core::CollectionConfig config;
    config.browser = web::BrowserProfile::chrome();
    config.seed = 4242;
    const web::SiteCatalog catalog(sites, 7);

    // ---- Train on ordinary per-load traces. ---------------------------
    std::printf("training on %d x 14 aligned traces...\n", sites);
    const core::TraceCollector collector(config);
    const attack::AttackerKind loop[] = {attack::AttackerKind::LoopCounting};
    const auto trainset =
        collector.collectClosedWorldMulti(catalog, 14, loop).valueOrDie()[0];
    const auto train_data = core::toDataset(trainset, feature_len, sites);
    auto model = ml::cnnLstmFactory(ml::CnnLstmParams::traceDefaults())(
        sites, train_data.featureLen(), 11);
    model->fit(train_data, train_data);

    // ---- The victim browses; the attacker records one long trace. ----
    Rng session_rng(555);
    const auto session = web::BrowsingSession::random(
        catalog, visits, 12 * kSec, 20 * kSec, session_rng);
    std::printf("victim browses %d pages over %.0f s\n", visits,
                static_cast<double>(session.duration()) /
                    static_cast<double>(kSec));

    Rng realize_rng(556);
    auto activity = web::realizeSession(
        session, catalog, config.browser.loadTimeScale,
        config.realization, realize_rng);
    sim::InterruptSynthesizer synth(config.machine);
    Rng synth_rng(557);
    auto timeline = synth.synthesize(activity, synth_rng);
    Rng browser_rng(558);
    web::applyBrowserRuntime(timeline, config.browser, browser_rng);

    auto timer = config.effectiveTimer().make(559);
    const auto long_trace = attack::collectTrace(
        loop[0], config.attackerParams, config.machine, timeline,
        *timer, config.effectivePeriod(), 560).valueOrDie();

    // ---- Segment and classify. ----------------------------------------
    const auto onsets = attack::detectNavigations(long_trace);
    std::printf("detected %zu navigations (ground truth: %d)\n",
                onsets.size(), visits);
    const auto slices = attack::sliceTrace(long_trace, onsets);

    const auto truth_times = session.navigationTimes();
    int matched = 0, correct = 0;
    for (const auto &slice_onset_idx : onsets) {
        const TimeNs detected_at =
            static_cast<TimeNs>(slice_onset_idx) * long_trace.period;
        // Match against the nearest ground-truth navigation.
        TimeNs best = -1;
        std::size_t best_visit = 0;
        for (std::size_t v = 0; v < truth_times.size(); ++v) {
            const TimeNs d = std::abs(detected_at - truth_times[v]);
            if (best < 0 || d < best) {
                best = d;
                best_visit = v;
            }
        }
        if (best >= 0 && best < 3 * kSec)
            ++matched;
        (void)best_visit;
    }

    for (std::size_t i = 0; i < slices.size(); ++i) {
        attack::TraceSet one;
        one.add(slices[i]);
        const auto features = core::toDataset(one, feature_len, sites);
        const Label predicted = model->predict(features.features[0]);
        // Ground truth: the visit whose navigation is nearest the slice
        // start.
        const TimeNs at =
            static_cast<TimeNs>(onsets[i]) * long_trace.period;
        std::size_t visit = 0;
        for (std::size_t v = 0; v < truth_times.size(); ++v)
            if (std::abs(at - truth_times[v]) <
                std::abs(at - truth_times[visit]))
                visit = v;
        const SiteId truth = session.steps[visit].site;
        std::printf("  t=%5.1fs  truth %-20s predicted %-20s %s\n",
                    static_cast<double>(at) / kSec,
                    catalog.site(truth).name.c_str(),
                    catalog.site(predicted).name.c_str(),
                    predicted == truth ? "OK" : "x");
        if (predicted == truth)
            ++correct;
    }
    std::printf("\nnavigation detection: %d/%zu within 3 s of truth\n",
                matched, onsets.size());
    if (!slices.empty())
        std::printf("visit classification: %d/%zu correct (chance %.0f%%)\n",
                    correct, slices.size(), 100.0 / sites);
    return 0;
}
