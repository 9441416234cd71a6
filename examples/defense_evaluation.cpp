/**
 * @file
 * Countermeasure evaluation scenario (the paper's Section 6): deploy the
 * randomized timer and the spurious-interrupt injector against the
 * loop-counting attack and measure how much protection each buys, along
 * with the deployment cost.
 *
 * Usage:
 *   defense_evaluation [sites] [traces_per_site]
 */

#include <cstdio>
#include <cstdlib>

#include "core/collector.hh"
#include "core/pipeline.hh"
#include "defense/noise.hh"
#include "web/catalog.hh"

using namespace bigfish;

namespace {

double
accuracy(core::CollectionConfig config, const core::PipelineConfig &p)
{
    const attack::AttackerKind loop[] = {attack::AttackerKind::LoopCounting};
    return core::runFingerprintingShared(config, loop, p)
        .valueOrDie()[0]
        .closedWorld.top1Mean;
}

} // namespace

int
main(int argc, char **argv)
{
    const int sites = argc > 1 ? std::atoi(argv[1]) : 12;
    const int traces = argc > 2 ? std::atoi(argv[2]) : 12;

    core::PipelineConfig pipeline;
    pipeline.numSites = sites;
    pipeline.tracesPerSite = traces;
    pipeline.featureLen = 256;
    pipeline.eval.folds = 4;

    core::CollectionConfig base;
    base.browser = web::BrowserProfile::chrome();
    base.seed = 31337;

    std::printf("attack: loop-counting in Chrome, %d sites x %d traces "
                "(chance %.1f%%)\n\n", sites, traces, 100.0 / sites);

    const double undefended = accuracy(base, pipeline);
    std::printf("undefended:                 %.1f%%\n", undefended * 100.0);

    // Defense 1: the randomized timer (Section 6.1).
    core::CollectionConfig timer_defense = base;
    timer_defense.timerOverride = timers::TimerSpec::randomizedDefense();
    const double with_timer = accuracy(timer_defense, pipeline);
    std::printf("randomized timer:           %.1f%%\n", with_timer * 100.0);

    // Defense 2: spurious interrupts (Section 6.2).
    core::CollectionConfig noise_defense = base;
    noise_defense.spuriousInterruptNoise = true;
    const double with_noise = accuracy(noise_defense, pipeline);
    std::printf("spurious interrupts:        %.1f%%\n", with_noise * 100.0);

    // Both at once (not in the paper, but the API composes freely).
    core::CollectionConfig both = noise_defense;
    both.timerOverride = timers::TimerSpec::randomizedDefense();
    const double with_both = accuracy(both, pipeline);
    std::printf("both defenses:              %.1f%%\n\n", with_both * 100.0);

    // Deployment costs.
    Rng rng(7);
    const auto overlay = defense::spuriousInterruptOverlay(
        15 * kSec, defense::SpuriousInterruptParams{}, rng);
    std::printf("spurious-interrupt page-load overhead: +%.1f%% "
                "(paper: +15.7%%)\n",
                (defense::loadTimeOverheadFactor(overlay, 4) - 1.0) *
                    100.0);
    std::printf("randomized-timer cost: timer API resolution drops to "
                "~10-100 ms bursts;\n  no CPU overhead (paper proposes a "
                "permission model for apps needing precision).\n");
    return 0;
}
