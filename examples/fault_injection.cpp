/**
 * @file
 * Fault injection: re-run the fingerprinting evaluation while the
 * platform misbehaves, and watch the pipeline degrade gracefully.
 *
 * The paper shows the attack survives *noise*; this example shows the
 * reproduction also survives outright *faults*: lost and re-delivered
 * interrupts, a skewed attacker clock that occasionally steps backwards,
 * attacker stalls, and traces truncated mid-collection. Unusable traces
 * are dropped with accounting (FingerprintResult::droppedTraces) instead
 * of aborting the run, and every fault decision is derived from
 * FaultConfig::seed, so a faulted run is bit-reproducible.
 */

#include <cstdio>

#include "core/collector.hh"
#include "core/pipeline.hh"
#include "ml/classifier.hh"

using namespace bigfish;

int
main()
{
    core::CollectionConfig config;
    config.seed = 2022;
    const attack::AttackerKind loop[] = {attack::AttackerKind::LoopCounting};

    core::PipelineConfig pipeline;
    pipeline.numSites = 6;
    pipeline.tracesPerSite = 10;
    pipeline.featureLen = 192;
    pipeline.eval.folds = 4;
    // kNN keeps this demo fast; swap in cnnLstmFactory() for the
    // paper's classifier.
    pipeline.factory = ml::knnFactory(3);

    std::printf("Baseline (no faults)...\n");
    const auto clean = core::runFingerprintingShared(config, loop, pipeline)
                            .valueOrDie()[0];
    std::printf("  top-1 %.1f%%  (%zu traces collected, %zu dropped)\n\n",
                clean.closedWorld.top1Mean * 100.0,
                clean.collectedTraces, clean.droppedTraces);

    // A hostile platform: 10% of interrupts never delivered, 5%
    // re-delivered late, the attacker's clock 100 ppm fast with rare
    // backward steps, two stalls per second, and one trace in five cut
    // off almost immediately (the victim navigating away), leaving too
    // few periods to be usable.
    config.faults.dropInterruptProb = 0.10;
    config.faults.duplicateInterruptProb = 0.05;
    config.faults.timerSkewPpm = 100.0;
    config.faults.timerBackstepProb = 0.01;
    config.faults.stallsPerSecond = 2.0;
    config.faults.truncateProb = 0.20;
    config.faults.truncateKeepMin = 0.0;
    config.faults.truncateKeepMax = 0.002;
    config.faults.seed = 7;

    std::printf("Same evaluation under injected faults...\n");
    const auto faulted = core::runFingerprintingShared(config, loop, pipeline)
                            .valueOrDie()[0];
    std::printf("  top-1 %.1f%%  (%zu traces collected, %zu dropped)\n",
                faulted.closedWorld.top1Mean * 100.0,
                faulted.collectedTraces, faulted.droppedTraces);
    std::printf("  accuracy delta vs clean: %+.1f points; chance %.1f%%\n",
                (faulted.closedWorld.top1Mean -
                 clean.closedWorld.top1Mean) * 100.0,
                100.0 / pipeline.numSites);

    // Deterministic: the same fault seed replays the identical run.
    const auto again = core::runFingerprintingShared(config, loop, pipeline)
                            .valueOrDie()[0];
    std::printf("  replay with same fault seed: top-1 %.1f%% "
                "(%s)\n",
                again.closedWorld.top1Mean * 100.0,
                again.closedWorld.top1Mean ==
                        faulted.closedWorld.top1Mean
                    ? "bit-identical"
                    : "MISMATCH");
    return 0;
}
