#include "sim/interrupt.hh"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>

#include "base/logging.hh"

namespace bigfish::sim {

std::string
interruptKindName(InterruptKind kind)
{
    switch (kind) {
      case InterruptKind::TimerTick:
        return "timer_tick";
      case InterruptKind::NetworkRx:
        return "net_rx_irq";
      case InterruptKind::Graphics:
        return "graphics_irq";
      case InterruptKind::Disk:
        return "disk_irq";
      case InterruptKind::Usb:
        return "usb_irq";
      case InterruptKind::SoftirqNetRx:
        return "softirq:net_rx";
      case InterruptKind::SoftirqTimer:
        return "softirq:timer";
      case InterruptKind::IrqWork:
        return "irq_work";
      case InterruptKind::ReschedIpi:
        return "resched_ipi";
      case InterruptKind::TlbShootdown:
        return "tlb_shootdown";
      case InterruptKind::SpuriousNoise:
        return "spurious_noise";
      case InterruptKind::Preemption:
        return "preemption";
      case InterruptKind::UntraceableStall:
        return "untraceable_stall";
      case InterruptKind::NumKinds:
        break;
    }
    return "unknown";
}

bool
isMovable(InterruptKind kind)
{
    switch (kind) {
      case InterruptKind::NetworkRx:
      case InterruptKind::Graphics:
      case InterruptKind::Disk:
      case InterruptKind::Usb:
        return true;
      default:
        return false;
    }
}

HandlerCostModel::HandlerCostModel()
{
    // Medians chosen so the *total* gap (median + 1.5us context switch)
    // reproduces the characteristic per-kind distributions of Figure 6:
    // every gap exceeds 1.5us; timer ticks cluster near 2-4us with a
    // second mode at ~5.5us when IRQ work piggybacks; network RX spreads
    // wider; rescheduling IPIs are the cheapest.
    auto set = [&](InterruptKind k, TimeNs median, double sigma) {
        setParams(k, {median, sigma});
    };
    set(InterruptKind::TimerTick, 2100, 0.35);
    set(InterruptKind::NetworkRx, 3400, 0.50);
    set(InterruptKind::Graphics, 2900, 0.45);
    set(InterruptKind::Disk, 2600, 0.40);
    set(InterruptKind::Usb, 2000, 0.35);
    set(InterruptKind::SoftirqNetRx, 2500, 0.55);
    set(InterruptKind::SoftirqTimer, 1800, 0.40);
    set(InterruptKind::IrqWork, 4000, 0.20);
    set(InterruptKind::ReschedIpi, 1400, 0.30);
    set(InterruptKind::TlbShootdown, 2200, 0.35);
    set(InterruptKind::SpuriousNoise, 3000, 0.50);
    // Preemption "handler cost" is the stolen timeslice; the synthesizer
    // overrides its duration directly, so this entry is only a fallback.
    set(InterruptKind::Preemption, 1000 * 1000, 0.50);
    set(InterruptKind::UntraceableStall, 800, 0.60);
}

void
HandlerCostModel::setParams(InterruptKind kind, HandlerCostParams params)
{
    table_[static_cast<int>(kind)] = params;
    logMedian_[static_cast<int>(kind)] =
        std::log(static_cast<double>(params.median));
}

HandlerCostParams
HandlerCostModel::params(InterruptKind kind) const
{
    return table_[static_cast<int>(kind)];
}

TimeNs
HandlerCostModel::sample(InterruptKind kind, Rng &rng, bool vmIsolated,
                         double workScale) const
{
    const HandlerCostParams &p = table_[static_cast<int>(kind)];
    double body =
        rng.lognormalFromLogMedian(logMedian_[static_cast<int>(kind)],
                                   p.sigma);
    body *= std::max(workScale, 0.0);
    double total = body;
    if (kind != InterruptKind::UntraceableStall)
        total += static_cast<double>(contextSwitchNs);
    if (vmIsolated && isInterrupt(kind)) {
        // Host handles the interrupt, exits to the guest, and the guest
        // kernel processes its virtual interrupt: the stolen time grows.
        total = total * vmAmplification + static_cast<double>(vmExitNs);
    }
    return static_cast<TimeNs>(std::max(total, 1.0));
}

namespace {

/** Queues @p interval behind the handler running until @p busy_until,
 *  as one core executes them, and advances @p busy_until past it. */
StolenInterval
queued(StolenInterval interval, TimeNs &busy_until)
{
    interval.arrival = std::max(interval.arrival, busy_until);
    busy_until = interval.end();
    return interval;
}

/**
 * Sorts intervals by (arrival, input position) with a stable LSD radix
 * sort, and serializes them as it gathers. Each interval packs into one
 * 64-bit key, (arrival - min) above its input index; the passes run
 * 12-bit digits over the arrival bits only, so the index bits break
 * ties by input position, and one gather then moves each 24-byte
 * record once. A pass whose digit every key shares is skipped.
 *
 * The key holds bit_width(max - min) + bit_width(n - 1) <= 64 bits. A
 * 50 s run (the longest web/browser.cc builds) spans under 2^36 ns and
 * its streams stay under 2^20 intervals, so 3 passes cover every run
 * with 8 bits to spare; a stream past the bound is a bug, not a case.
 */
void
radixSortQueued(std::vector<StolenInterval> &stolen, PerfCounters *perf)
{
    constexpr unsigned kDigitBits = 12;
    constexpr std::uint64_t kDigitMask = (1u << kDigitBits) - 1;
    const std::size_t n = stolen.size();
    TimeNs lo = stolen[0].arrival;
    TimeNs hi = lo;
    for (const StolenInterval &s : stolen) {
        lo = std::min(lo, s.arrival);
        hi = std::max(hi, s.arrival);
    }
    const auto offset = [lo](TimeNs arrival) {
        return static_cast<std::uint64_t>(arrival) -
               static_cast<std::uint64_t>(lo);
    };
    const auto index_bits = static_cast<unsigned>(std::bit_width(n - 1));
    const auto range_bits =
        static_cast<unsigned>(std::bit_width(offset(hi)));
    // The digit counts are 32-bit, so n stays at or under 2^31.
    panicIf(index_bits > 31 || index_bits + range_bits > 64,
            "normalizeTimeline: stream too long for 64-bit sort keys");
    const unsigned passes = (range_bits + kDigitBits - 1) / kDigitBits;

    // The keys and every pass's digit histogram in one read of the
    // records; the key buffers are written before they are read.
    auto keys = std::make_unique_for_overwrite<std::uint64_t[]>(2 * n);
    std::uint64_t *src = keys.get();
    std::uint64_t *dst = src + n;
    std::vector<std::uint32_t> counts(std::size_t{passes} << kDigitBits);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t at = offset(stolen[i].arrival);
        src[i] = at << index_bits | i;
        for (unsigned p = 0; p < passes; ++p)
            ++counts[(p << kDigitBits) + (at >> p * kDigitBits & kDigitMask)];
    }
    for (unsigned p = 0; p < passes; ++p) {
        std::uint32_t *count = &counts[std::size_t{p} << kDigitBits];
        const unsigned shift = index_bits + p * kDigitBits;
        if (count[src[0] >> shift & kDigitMask] == n)
            continue;
        std::uint32_t start = 0;
        for (std::uint64_t d = 0; d <= kDigitMask; ++d) {
            const std::uint32_t len = count[d];
            count[d] = start;
            start += len;
        }
        for (std::size_t i = 0; i < n; ++i)
            dst[count[src[i] >> shift & kDigitMask]++] = src[i];
        std::swap(src, dst);
    }
    std::vector<StolenInterval> sorted;
    sorted.reserve(n);
    const std::uint64_t index_mask = (std::uint64_t{1} << index_bits) - 1;
    TimeNs busy_until = 0;
    for (std::size_t i = 0; i < n; ++i)
        sorted.push_back(queued(stolen[src[i] & index_mask], busy_until));
    stolen = std::move(sorted);
    if (perf) {
        perf->bytesSorted +=
            static_cast<long long>(n * sizeof(StolenInterval));
    }
}

/**
 * Insertion-sorts the tail after an already-sorted prefix, then merges
 * the two backward from the end, in place. Both steps are stable: an
 * element only moves ahead of another whose arrival is *strictly*
 * later, so ties keep input order (prefix first, the std::inplace_merge
 * contract). Only the short tail is copied.
 */
void
mergeSortedTail(std::vector<StolenInterval> &stolen,
                std::size_t sorted_prefix, PerfCounters *perf)
{
    std::vector<StolenInterval> tailBuf(
        stolen.begin() + static_cast<std::ptrdiff_t>(sorted_prefix),
        stolen.end());
    for (std::size_t i = 1; i < tailBuf.size(); ++i) {
        const StolenInterval v = tailBuf[i];
        std::size_t j = i;
        for (; j > 0 && v.arrival < tailBuf[j - 1].arrival; --j)
            tailBuf[j] = tailBuf[j - 1];
        tailBuf[j] = v;
    }
    std::ptrdiff_t i = static_cast<std::ptrdiff_t>(sorted_prefix) - 1;
    std::ptrdiff_t j = static_cast<std::ptrdiff_t>(tailBuf.size()) - 1;
    std::ptrdiff_t k = static_cast<std::ptrdiff_t>(stolen.size()) - 1;
    while (j >= 0) {
        if (i >= 0 && stolen[static_cast<std::size_t>(i)].arrival >
                          tailBuf[static_cast<std::size_t>(j)].arrival) {
            stolen[static_cast<std::size_t>(k--)] =
                stolen[static_cast<std::size_t>(i--)];
        } else {
            stolen[static_cast<std::size_t>(k--)] =
                tailBuf[static_cast<std::size_t>(j--)];
        }
    }
    if (perf) {
        perf->bytesSorted += static_cast<long long>(
            (tailBuf.size() + stolen.size()) * sizeof(StolenInterval));
    }
}

} // namespace

void
normalizeTimeline(std::vector<StolenInterval> &stolen, TimeNs duration,
                  PerfCounters *perf)
{
    // Re-normalization after appending a few intervals to an
    // already-normalized stream (browser stalls, injected faults) is
    // common: detect the sorted prefix and merge the short tail
    // instead of re-sorting everything.
    std::size_t sorted_prefix = std::min<std::size_t>(stolen.size(), 1);
    while (sorted_prefix < stolen.size() &&
           stolen[sorted_prefix].arrival >= stolen[sorted_prefix - 1].arrival)
        ++sorted_prefix;
    const std::size_t tail = stolen.size() - sorted_prefix;
    if (tail > 256) {
        radixSortQueued(stolen, perf);
    } else {
        if (tail > 0)
            mergeSortedTail(stolen, sorted_prefix, perf);
        TimeNs busy_until = 0;
        for (StolenInterval &interval : stolen)
            interval = queued(interval, busy_until);
    }
    // Serialization may push the last handlers past the end of the run:
    // drop those that start after it and cut the one that straddles it.
    while (!stolen.empty() && stolen.back().arrival >= duration)
        stolen.pop_back();
    if (!stolen.empty() && stolen.back().end() > duration)
        stolen.back().duration = duration - stolen.back().arrival;
}

} // namespace bigfish::sim
