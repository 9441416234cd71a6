/**
 * @file
 * bench_probe: a fixed kernel that gauges how fast this host runs right
 * now. Other tenants of a shared host slow the benchmark's executions
 * by up to 2x, in spells of seconds to minutes, and not every vCPU at
 * once; the runner calls this probe between executions and divides the
 * host's slowdown out of the end-to-end times (bench/harness/README.md,
 * "Steadiness").
 *
 *   bench_probe SECONDS
 *
 * Pins itself to each CPU it may run on in turn and, on each, repeats
 * one chunk (copy and sort 32768 fixed pseudo-random 32-bit keys, about
 * 2 ms) for an equal share of SECONDS, at least once. Prints one line
 * per CPU with each chunk's wall seconds, then a checksum line.
 *
 * It links nothing from the tree and is compiled with the harness's own
 * flags, so no change to the program under test changes the probe.
 */

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <vector>

namespace {

using Clock = std::chrono::steady_clock;

double
since(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc != 2) {
        std::fprintf(stderr, "usage: bench_probe SECONDS\n");
        return 2;
    }
    const double budget = std::atof(argv[1]);

    cpu_set_t allowed;
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) {
        std::perror("sched_getaffinity");
        return 1;
    }
    std::vector<int> cpus;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
        if (CPU_ISSET(cpu, &allowed))
            cpus.push_back(cpu);
    const double share = budget / static_cast<double>(cpus.size());

    // xorshift64 keys: the same input on every call.
    std::vector<std::uint32_t> keys(1u << 15);
    std::uint64_t x = 0x9E3779B97F4A7C15ull;
    for (auto &key : keys) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        key = static_cast<std::uint32_t>(x >> 32);
    }

    std::vector<std::uint32_t> work(keys.size());
    std::uint64_t checksum = 0;
    for (const int cpu : cpus) {
        cpu_set_t one;
        CPU_ZERO(&one);
        CPU_SET(cpu, &one);
        if (sched_setaffinity(0, sizeof one, &one) != 0) {
            std::perror("sched_setaffinity");
            return 1;
        }
        const Clock::time_point start = Clock::now();
        do {
            const Clock::time_point chunk = Clock::now();
            std::copy(keys.begin(), keys.end(), work.begin());
            std::sort(work.begin(), work.end());
            checksum += work[work.size() / 2];
            std::printf("%.9f ", since(chunk));
        } while (since(start) < share);
        std::printf("\n");
    }
    // The checksum keeps the sort from being optimized away.
    std::printf("%llu\n", static_cast<unsigned long long>(checksum));
    return 0;
}
