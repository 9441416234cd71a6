/**
 * @file
 * Fundamental time and identifier types shared by every bigger-fish module.
 *
 * All simulated time is kept in integer nanoseconds. Using a single signed
 * 64-bit tick type everywhere avoids unit confusion between the machine
 * simulator, the timer models and the attackers, and gives ~292 years of
 * range which is far beyond any trace we collect.
 */

#ifndef BF_BASE_TYPES_HH
#define BF_BASE_TYPES_HH

#include <cstdint>

namespace bigfish {

/** Simulated time in nanoseconds. */
using TimeNs = std::int64_t;

/** One microsecond in TimeNs units. */
constexpr TimeNs kUsec = 1'000;
/** One millisecond in TimeNs units. */
constexpr TimeNs kMsec = 1'000'000;
/** One second in TimeNs units. */
constexpr TimeNs kSec = 1'000'000'000;

/** Identifier of a website in a SiteCatalog. */
using SiteId = int;

/** Class label used by the ML pipeline. */
using Label = int;

} // namespace bigfish

#endif // BF_BASE_TYPES_HH
