/**
 * @file
 * Named experiment presets: the exact CollectionConfigs behind every
 * row of the paper's tables, as a programmatic API.
 *
 * The benchmark harnesses print tables; these presets let library users
 * reproduce any single row (or build new experiments relative to one)
 * without copying configuration out of bench code. A preset describes
 * the machine and victim only; the attacker is an argument of the run:
 *
 * @code
 * auto config = core::presets::table1Row("chrome", "linux");
 * const attack::AttackerKind loop[] = {attack::AttackerKind::LoopCounting};
 * auto results = core::runFingerprintingShared(config, loop, pipeline);
 * @endcode
 */

#ifndef BF_CORE_PRESETS_HH
#define BF_CORE_PRESETS_HH

#include <string>
#include <vector>

#include "core/collector.hh"

namespace bigfish::core::presets {

/** A named configuration with its paper reference. */
struct NamedConfig
{
    std::string name;           ///< e.g. "chrome/linux".
    std::string paperReference; ///< e.g. "Table 1, row 1".
    CollectionConfig config;
};

/**
 * Table 1 row: browser in {"chrome", "firefox", "safari", "tor"},
 * os in {"linux", "windows", "macos"}. fatal() on combinations the
 * paper does not evaluate (e.g. Safari on Windows).
 */
CollectionConfig table1Row(const std::string &browser,
                           const std::string &os);

/** All eight Table 1 browser x OS combinations, in paper order. */
std::vector<NamedConfig> table1Rows();

/**
 * Table 2 condition: noise in {"none", "cache-sweep", "interrupt",
 * "background"} on the paper's Chrome/Linux machine.
 */
CollectionConfig table2Condition(const std::string &noise);

/**
 * Table 3 isolation level 0-4 (cumulative):
 * 0 default, 1 +no DVFS, 2 +pinned cores, 3 +IRQs removed, 4 +VMs.
 */
CollectionConfig table3Isolation(int level);

/**
 * Table 4 timer row: timer in {"jittered", "quantized", "randomized"}
 * with the attacker period P in milliseconds.
 */
CollectionConfig table4Timer(const std::string &timer, int period_ms);

} // namespace bigfish::core::presets

#endif // BF_CORE_PRESETS_HH
