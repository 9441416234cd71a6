/**
 * @file
 * The repository's two canonical non-cryptographic hashes.
 *
 * Every content-addressed facility (the stage cache, collection and
 * stage fingerprints) uses the same two primitives:
 *
 *  - fnv64()  — FNV-1a over canonical one-line-per-field text; the
 *    fingerprint building block. Callers finalize compositions with
 *    mix64() (base/rng.hh) so related inputs cannot produce related
 *    keys.
 *  - crc32()  — IEEE 802.3 CRC, the whole-payload corruption trailer:
 *    torn, interleaved or bit-flipped writes surface as a clean
 *    validation failure instead of wrong data.
 *
 * Both are stable formats: their outputs are persisted in cache
 * files, so changing either is a format break and must bump the
 * owning facility's format version line.
 */

#ifndef BF_BASE_HASH_HH
#define BF_BASE_HASH_HH

#include <cstdint>
#include <string>
#include <string_view>

namespace bigfish {

/** CRC32 (IEEE 802.3, polynomial 0xedb88320) of @p data, sliced by 8. */
[[nodiscard]] std::uint32_t crc32(std::string_view data);

/** FNV-1a 64-bit hash of @p text. */
[[nodiscard]] std::uint64_t fnv64(std::string_view text);

/** @p value as 16 lowercase hex digits (keys, fingerprints). */
std::string hex16(std::uint64_t value);

/** Bit-exact hexfloat text ("%a") of @p value, for canonical lines. */
std::string hexDouble(double value);

} // namespace bigfish

#endif // BF_BASE_HASH_HH
