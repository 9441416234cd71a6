#include "base/hash.hh"

#include <array>
#include <bit>
#include <cinttypes>
#include <cstdio>
#include <cstring>

namespace bigfish {

namespace {

static_assert(std::endian::native == std::endian::little,
              "crc32 reads its 8-byte blocks as little-endian words");

/**
 * Slicing-by-8 tables for the reflected IEEE polynomial: row 0 is the
 * classic bytewise table, and row k advances a byte's contribution
 * through k further zero bytes, so one lookup per byte of an 8-byte
 * block folds the whole block at once.
 */
constexpr auto kCrcTables = [] {
    std::array<std::array<std::uint32_t, 256>, 8> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
        std::uint32_t c = i;
        for (int bit = 0; bit < 8; ++bit)
            c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
        t[0][i] = c;
    }
    for (std::size_t k = 1; k < t.size(); ++k)
        for (std::uint32_t i = 0; i < 256; ++i)
            t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
    return t;
}();

} // namespace

std::uint32_t
crc32(std::string_view data)
{
    const auto &t = kCrcTables;
    std::uint32_t crc = 0xffffffffu;
    const char *p = data.data();
    std::size_t n = data.size();
    for (; n >= 8; p += 8, n -= 8) {
        std::uint32_t lo = 0, hi = 0;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= crc;
        crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
              t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^
              t[3][hi & 0xffu] ^ t[2][(hi >> 8) & 0xffu] ^
              t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
    }
    for (; n > 0; ++p, --n)
        crc = t[0][(crc ^ static_cast<unsigned char>(*p)) & 0xffu] ^
              (crc >> 8);
    return crc ^ 0xffffffffu;
}

std::uint64_t
fnv64(std::string_view text)
{
    std::uint64_t hash = 0xcbf2'9ce4'8422'2325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x0000'0100'0000'01b3ULL;
    }
    return hash;
}

std::string
hex16(std::uint64_t value)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016" PRIx64, value);
    return buf;
}

std::string
hexDouble(double value)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%a", value);
    return buf;
}

} // namespace bigfish
