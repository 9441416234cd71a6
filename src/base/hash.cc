#include "base/hash.hh"

#include <array>
#include <cinttypes>
#include <cstdio>

namespace bigfish {

namespace {

const std::array<std::uint32_t, 256> &
crcTable()
{
    static const std::array<std::uint32_t, 256> table = [] {
        std::array<std::uint32_t, 256> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int bit = 0; bit < 8; ++bit)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[i] = c;
        }
        return t;
    }();
    return table;
}

} // namespace

std::uint32_t
crc32(std::string_view data)
{
    std::uint32_t crc = 0xffffffffu;
    for (const char byte : data)
        crc = crcTable()[(crc ^ static_cast<unsigned char>(byte)) & 0xffu] ^
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
