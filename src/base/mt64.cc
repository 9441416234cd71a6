#include "base/mt64.hh"

namespace bigfish {

namespace {

constexpr std::uint64_t kMatrixA = 0xB5026F5AA96619E9ULL;
constexpr std::uint64_t kUpperMask = 0xFFFFFFFF80000000ULL;
constexpr std::uint64_t kLowerMask = 0x000000007FFFFFFFULL;

inline std::uint64_t
twistWord(std::uint64_t cur, std::uint64_t next, std::uint64_t far)
{
    const std::uint64_t y = (cur & kUpperMask) | (next & kLowerMask);
    return far ^ (y >> 1) ^ ((y & 1) ? kMatrixA : 0ULL);
}

} // namespace

void
Mt64::refill()
{
    int i = 0;
    for (; i < kN - kM; ++i)
        mt_[i] = twistWord(mt_[i], mt_[i + 1], mt_[i + kM]);
    for (; i < kN - 1; ++i)
        mt_[i] = twistWord(mt_[i], mt_[i + 1], mt_[i + kM - kN]);
    mt_[kN - 1] = twistWord(mt_[kN - 1], mt_[0], mt_[kM - 1]);
    mti_ = 0;
}

} // namespace bigfish
