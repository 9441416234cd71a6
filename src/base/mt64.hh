/**
 * @file
 * Mt64: a drop-in MT19937-64 engine bit-identical to std::mt19937_64.
 *
 * The simulator's deviate streams are frozen into artifacts, so the
 * engine's output sequence cannot change — but its *implementation*
 * can. libstdc++'s mersenne_twister_engine regenerates its 312-word
 * state block with a scalar loop that the collect phase hits hundreds
 * of thousands of times per run (every real-valued deviate consumes a
 * raw draw, and the polar normal rejection loop consumes several).
 * Mt64 produces the exact same stream — same seeding recurrence, same
 * twist, same tempering — from a portable scalar twist that the
 * compiler is free to auto-vectorize (the twist is pure 64-bit integer
 * logic). A hand-written AVX2 twist measured at par with it, so there
 * is one implementation and no ISA dispatch. tests/rng_exact_test.cc
 * pins raw-draw equality against std::mt19937_64 across many refills.
 *
 * Mt64 satisfies the UniformRandomBitGenerator requirements with the
 * same result_type and min/max as std::mt19937_64, so std distribution
 * templates (std::uniform_int_distribution, std::shuffle) run the
 * identical rejection algorithm over it and return identical values.
 */

#ifndef BF_BASE_MT64_HH
#define BF_BASE_MT64_HH

#include <cstdint>

namespace bigfish {

/** MT19937-64 engine; stream-identical to std::mt19937_64. */
class Mt64
{
  public:
    using result_type = std::uint64_t;

    /** Word count of the state block. */
    static constexpr int kN = 312;
    /** Twist offset. */
    static constexpr int kM = 156;

    /** Seeds exactly like std::mt19937_64{seed}. */
    explicit Mt64(std::uint64_t seed)
    {
        mt_[0] = seed;
        for (int i = 1; i < kN; ++i)
            mt_[i] = 6364136223846793005ULL *
                         (mt_[i - 1] ^ (mt_[i - 1] >> 62)) +
                     static_cast<std::uint64_t>(i);
        mti_ = kN;
    }

    static constexpr result_type min() { return 0; }
    static constexpr result_type max() { return ~result_type(0); }

    /** Next raw 64-bit draw (identical to std::mt19937_64::operator()). */
    result_type
    operator()()
    {
        if (mti_ >= kN)
            refill();
        std::uint64_t x = mt_[mti_++];
        // MT19937-64 tempering (u,d,s,b,t,c,l of the standard spec).
        x ^= (x >> 29) & 0x5555555555555555ULL;
        x ^= (x << 17) & 0x71D67FFFEDA60000ULL;
        x ^= (x << 37) & 0xFFF7EEE000000000ULL;
        x ^= (x >> 43);
        return x;
    }

  private:
    /** Regenerates the state block (the MT19937-64 twist). */
    void refill();

    std::uint64_t mt_[kN];
    int mti_;
};

} // namespace bigfish

#endif // BF_BASE_MT64_HH
