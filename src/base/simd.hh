/**
 * @file
 * Runtime ISA selection for the vectorized kernel layer.
 *
 * This header is the ONLY file in the tree allowed to include the x86
 * intrinsics headers (enforced by the bigfish-lint `intrinsics-header`
 * rule): every kernel that wants vector types reaches them through
 * here, so ISA-specific code cannot quietly spread through the tree.
 *
 * The kernel layer (ml/kernels.cc) carries three implementations of
 * every hot loop — AVX2, SSE2, and portable scalar — selected at
 * runtime behind one bf::simd::Tag. Selection order: the BF_SIMD
 * environment variable ("avx2" | "sse2" | "scalar", read once) when
 * set and supported by the host, otherwise the best ISA the CPU
 * reports. setActive() exists so tests and benches can sweep all three
 * paths in one process.
 *
 * Determinism contract (DESIGN.md §10): every Tag produces bit-identical
 * results. All reductions use a fixed 8-lane virtual accumulator — the
 * scalar and SSE2 paths emulate the same eight partial sums and the
 * same horizontal combine tree the AVX2 path uses (hsum8/hsum128 below
 * ARE that tree) — and no path uses fused multiply-add, so changing
 * Tag (or the host CPU) can never change a trained weight, a
 * cache fingerprint, or a `--resume` replay.
 */

#ifndef BF_BASE_SIMD_HH
#define BF_BASE_SIMD_HH

#if defined(__x86_64__) || defined(__i386__)
#define BF_SIMD_X86 1
#include <immintrin.h>
#endif

namespace bigfish::simd {

/** One runtime-dispatched kernel implementation level. */
enum class Tag
{
    Scalar = 0, ///< Portable C++; emulates the 8-lane accumulator.
    Sse2 = 1,   ///< 128-bit pairs; emulates the 8-lane accumulator.
    Avx2 = 2,   ///< 256-bit vectors; the native 8-lane shape.
};

/** Lowercase name of @p tag ("scalar" / "sse2" / "avx2"). */
const char *name(Tag tag);

/** True when the host CPU can execute @p tag's kernels. */
bool supported(Tag tag);

/** The best Tag the host CPU supports (ignores BF_SIMD). */
Tag detect();

/**
 * The Tag kernels currently dispatch on. First call resolves the
 * BF_SIMD environment override (unknown or unsupported values warn and
 * fall back to detect()).
 */
Tag active();

/**
 * Forces the dispatch Tag (tests/benches sweeping all paths). An
 * unsupported @p tag is clamped to the best supported level at or
 * below it. Returns the Tag that took effect.
 */
Tag setActive(Tag tag);

#if defined(BF_SIMD_X86)

/**
 * The canonical horizontal combine of eight partial sums held as two
 * 128-bit halves [l0..l3], [l4..l7]:
 *
 *   ((l0+l4) + (l2+l6)) + ((l1+l5) + (l3+l7))
 *
 * Every reduction in the kernel layer — any Tag — must funnel its
 * eight virtual lanes through exactly this tree (the scalar path
 * spells it out in scalarHsum8 form inside ml/kernels.cc).
 */
__attribute__((always_inline, target("sse2"))) inline float
hsum128Pair(__m128 lo, __m128 hi)
{
    // s1 = [l0+l4, l1+l5, l2+l6, l3+l7]
    const __m128 s1 = _mm_add_ps(lo, hi);
    // s2 = [(l0+l4)+(l2+l6), (l1+l5)+(l3+l7), ...]
    const __m128 s2 =
        _mm_add_ps(s1, _mm_movehl_ps(s1, s1));
    // final = s2[0] + s2[1]
    const __m128 s3 = _mm_add_ss(
        s2, _mm_shuffle_ps(s2, s2, _MM_SHUFFLE(1, 1, 1, 1)));
    return _mm_cvtss_f32(s3);
}

/** hsum128Pair over one 256-bit accumulator's two halves. */
__attribute__((always_inline, target("avx"))) inline float
hsum8(__m256 v)
{
    return hsum128Pair(_mm256_castps256_ps128(v),
                       _mm256_extractf128_ps(v, 1));
}

#endif // BF_SIMD_X86

} // namespace bigfish::simd

/** Short namespace alias: bf::simd::Tag is the dispatch interface. */
namespace bf = bigfish;

#endif // BF_BASE_SIMD_HH
