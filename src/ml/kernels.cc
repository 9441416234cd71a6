/**
 * @file
 * The two ISA paths behind ml/kernels.hh: AVX2 or portable scalar.
 *
 * Five kernels dispatch on bf::simd::active(): dot, dotTile4x2, the
 * two LSTM gate fusions and maxPool, where the AVX2 spelling measured
 * several times faster than the scalar loop. Their two implementations
 * are bit-identical by construction — see the determinism contract in
 * kernels.hh and DESIGN.md §10. dotRowsSparse, axpy, gemm, addRowSums,
 * allFinite and adamStep are scalar only, plain C++ that -march=native
 * vectorizes: adamStep's AVX2 spelling measured at par, and gemm's 4x16
 * register tile compiles to vector code with no intrinsics, so it has
 * no second spelling to keep bit-identical. The rules this file lives by:
 *
 *  - Reductions hold a fixed 8-lane virtual accumulator. AVX2 keeps it
 *    in one __m256; the scalar path keeps float acc[8]. Both funnel
 *    through the one canonical combine tree (simd::hsum8) and add the
 *    n%8 tail serially afterwards.
 *  - Elementwise math uses one fixed expression tree per element, only
 *    IEEE-exact operations (+ - * / sqrt min max), and never a fused
 *    multiply-add: no FMA intrinsics appear below, and bf_ml builds
 *    with -ffp-contract=off so the compiler cannot introduce one.
 *  - exp/sigmoid/tanh are Cephes-derived polynomials whose scalar
 *    spelling performs exactly the operations the AVX2 path performs
 *    lane-wise (including min/max NaN semantics and nearest-even
 *    integer rounding), so a tail element equals its vector lane.
 */

#include "ml/kernels.hh"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <vector>

#include "base/simd.hh"

namespace bigfish::ml::kernels {

namespace {

inline std::uint32_t
floatBits(float x)
{
    std::uint32_t b;
    std::memcpy(&b, &x, sizeof(b));
    return b;
}

inline float
bitsFloat(std::uint32_t b)
{
    float x;
    std::memcpy(&x, &b, sizeof(x));
    return x;
}

// --- Polynomial constants (Cephes expf/tanhf), shared by all paths ---

// The exp clamp stays at +-88 (not Cephes' 88.376...) so the 2^n
// exponent bit-trick below never needs n = 128: at x = 88 the integer
// part is 127, the largest finite biased exponent. Beyond the clamp
// sigmoid/tanh are saturated anyway.
constexpr float kExpHi = 88.0f;
constexpr float kExpLo = -88.0f;
constexpr float kLog2e = 1.44269504088896341f;
constexpr float kLn2Hi = 0.693359375f;
constexpr float kLn2Lo = -2.12194440e-4f;
constexpr float kExpC0 = 1.9875691500e-4f;
constexpr float kExpC1 = 1.3981999507e-3f;
constexpr float kExpC2 = 8.3334519073e-3f;
constexpr float kExpC3 = 4.1665795894e-2f;
constexpr float kExpC4 = 1.6666665459e-1f;
constexpr float kExpC5 = 5.0000001201e-1f;

constexpr float kTanhCut = 0.625f;
constexpr float kTanhC0 = -5.70498872745e-3f;
constexpr float kTanhC1 = 2.06390887954e-2f;
constexpr float kTanhC2 = -5.37397155531e-2f;
constexpr float kTanhC3 = 1.33314422036e-1f;
constexpr float kTanhC4 = -3.33332819422e-1f;

// ====================== portable scalar path ======================
//
// Each scalar transcendental is written as the exact lane-wise
// operation sequence of the AVX2 path: the clamp ternaries mirror
// minps/maxps operand order (second operand wins on NaN), nearbyintf
// mirrors cvtps2dq's nearest-even rounding, and sign handling uses the
// same bit operations as andps/xorps.

inline float
expOne(float x)
{
    x = x < kExpHi ? x : kExpHi; // minps(x, hi)
    x = x > kExpLo ? x : kExpLo; // maxps(x, lo)
    const float t = x * kLog2e;
    const float fn = std::nearbyintf(t);
    const int n = static_cast<int>(fn);
    float r = x - fn * kLn2Hi;
    r = r - fn * kLn2Lo;
    const float z = r * r;
    float p = kExpC0;
    p = p * r + kExpC1;
    p = p * r + kExpC2;
    p = p * r + kExpC3;
    p = p * r + kExpC4;
    p = p * r + kExpC5;
    const float y = (p * z + r) + 1.0f;
    // 2^n via exponent bits; n is in [-127, 127] thanks to the clamp
    // (n = -127 yields zero, correctly flushing exp(-88) ~ 6e-39).
    const float s =
        bitsFloat(static_cast<std::uint32_t>(n + 127) << 23);
    return y * s;
}

inline float
sigmoidOne(float x)
{
    const float nx = bitsFloat(floatBits(x) ^ 0x80000000u); // xorps
    const float e = expOne(nx);
    return 1.0f / (1.0f + e);
}

inline float
tanhOne(float x)
{
    const std::uint32_t bits = floatBits(x);
    const std::uint32_t sign = bits & 0x80000000u;
    const float ax = bitsFloat(bits & 0x7fffffffu);
    if (ax < kTanhCut) {
        const float z2 = x * x;
        float p = kTanhC0;
        p = p * z2 + kTanhC1;
        p = p * z2 + kTanhC2;
        p = p * z2 + kTanhC3;
        p = p * z2 + kTanhC4;
        return (p * z2) * x + x;
    }
    const float e = expOne(ax + ax);
    const float y = 1.0f - 2.0f / (e + 1.0f);
    return bitsFloat(floatBits(y) ^ sign);
}

float
scalarDot(const float *a, const float *b, std::size_t n)
{
    float acc[8] = {0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f, 0.0f};
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        for (int l = 0; l < 8; ++l)
            acc[l] += a[i + l] * b[i + l];
    float tail = 0.0f;
    for (; i < n; ++i)
        tail += a[i] * b[i];
    // The canonical combine tree (simd::hsum8 in vector form).
    return (((acc[0] + acc[4]) + (acc[2] + acc[6])) +
            ((acc[1] + acc[5]) + (acc[3] + acc[7]))) +
           tail;
}

void
scalarDotTile4x2(float *c, const float *a, const float *b,
                 std::size_t i0, std::size_t j0, std::size_t k,
                 std::size_t n)
{
    const float *ar[4] = {a + (i0 + 0) * k, a + (i0 + 1) * k,
                          a + (i0 + 2) * k, a + (i0 + 3) * k};
    const float *bc[2] = {b + (j0 + 0) * k, b + (j0 + 1) * k};
    float acc[4][2][8] = {};
    std::size_t t = 0;
    for (; t + 8 <= k; t += 8)
        for (int r = 0; r < 4; ++r)
            for (int cc = 0; cc < 2; ++cc)
                for (int l = 0; l < 8; ++l)
                    acc[r][cc][l] += ar[r][t + l] * bc[cc][t + l];
    for (int r = 0; r < 4; ++r) {
        for (int cc = 0; cc < 2; ++cc) {
            const float *l = acc[r][cc];
            float tail = 0.0f;
            for (std::size_t tt = t; tt < k; ++tt)
                tail += ar[r][tt] * bc[cc][tt];
            // Identical to scalarDot(ar[r], bc[cc], k) by construction.
            const float s = (((l[0] + l[4]) + (l[2] + l[6])) +
                             ((l[1] + l[5]) + (l[3] + l[7]))) +
                            tail;
            c[(i0 + static_cast<std::size_t>(r)) * n + j0 +
              static_cast<std::size_t>(cc)] += s;
        }
    }
}

// --- GEMM micro-kernel ---

/** The k block: a B panel of kBlockK rows stays cache-resident. */
constexpr std::size_t kBlockK = 240;

/** Columns of one register tile (one 512-bit or two 256-bit vectors). */
constexpr std::size_t kTileCols = 16;

/**
 * MR rows of one k block, as MR x kTileCols register tiles: C rows
 * [0, MR) x columns [0, cols) of @p c (row stride @p ldc), cols a
 * multiple of kTileCols, accumulate A rows [0, MR) of @p a against the
 * same B columns of @p b (row stride @p ldb) over the first @p kb k's.
 * Each tile stays in acc for the whole k block and each B load serves
 * all MR rows. Per element the operations are fixed whatever the
 * tiling: y + ((a0*x0 + a1*x1) + (a2*x2 + a3*x3)) per 4-k group, then
 * y + a*x per remaining k.
 *
 * noipa: GCC otherwise clones this function for the padded-tail call
 * (ldb = ldc = kTileCols) and vectorizes the clone across k instead of
 * across columns, which made every n % 16 tail several times slower.
 */
template <std::size_t MR>
__attribute__((noipa)) void
gemmTiles(float *__restrict c, std::size_t ldc, const float *__restrict a,
          std::size_t rowStride, std::size_t colStride,
          const float *__restrict b, std::size_t ldb, std::size_t kb,
          std::size_t cols)
{
    for (std::size_t j0 = 0; j0 < cols; j0 += kTileCols) {
        float acc[MR][kTileCols];
        for (std::size_t r = 0; r < MR; ++r)
            for (std::size_t j = 0; j < kTileCols; ++j)
                acc[r][j] = c[r * ldc + j0 + j];
        std::size_t kk = 0;
        for (; kk + 4 <= kb; kk += 4) {
            const float *__restrict x0 = b + kk * ldb + j0;
            const float *__restrict x1 = x0 + ldb;
            const float *__restrict x2 = x1 + ldb;
            const float *__restrict x3 = x2 + ldb;
            for (std::size_t r = 0; r < MR; ++r) {
                const float *ar = a + r * rowStride + kk * colStride;
                const float a0 = ar[0];
                const float a1 = ar[colStride];
                const float a2 = ar[2 * colStride];
                const float a3 = ar[3 * colStride];
                for (std::size_t j = 0; j < kTileCols; ++j) {
                    const float t01 = a0 * x0[j] + a1 * x1[j];
                    const float t23 = a2 * x2[j] + a3 * x3[j];
                    acc[r][j] = acc[r][j] + (t01 + t23);
                }
            }
        }
        for (; kk < kb; ++kk) {
            const float *__restrict x = b + kk * ldb + j0;
            for (std::size_t r = 0; r < MR; ++r) {
                const float ak = a[r * rowStride + kk * colStride];
                for (std::size_t j = 0; j < kTileCols; ++j)
                    acc[r][j] = acc[r][j] + ak * x[j];
            }
        }
        for (std::size_t r = 0; r < MR; ++r)
            for (std::size_t j = 0; j < kTileCols; ++j)
                c[r * ldc + j0 + j] = acc[r][j];
    }
}

/**
 * MR rows of one k block: full tiles read B and C in place; the last
 * n % kTileCols columns run one more tile over @p bTail (those B
 * columns, zero-padded to kTileCols) and a padded copy of the C tail.
 * Padding lanes never mix into real ones, so they cost time, not bits.
 */
template <std::size_t MR>
void
gemmRows(float *c, const float *a, std::size_t rowStride,
         std::size_t colStride, const float *b, const float *bTail,
         std::size_t kb, std::size_t n)
{
    const std::size_t full = n - n % kTileCols;
    gemmTiles<MR>(c, n, a, rowStride, colStride, b, n, kb, full);
    if (full == n)
        return;
    float cTail[MR][kTileCols] = {};
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t j = full; j < n; ++j)
            cTail[r][j - full] = c[r * n + j];
    gemmTiles<MR>(&cTail[0][0], kTileCols, a, rowStride, colStride, bTail,
                  kTileCols, kb, kTileCols);
    for (std::size_t r = 0; r < MR; ++r)
        for (std::size_t j = full; j < n; ++j)
            c[r * n + j] = cTail[r][j - full];
}

void
scalarLstmForward(float *zi, float *zf, float *zg, float *zo, float *c,
                  float *h, std::size_t n)
{
    for (std::size_t s = 0; s < n; ++s) {
        const float i_g = sigmoidOne(zi[s]);
        const float f_g = sigmoidOne(zf[s]);
        const float g_g = tanhOne(zg[s]);
        const float o_g = sigmoidOne(zo[s]);
        zi[s] = i_g;
        zf[s] = f_g;
        zg[s] = g_g;
        zo[s] = o_g;
        const float c_new = f_g * c[s] + i_g * g_g;
        c[s] = c_new;
        h[s] = o_g * tanhOne(c_new);
    }
}

void
scalarLstmBackward(const float *zi, const float *zf, const float *zg,
                   const float *zo, const float *c, const float *cprev,
                   const float *dh, float *dc, float *dzi, float *dzf,
                   float *dzg, float *dzo, std::size_t n)
{
    for (std::size_t s = 0; s < n; ++s) {
        const float i_g = zi[s];
        const float f_g = zf[s];
        const float g_g = zg[s];
        const float o_g = zo[s];
        const float tanh_c = tanhOne(c[s]);
        const float dh_v = dh[s];

        const float do_v = dh_v * tanh_c;
        const float dc_v =
            dc[s] + (dh_v * o_g) * (1.0f - tanh_c * tanh_c);

        const float di_v = dc_v * g_g;
        const float dg_v = dc_v * i_g;
        const float cp = cprev != nullptr ? cprev[s] : 0.0f;
        const float df_v = dc_v * cp;

        dzi[s] = (di_v * i_g) * (1.0f - i_g);
        dzf[s] = (df_v * f_g) * (1.0f - f_g);
        dzg[s] = dg_v * (1.0f - g_g * g_g);
        dzo[s] = (do_v * o_g) * (1.0f - o_g);

        dc[s] = dc_v * f_g; // Carried to step t-1.
    }
}

void
scalarAdam(float *p, const float *g, float *m, float *v, std::size_t n,
           const AdamConsts &k)
{
    for (std::size_t j = 0; j < n; ++j) {
        const float gj = g[j] * k.gradScale;
        const float mj = k.beta1 * m[j] + k.oneMinusBeta1 * gj;
        const float g2 = gj * gj;
        const float vj = k.beta2 * v[j] + k.oneMinusBeta2 * g2;
        m[j] = mj;
        v[j] = vj;
        const float num = k.learningRate * (mj * k.invBiasCorrection1);
        const float den =
            std::sqrt(vj * k.invBiasCorrection2) + k.epsilon;
        p[j] = p[j] - num / den;
    }
}

// Windows [first, outLen) of maxPool, one at a time.
void
scalarMaxPool(const float *x, std::size_t len, std::size_t pool,
              std::size_t first, std::size_t outLen, std::uint32_t base,
              float *out, std::uint32_t *argmax)
{
    for (std::size_t t = first; t < outLen; ++t) {
        const std::size_t lo = t * pool;
        const std::size_t hi = std::min(lo + pool, len);
        float best = x[lo];
        std::size_t bestIdx = lo;
        // Select form compiles to cmov; a taken/not-taken branch here
        // is data-dependent and mispredicts.
        for (std::size_t k = lo + 1; k < hi; ++k) {
            const float v = x[k];
            bestIdx = v > best ? k : bestIdx;
            best = v > best ? v : best;
        }
        out[t] = best;
        argmax[t] = base + static_cast<std::uint32_t>(bestIdx);
    }
}

#if defined(BF_SIMD_X86)

// A function-level target attribute keeps the TU's baseline flags
// ISA-agnostic: the AVX2 path compiles for exactly the ISA it
// dispatches to, so a non-AVX2 build machine still produces it.
#define BF_K_AVX2 __attribute__((target("avx2")))

// ====================== AVX2 path ======================

BF_K_AVX2 inline __m256
expPs256(__m256 x)
{
    x = _mm256_min_ps(x, _mm256_set1_ps(kExpHi));
    x = _mm256_max_ps(x, _mm256_set1_ps(kExpLo));
    const __m256 t = _mm256_mul_ps(x, _mm256_set1_ps(kLog2e));
    const __m256i ni = _mm256_cvtps_epi32(t); // nearest-even
    const __m256 fn = _mm256_cvtepi32_ps(ni);
    __m256 r =
        _mm256_sub_ps(x, _mm256_mul_ps(fn, _mm256_set1_ps(kLn2Hi)));
    r = _mm256_sub_ps(r, _mm256_mul_ps(fn, _mm256_set1_ps(kLn2Lo)));
    const __m256 z = _mm256_mul_ps(r, r);
    __m256 p = _mm256_set1_ps(kExpC0);
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC1));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC2));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC3));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC4));
    p = _mm256_add_ps(_mm256_mul_ps(p, r), _mm256_set1_ps(kExpC5));
    const __m256 y = _mm256_add_ps(
        _mm256_add_ps(_mm256_mul_ps(p, z), r), _mm256_set1_ps(1.0f));
    const __m256i ebits = _mm256_slli_epi32(
        _mm256_add_epi32(ni, _mm256_set1_epi32(127)), 23);
    return _mm256_mul_ps(y, _mm256_castsi256_ps(ebits));
}

BF_K_AVX2 inline __m256
sigmoidPs256(__m256 x)
{
    const __m256 nx = _mm256_xor_ps(x, _mm256_set1_ps(-0.0f));
    const __m256 e = expPs256(nx);
    const __m256 one = _mm256_set1_ps(1.0f);
    return _mm256_div_ps(one, _mm256_add_ps(one, e));
}

BF_K_AVX2 inline __m256
tanhPs256(__m256 x)
{
    const __m256 signMask = _mm256_set1_ps(-0.0f);
    const __m256 sign = _mm256_and_ps(x, signMask);
    const __m256 ax = _mm256_andnot_ps(signMask, x);
    const __m256 z2 = _mm256_mul_ps(x, x);
    __m256 p = _mm256_set1_ps(kTanhC0);
    p = _mm256_add_ps(_mm256_mul_ps(p, z2), _mm256_set1_ps(kTanhC1));
    p = _mm256_add_ps(_mm256_mul_ps(p, z2), _mm256_set1_ps(kTanhC2));
    p = _mm256_add_ps(_mm256_mul_ps(p, z2), _mm256_set1_ps(kTanhC3));
    p = _mm256_add_ps(_mm256_mul_ps(p, z2), _mm256_set1_ps(kTanhC4));
    const __m256 small =
        _mm256_add_ps(_mm256_mul_ps(_mm256_mul_ps(p, z2), x), x);
    const __m256 one = _mm256_set1_ps(1.0f);
    const __m256 e = expPs256(_mm256_add_ps(ax, ax));
    const __m256 large = _mm256_xor_ps(
        _mm256_sub_ps(
            one, _mm256_div_ps(_mm256_set1_ps(2.0f),
                               _mm256_add_ps(e, one))),
        sign);
    const __m256 mask =
        _mm256_cmp_ps(ax, _mm256_set1_ps(kTanhCut), _CMP_LT_OQ);
    return _mm256_or_ps(_mm256_and_ps(mask, small),
                        _mm256_andnot_ps(mask, large));
}

BF_K_AVX2 float
avx2Dot(const float *a, const float *b, std::size_t n)
{
    __m256 acc = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        acc = _mm256_add_ps(acc,
                            _mm256_mul_ps(_mm256_loadu_ps(a + i),
                                          _mm256_loadu_ps(b + i)));
    float tail = 0.0f;
    for (; i < n; ++i)
        tail += a[i] * b[i];
    return simd::hsum8(acc) + tail;
}

BF_K_AVX2 void
avx2DotTile4x2(float *c, const float *a, const float *b, std::size_t i0,
               std::size_t j0, std::size_t k, std::size_t n)
{
    const float *ar[4] = {a + (i0 + 0) * k, a + (i0 + 1) * k,
                          a + (i0 + 2) * k, a + (i0 + 3) * k};
    const float *bc[2] = {b + (j0 + 0) * k, b + (j0 + 1) * k};
    __m256 acc[4][2];
    for (int r = 0; r < 4; ++r)
        for (int cc = 0; cc < 2; ++cc)
            acc[r][cc] = _mm256_setzero_ps();
    std::size_t t = 0;
    for (; t + 8 <= k; t += 8) {
        const __m256 vb0 = _mm256_loadu_ps(bc[0] + t);
        const __m256 vb1 = _mm256_loadu_ps(bc[1] + t);
        for (int r = 0; r < 4; ++r) {
            const __m256 va = _mm256_loadu_ps(ar[r] + t);
            acc[r][0] =
                _mm256_add_ps(acc[r][0], _mm256_mul_ps(va, vb0));
            acc[r][1] =
                _mm256_add_ps(acc[r][1], _mm256_mul_ps(va, vb1));
        }
    }
    for (int r = 0; r < 4; ++r) {
        for (int cc = 0; cc < 2; ++cc) {
            float tail = 0.0f;
            for (std::size_t tt = t; tt < k; ++tt)
                tail += ar[r][tt] * bc[cc][tt];
            const float s = simd::hsum8(acc[r][cc]) + tail;
            c[(i0 + static_cast<std::size_t>(r)) * n + j0 +
              static_cast<std::size_t>(cc)] += s;
        }
    }
}

BF_K_AVX2 void
avx2LstmForward(float *zi, float *zf, float *zg, float *zo, float *c,
                float *h, std::size_t n)
{
    std::size_t s = 0;
    for (; s + 8 <= n; s += 8) {
        const __m256 i_g = sigmoidPs256(_mm256_loadu_ps(zi + s));
        const __m256 f_g = sigmoidPs256(_mm256_loadu_ps(zf + s));
        const __m256 g_g = tanhPs256(_mm256_loadu_ps(zg + s));
        const __m256 o_g = sigmoidPs256(_mm256_loadu_ps(zo + s));
        _mm256_storeu_ps(zi + s, i_g);
        _mm256_storeu_ps(zf + s, f_g);
        _mm256_storeu_ps(zg + s, g_g);
        _mm256_storeu_ps(zo + s, o_g);
        const __m256 c_new =
            _mm256_add_ps(_mm256_mul_ps(f_g, _mm256_loadu_ps(c + s)),
                          _mm256_mul_ps(i_g, g_g));
        _mm256_storeu_ps(c + s, c_new);
        _mm256_storeu_ps(h + s, _mm256_mul_ps(o_g, tanhPs256(c_new)));
    }
    scalarLstmForward(zi + s, zf + s, zg + s, zo + s, c + s, h + s,
                      n - s);
}

BF_K_AVX2 void
avx2LstmBackward(const float *zi, const float *zf, const float *zg,
                 const float *zo, const float *c, const float *cprev,
                 const float *dh, float *dc, float *dzi, float *dzf,
                 float *dzg, float *dzo, std::size_t n)
{
    const __m256 one = _mm256_set1_ps(1.0f);
    std::size_t s = 0;
    for (; s + 8 <= n; s += 8) {
        const __m256 i_g = _mm256_loadu_ps(zi + s);
        const __m256 f_g = _mm256_loadu_ps(zf + s);
        const __m256 g_g = _mm256_loadu_ps(zg + s);
        const __m256 o_g = _mm256_loadu_ps(zo + s);
        const __m256 tanh_c = tanhPs256(_mm256_loadu_ps(c + s));
        const __m256 dh_v = _mm256_loadu_ps(dh + s);

        const __m256 do_v = _mm256_mul_ps(dh_v, tanh_c);
        const __m256 dc_v = _mm256_add_ps(
            _mm256_loadu_ps(dc + s),
            _mm256_mul_ps(
                _mm256_mul_ps(dh_v, o_g),
                _mm256_sub_ps(one, _mm256_mul_ps(tanh_c, tanh_c))));

        const __m256 di_v = _mm256_mul_ps(dc_v, g_g);
        const __m256 dg_v = _mm256_mul_ps(dc_v, i_g);
        const __m256 cp = cprev != nullptr ? _mm256_loadu_ps(cprev + s)
                                           : _mm256_setzero_ps();
        const __m256 df_v = _mm256_mul_ps(dc_v, cp);

        _mm256_storeu_ps(dzi + s,
                         _mm256_mul_ps(_mm256_mul_ps(di_v, i_g),
                                       _mm256_sub_ps(one, i_g)));
        _mm256_storeu_ps(dzf + s,
                         _mm256_mul_ps(_mm256_mul_ps(df_v, f_g),
                                       _mm256_sub_ps(one, f_g)));
        _mm256_storeu_ps(
            dzg + s,
            _mm256_mul_ps(
                dg_v, _mm256_sub_ps(one, _mm256_mul_ps(g_g, g_g))));
        _mm256_storeu_ps(dzo + s,
                         _mm256_mul_ps(_mm256_mul_ps(do_v, o_g),
                                       _mm256_sub_ps(one, o_g)));

        _mm256_storeu_ps(dc + s, _mm256_mul_ps(dc_v, f_g));
    }
    scalarLstmBackward(zi + s, zf + s, zg + s, zo + s, c + s,
                       cprev != nullptr ? cprev + s : nullptr, dh + s,
                       dc + s, dzi + s, dzf + s, dzg + s, dzo + s,
                       n - s);
}

// Eight pool-4 windows per step: four loads cover windows t..t+7, a
// 4x4 transpose inside each 128-bit half turns them into e0..e3 (the
// k-th element of every window, windows in lane order 0 2 4 6 1 3 5
// 7), and the scalar scan's compares run lane-wise in the same order.
// Returns the first window left for the scalar scan.
BF_K_AVX2 std::size_t
avx2MaxPool4(const float *x, std::size_t outLen, std::uint32_t base,
             float *out, std::uint32_t *argmax)
{
    const __m256i toWindowOrder = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
    const __m256i windowStart =
        _mm256_setr_epi32(0, 4, 8, 12, 16, 20, 24, 28);
    std::size_t t = 0;
    for (; t + 8 <= outLen; t += 8) {
        const float *w = x + 4 * t;
        const __m256 a0 = _mm256_loadu_ps(w);
        const __m256 a1 = _mm256_loadu_ps(w + 8);
        const __m256 a2 = _mm256_loadu_ps(w + 16);
        const __m256 a3 = _mm256_loadu_ps(w + 24);
        const __m256 lo01 = _mm256_unpacklo_ps(a0, a1);
        const __m256 hi01 = _mm256_unpackhi_ps(a0, a1);
        const __m256 lo23 = _mm256_unpacklo_ps(a2, a3);
        const __m256 hi23 = _mm256_unpackhi_ps(a2, a3);
        const __m256 e[4] = {
            _mm256_shuffle_ps(lo01, lo23, _MM_SHUFFLE(1, 0, 1, 0)),
            _mm256_shuffle_ps(lo01, lo23, _MM_SHUFFLE(3, 2, 3, 2)),
            _mm256_shuffle_ps(hi01, hi23, _MM_SHUFFLE(1, 0, 1, 0)),
            _mm256_shuffle_ps(hi01, hi23, _MM_SHUFFLE(3, 2, 3, 2))};
        __m256 best = e[0];
        __m256i bestK = _mm256_setzero_si256();
        for (int k = 1; k < 4; ++k) {
            // v > best, false when either is NaN: the scalar compare.
            const __m256 gt = _mm256_cmp_ps(e[k], best, _CMP_GT_OQ);
            best = _mm256_blendv_ps(best, e[k], gt);
            bestK = _mm256_blendv_epi8(bestK, _mm256_set1_epi32(k),
                                       _mm256_castps_si256(gt));
        }
        best = _mm256_permutevar8x32_ps(best, toWindowOrder);
        bestK = _mm256_permutevar8x32_epi32(bestK, toWindowOrder);
        const __m256i idx = _mm256_add_epi32(
            _mm256_add_epi32(bestK, windowStart),
            _mm256_set1_epi32(static_cast<int>(
                base + static_cast<std::uint32_t>(4 * t))));
        _mm256_storeu_ps(out + t, best);
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(argmax + t), idx);
    }
    // Four more windows, if left, the same way in one 128-bit half,
    // where the transpose already yields windows in order.
    if (t + 4 <= outLen) {
        const float *w = x + 4 * t;
        __m128 a0 = _mm_loadu_ps(w);
        __m128 a1 = _mm_loadu_ps(w + 4);
        __m128 a2 = _mm_loadu_ps(w + 8);
        __m128 a3 = _mm_loadu_ps(w + 12);
        _MM_TRANSPOSE4_PS(a0, a1, a2, a3);
        const __m128 e[4] = {a0, a1, a2, a3};
        __m128 best = e[0];
        __m128i bestK = _mm_setzero_si128();
        for (int k = 1; k < 4; ++k) {
            const __m128 gt = _mm_cmpgt_ps(e[k], best);
            best = _mm_blendv_ps(best, e[k], gt);
            bestK = _mm_blendv_epi8(bestK, _mm_set1_epi32(k),
                                    _mm_castps_si128(gt));
        }
        const __m128i idx = _mm_add_epi32(
            _mm_add_epi32(bestK, _mm_setr_epi32(0, 4, 8, 12)),
            _mm_set1_epi32(static_cast<int>(
                base + static_cast<std::uint32_t>(4 * t))));
        _mm_storeu_ps(out + t, best);
        _mm_storeu_si128(reinterpret_cast<__m128i *>(argmax + t), idx);
        t += 4;
    }
    return t;
}

#endif // BF_SIMD_X86

} // namespace

// ====================== public kernels ======================

float
dot(const float *a, const float *b, std::size_t n)
{
#if defined(BF_SIMD_X86)
    if (simd::active() == simd::Tag::Avx2)
        return avx2Dot(a, b, n);
#endif
    return scalarDot(a, b, n);
}

void
dotTile4x2(float *c, const float *a, const float *b, std::size_t i0,
           std::size_t j0, std::size_t k, std::size_t n)
{
#if defined(BF_SIMD_X86)
    if (simd::active() == simd::Tag::Avx2) {
        avx2DotTile4x2(c, a, b, i0, j0, k, n);
        return;
    }
#endif
    scalarDotTile4x2(c, a, b, i0, j0, k, n);
}

void
dotRowsSparse(float *c, const float *a, const float *bt, std::size_t rows,
              std::size_t k, std::size_t n)
{
    constexpr std::size_t kLanes = 8;
    const std::size_t body = k - k % kLanes;
    // n floats per lane, lanes 0..7 and then the tail at kLanes. A lane
    // is written on its first term and added to after that, so only the
    // lanes a row leaves untouched are zeroed before the combine.
    std::vector<float> acc((kLanes + 1) * n);
    std::vector<std::uint32_t> kept(k);
    for (std::size_t i = 0; i < rows; ++i) {
        const float *ar = a + i * k;
        // Branch-free compaction of the kept columns (NaN != 0 keeps
        // NaNs), so the zeros cost no mispredicted branch.
        std::size_t count = 0;
        for (std::size_t t = 0; t < k; ++t) {
            kept[count] = static_cast<std::uint32_t>(t);
            count += ar[t] != 0.0f ? 1 : 0;
        }
        unsigned touched = 0;
        for (std::size_t e = 0; e < count; ++e) {
            const std::size_t t = kept[e];
            const std::size_t lane = t < body ? t % kLanes : kLanes;
            float *__restrict l = acc.data() + lane * n;
            const float *__restrict x = bt + t * n;
            const float av = ar[t];
            if ((touched >> lane & 1u) != 0) {
                for (std::size_t j = 0; j < n; ++j)
                    l[j] = l[j] + av * x[j];
            } else {
                // The lane's +0 start plus its first term.
                touched |= 1u << lane;
                for (std::size_t j = 0; j < n; ++j)
                    l[j] = 0.0f + av * x[j];
            }
        }
        for (std::size_t lane = 0; lane <= kLanes; ++lane)
            if ((touched >> lane & 1u) == 0)
                std::fill_n(acc.data() + lane * n, n, 0.0f);
        const float *__restrict l0 = acc.data();
        const float *__restrict l1 = l0 + n;
        const float *__restrict l2 = l1 + n;
        const float *__restrict l3 = l2 + n;
        const float *__restrict l4 = l3 + n;
        const float *__restrict l5 = l4 + n;
        const float *__restrict l6 = l5 + n;
        const float *__restrict l7 = l6 + n;
        const float *__restrict tail = l7 + n;
        float *__restrict cr = c + i * n;
        // The canonical combine tree, then the tail, then C: dot's
        // order, one column per vector lane.
        for (std::size_t j = 0; j < n; ++j)
            cr[j] += (((l0[j] + l4[j]) + (l2[j] + l6[j])) +
                      ((l1[j] + l5[j]) + (l3[j] + l7[j]))) +
                     tail[j];
    }
}

void
axpy(float *y, const float *x, float a, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        y[j] = y[j] + a * x[j];
}

void
maxPool(const float *x, std::size_t len, std::size_t pool,
        std::size_t outLen, std::uint32_t base, float *out,
        std::uint32_t *argmax)
{
    std::size_t first = 0;
#if defined(BF_SIMD_X86)
    // outLen full windows fit in len whenever len >= pool, so the
    // vector loads never read past the row.
    if (simd::active() == simd::Tag::Avx2 && pool == 4 && len >= pool)
        first = avx2MaxPool4(x, outLen, base, out, argmax);
#endif
    scalarMaxPool(x, len, pool, first, outLen, base, out, argmax);
}

void
addRowSums(float *acc, const float *m, std::size_t rows, std::size_t cols)
{
    constexpr std::size_t kRows = 8;
    std::size_t r = 0;
    for (; r + kRows <= rows; r += kRows) {
        const float *block = m + r * cols;
        float sum[kRows] = {};
        for (std::size_t t = 0; t < cols; ++t)
            for (std::size_t l = 0; l < kRows; ++l)
                sum[l] += block[l * cols + t];
        for (std::size_t l = 0; l < kRows; ++l)
            acc[r + l] += sum[l];
    }
    for (; r < rows; ++r) {
        const float *row = m + r * cols;
        float sum = 0.0f;
        for (std::size_t t = 0; t < cols; ++t)
            sum += row[t];
        acc[r] += sum;
    }
}

void
gemm(float *c, const float *a, std::size_t rowStride,
     std::size_t colStride, const float *b, std::size_t rows,
     std::size_t k, std::size_t n)
{
    const std::size_t full = n - n % kTileCols;
    float bTail[kBlockK * kTileCols];
    for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
        const std::size_t kb = std::min(k - k0, kBlockK);
        const float *ak = a + k0 * colStride;
        const float *bk = b + k0 * n;
        if (full < n)
            for (std::size_t kk = 0; kk < kb; ++kk)
                for (std::size_t j = 0; j < kTileCols; ++j)
                    bTail[kk * kTileCols + j] =
                        full + j < n ? bk[kk * n + full + j] : 0.0f;
        std::size_t i = 0;
        for (; i + 4 <= rows; i += 4)
            gemmRows<4>(c + i * n, ak + i * rowStride, rowStride,
                        colStride, bk, bTail, kb, n);
        float *ci = c + i * n;
        const float *ai = ak + i * rowStride;
        switch (rows - i) {
          case 3:
            gemmRows<3>(ci, ai, rowStride, colStride, bk, bTail, kb, n);
            break;
          case 2:
            gemmRows<2>(ci, ai, rowStride, colStride, bk, bTail, kb, n);
            break;
          case 1:
            gemmRows<1>(ci, ai, rowStride, colStride, bk, bTail, kb, n);
            break;
          default:
            break;
        }
    }
}

// The scalar transcendentals are deliberately Tag-independent: the
// kernel tests use them one value at a time as the reference every lane
// of lstmGatesForward must match at every BF_SIMD setting — which it
// does, because the vector lanes compute exactly this operation
// sequence.

float
sigmoidScalar(float x)
{
    return sigmoidOne(x);
}

float
tanhScalar(float x)
{
    return tanhOne(x);
}

void
lstmGatesForward(float *zi, float *zf, float *zg, float *zo, float *c,
                 float *h, std::size_t n)
{
#if defined(BF_SIMD_X86)
    if (simd::active() == simd::Tag::Avx2) {
        avx2LstmForward(zi, zf, zg, zo, c, h, n);
        return;
    }
#endif
    scalarLstmForward(zi, zf, zg, zo, c, h, n);
}

void
lstmGatesBackward(const float *zi, const float *zf, const float *zg,
                  const float *zo, const float *c, const float *cprev,
                  const float *dh, float *dc, float *dzi, float *dzf,
                  float *dzg, float *dzo, std::size_t n)
{
#if defined(BF_SIMD_X86)
    if (simd::active() == simd::Tag::Avx2) {
        avx2LstmBackward(zi, zf, zg, zo, c, cprev, dh, dc, dzi, dzf,
                         dzg, dzo, n);
        return;
    }
#endif
    scalarLstmBackward(zi, zf, zg, zo, c, cprev, dh, dc, dzi, dzf, dzg,
                       dzo, n);
}

bool
allFinite(const float *x, std::size_t n)
{
    // An exponent of all ones (infinity or NaN) carries into bit 31
    // when 1 is added at the exponent's lowest bit; any other exponent
    // does not. OR-ing every sum needs no compare and no exit.
    std::uint32_t carry = 0;
    for (std::size_t i = 0; i < n; ++i)
        carry |= (floatBits(x[i]) & 0x7f800000u) + 0x00800000u;
    return (carry & 0x80000000u) == 0;
}

void
adamStep(float *p, const float *g, float *m, float *v, std::size_t n,
         const AdamConsts &consts)
{
    scalarAdam(p, g, m, v, n, consts);
}

} // namespace bigfish::ml::kernels
