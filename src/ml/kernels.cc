/**
 * @file
 * The two ISA paths behind ml/kernels.hh: AVX2 or portable scalar.
 *
 * Every public kernel except adamStep dispatches on bf::simd::active()
 * to one of two implementations that are bit-identical by construction
 * — see the determinism contract in kernels.hh and DESIGN.md §10. Adam
 * is scalar-only: its AVX2 spelling measured at par with the
 * -march=native scalar loop. The rules this file lives by:
 *
 *  - Reductions hold a fixed 8-lane virtual accumulator. AVX2 keeps it
 *    in one __m256; the scalar path keeps float acc[8]. Both funnel
 *    through the one canonical combine tree (simd::hsum8) and add the
 *    n%8 tail serially afterwards.
 *  - Elementwise math uses one fixed expression tree per element, only
 *    IEEE-exact operations (+ - * / sqrt min max), and never a fused
 *    multiply-add: no FMA intrinsics appear below, and this TU builds
 *    with -ffp-contract=off so the compiler cannot introduce one.
 *  - exp/sigmoid/tanh are Cephes-derived polynomials whose scalar
 *    spelling performs exactly the operations the AVX2 path performs
 *    lane-wise (including min/max NaN semantics and nearest-even
 *    integer rounding), so a tail element equals its vector lane.
 */

#include "ml/kernels.hh"

#include <cmath>
#include <cstdint>
#include <cstring>

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

void
scalarAxpy(float *y, const float *x, float a, std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j)
        y[j] = y[j] + a * x[j];
}

void
scalarAxpy4(float *y, const float *x0, const float *x1, const float *x2,
            const float *x3, float a0, float a1, float a2, float a3,
            std::size_t n)
{
    for (std::size_t j = 0; j < n; ++j) {
        const float t01 = a0 * x0[j] + a1 * x1[j];
        const float t23 = a2 * x2[j] + a3 * x3[j];
        y[j] = y[j] + (t01 + t23);
    }
}

// flatten: the per-4-k axpy4 bodies inline into the panel loop — at the
// small n the training gemms run (batch-width panels), the ten-argument
// call per k-group otherwise costs as much as the vector work itself.
__attribute__((flatten)) void
scalarGemmRowPanel(float *y, const float *a, std::size_t astride,
                   const float *b, std::size_t k0, std::size_t k1,
                   std::size_t n)
{
    std::size_t kk = k0;
    for (; kk + 4 <= k1; kk += 4) {
        const float *b0 = b + kk * n;
        scalarAxpy4(y, b0, b0 + n, b0 + 2 * n, b0 + 3 * n,
                    a[kk * astride], a[(kk + 1) * astride],
                    a[(kk + 2) * astride], a[(kk + 3) * astride], n);
    }
    for (; kk < k1; ++kk)
        scalarAxpy(y, b + kk * n, a[kk * astride], n);
}

void
scalarRelu(float *d, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        d[i] = d[i] > 0.0f ? d[i] : 0.0f; // maxps(d, 0)
}

void
scalarSigmoid(float *d, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        d[i] = sigmoidOne(d[i]);
}

void
scalarTanh(float *d, std::size_t n)
{
    for (std::size_t i = 0; i < n; ++i)
        d[i] = tanhOne(d[i]);
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
avx2Axpy(float *y, const float *x, float a, std::size_t n)
{
    const __m256 va = _mm256_set1_ps(a);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 vy = _mm256_add_ps(
            _mm256_loadu_ps(y + j),
            _mm256_mul_ps(va, _mm256_loadu_ps(x + j)));
        _mm256_storeu_ps(y + j, vy);
    }
    for (; j < n; ++j)
        y[j] = y[j] + a * x[j];
}

BF_K_AVX2 void
avx2Axpy4(float *y, const float *x0, const float *x1, const float *x2,
          const float *x3, float a0, float a1, float a2, float a3,
          std::size_t n)
{
    const __m256 v0 = _mm256_set1_ps(a0);
    const __m256 v1 = _mm256_set1_ps(a1);
    const __m256 v2 = _mm256_set1_ps(a2);
    const __m256 v3 = _mm256_set1_ps(a3);
    std::size_t j = 0;
    for (; j + 8 <= n; j += 8) {
        const __m256 t01 =
            _mm256_add_ps(_mm256_mul_ps(v0, _mm256_loadu_ps(x0 + j)),
                          _mm256_mul_ps(v1, _mm256_loadu_ps(x1 + j)));
        const __m256 t23 =
            _mm256_add_ps(_mm256_mul_ps(v2, _mm256_loadu_ps(x2 + j)),
                          _mm256_mul_ps(v3, _mm256_loadu_ps(x3 + j)));
        _mm256_storeu_ps(y + j,
                         _mm256_add_ps(_mm256_loadu_ps(y + j),
                                       _mm256_add_ps(t01, t23)));
    }
    for (; j < n; ++j) {
        const float t01 = a0 * x0[j] + a1 * x1[j];
        const float t23 = a2 * x2[j] + a3 * x3[j];
        y[j] = y[j] + (t01 + t23);
    }
}

BF_K_AVX2 __attribute__((flatten)) void
avx2GemmRowPanel(float *y, const float *a, std::size_t astride,
                 const float *b, std::size_t k0, std::size_t k1,
                 std::size_t n)
{
    std::size_t kk = k0;
    for (; kk + 4 <= k1; kk += 4) {
        const float *b0 = b + kk * n;
        avx2Axpy4(y, b0, b0 + n, b0 + 2 * n, b0 + 3 * n,
                  a[kk * astride], a[(kk + 1) * astride],
                  a[(kk + 2) * astride], a[(kk + 3) * astride], n);
    }
    for (; kk < k1; ++kk)
        avx2Axpy(y, b + kk * n, a[kk * astride], n);
}

BF_K_AVX2 void
avx2Relu(float *d, std::size_t n)
{
    const __m256 zero = _mm256_setzero_ps();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(d + i,
                         _mm256_max_ps(_mm256_loadu_ps(d + i), zero));
    for (; i < n; ++i)
        d[i] = d[i] > 0.0f ? d[i] : 0.0f;
}

BF_K_AVX2 void
avx2Sigmoid(float *d, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(d + i, sigmoidPs256(_mm256_loadu_ps(d + i)));
    for (; i < n; ++i)
        d[i] = sigmoidOne(d[i]);
}

BF_K_AVX2 void
avx2Tanh(float *d, std::size_t n)
{
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(d + i, tanhPs256(_mm256_loadu_ps(d + i)));
    for (; i < n; ++i)
        d[i] = tanhOne(d[i]);
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

#endif // BF_SIMD_X86

} // namespace

// ====================== public dispatchers ======================

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
axpy(float *y, const float *x, float a, std::size_t n)
{
#if defined(BF_SIMD_X86)
    if (simd::active() == simd::Tag::Avx2) {
        avx2Axpy(y, x, a, n);
        return;
    }
#endif
    scalarAxpy(y, x, a, n);
}

void
axpy4(float *y, const float *x0, const float *x1, const float *x2,
      const float *x3, float a0, float a1, float a2, float a3,
      std::size_t n)
{
#if defined(BF_SIMD_X86)
    if (simd::active() == simd::Tag::Avx2) {
        avx2Axpy4(y, x0, x1, x2, x3, a0, a1, a2, a3, n);
        return;
    }
#endif
    scalarAxpy4(y, x0, x1, x2, x3, a0, a1, a2, a3, n);
}

void
gemmRowPanel(float *y, const float *a, std::size_t astride,
             const float *b, std::size_t k0, std::size_t k1,
             std::size_t n)
{
#if defined(BF_SIMD_X86)
    if (simd::active() == simd::Tag::Avx2) {
        avx2GemmRowPanel(y, a, astride, b, k0, k1, n);
        return;
    }
#endif
    scalarGemmRowPanel(y, a, astride, b, k0, k1, n);
}

void
relu(float *d, std::size_t n)
{
#if defined(BF_SIMD_X86)
    if (simd::active() == simd::Tag::Avx2) {
        avx2Relu(d, n);
        return;
    }
#endif
    scalarRelu(d, n);
}

void
sigmoid(float *d, std::size_t n)
{
#if defined(BF_SIMD_X86)
    if (simd::active() == simd::Tag::Avx2) {
        avx2Sigmoid(d, n);
        return;
    }
#endif
    scalarSigmoid(d, n);
}

void
tanh(float *d, std::size_t n)
{
#if defined(BF_SIMD_X86)
    if (simd::active() == simd::Tag::Avx2) {
        avx2Tanh(d, n);
        return;
    }
#endif
    scalarTanh(d, n);
}

// The scalar transcendentals are deliberately Tag-independent: callers
// with strided access (GRU's gate loop) use them per element and must
// get the same bits at every BF_SIMD setting — which they do, because
// the vector lanes compute exactly this operation sequence.

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

float
expScalar(float x)
{
    return expOne(x);
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

void
adamStep(float *p, const float *g, float *m, float *v, std::size_t n,
         const AdamConsts &consts)
{
    scalarAdam(p, g, m, v, n, consts);
}

} // namespace bigfish::ml::kernels
