/**
 * @file
 * The vectorized kernel layer behind the ML hot loops.
 *
 * Every floating-point inner loop that dominates training — GEMM
 * primitives, LSTM/GRU gate math, the Adam update, activations — lives
 * here in AVX2 or portable scalar, dispatched at runtime behind
 * bf::simd::Tag (base/simd.hh). A kernel has an AVX2 spelling only
 * where it beats the scalar loop (the Adam update does not). The callers
 * (ml/matrix.cc, lstm/gru, network) keep their loop *structure* and
 * delegate the arithmetic, so blocking decisions stay where they were
 * while the flops dispatch to the best ISA.
 *
 * Determinism contract (DESIGN.md §10), load-bearing for cache
 * fingerprints and `--resume` replay:
 *
 *  - Reductions (dot, dotTile4x2) accumulate into a fixed 8-lane
 *    virtual accumulator: lane l sums a[i+l]*b[i+l] for i = 0, 8, 16…,
 *    the lanes combine through one canonical tree
 *    (((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))), and the n%8 tail is
 *    added serially afterwards. The scalar path emulates exactly the
 *    lanes AVX2 holds in one register, so both Tags return the same
 *    bits.
 *  - Elementwise kernels evaluate one fixed expression tree per
 *    element using IEEE-exact operations only (+ - * / sqrt); no
 *    fused multiply-add anywhere (this file's TU builds with
 *    -ffp-contract=off so the compiler cannot introduce one).
 *  - sigmoid/tanh are polynomial approximations (Cephes-derived
 *    expf/tanhf, ~2 ulp) evaluated in the same operation order on
 *    both paths — std::exp/std::tanh vary by libm version and cannot
 *    be vectorized reproducibly.
 */

#ifndef BF_ML_KERNELS_HH
#define BF_ML_KERNELS_HH

#include <cstddef>

namespace bigfish::ml::kernels {

// --- Reductions (fixed 8-lane virtual accumulator) ---------------------

/** Dot product of two contiguous float spans. */
float dot(const float *a, const float *b, std::size_t n);

/**
 * 4x2 register tile of C += A * B^T: rows i0..i0+3 of @p a against
 * rows j0..j0+1 of @p b, each output element accumulated exactly like
 * dot() of the same operand rows (same lanes, same tree), so tiling is
 * a bandwidth optimization with no numeric effect. @p k is the shared
 * row length, @p n the row stride of C.
 */
void dotTile4x2(float *c, const float *a, const float *b, std::size_t i0,
                std::size_t j0, std::size_t k, std::size_t n);

// --- Elementwise GEMM helpers ------------------------------------------

/** y[j] += a * x[j]. */
void axpy(float *y, const float *x, float a, std::size_t n);

/**
 * Four fused axpys: y[j] += (a0*x0[j] + a1*x1[j]) + (a2*x2[j] +
 * a3*x3[j]) — the k-unrolled inner update of the row-major GEMM.
 */
void axpy4(float *y, const float *x0, const float *x1, const float *x2,
           const float *x3, float a0, float a1, float a2, float a3,
           std::size_t n);

/**
 * One output row of the k-blocked row-major GEMM:
 *   y[j] += sum over kk in [k0,k1) of a[kk*astride] * b[kk*n + j]
 * evaluated as exactly the axpy4-per-4-k / axpy-remainder sequence the
 * GEMM loops used to issue call by call — hoisted into the kernel
 * layer so ISA dispatch happens once per row panel, not once per four
 * k's (the per-call switch dominated small-k GEMMs). @p astride is 1
 * for row-major A, the row stride of A for the A^T walk.
 */
void gemmRowPanel(float *y, const float *a, std::size_t astride,
                  const float *b, std::size_t k0, std::size_t k1,
                  std::size_t n);

/** d[i] = max(d[i], 0). */
void relu(float *d, std::size_t n);

// --- Activations (polynomial, bit-identical across Tags) ---------------

/** d[i] = 1 / (1 + exp(-d[i])), in place. */
void sigmoid(float *d, std::size_t n);

/** d[i] = tanh(d[i]), in place. */
void tanh(float *d, std::size_t n);

/** The scalar path's sigmoid for one value (GRU's strided gate loop). */
float sigmoidScalar(float x);

/** The scalar path's tanh for one value. */
float tanhScalar(float x);

/** The scalar path's exp for one value (exposed for property tests). */
float expScalar(float x);

// --- Fused recurrent gate math -----------------------------------------

/**
 * One LSTM step's gate fusion over @p n contiguous lanes (lane =
 * sample in the batched layout, hidden unit in the single-sample
 * layout): activates the four pre-activation blocks in place (caching
 * them for BPTT), then updates cell and hidden state:
 *
 *   i=sig(zi) f=sig(zf) g=tanh(zg) o=sig(zo)
 *   c = f*c + i*g;  h = o * tanh(c)
 */
void lstmGatesForward(float *zi, float *zf, float *zg, float *zo,
                      float *c, float *h, std::size_t n);

/**
 * The matching BPTT gate-gradient fusion: given the cached
 * post-activation gates, cell states and incoming dh/dc, writes the
 * four pre-activation gradients and updates dc in place (dh is
 * consumed). @p cprev may be null (t = 0 ⇒ c_{t-1} = 0).
 */
void lstmGatesBackward(const float *zi, const float *zf, const float *zg,
                       const float *zo, const float *c,
                       const float *cprev, const float *dh, float *dc,
                       float *dzi, float *dzf, float *dzg, float *dzo,
                       std::size_t n);

// --- Optimizer ----------------------------------------------------------

/** The scalar hyperparameters one Adam step needs. */
struct AdamConsts
{
    float beta1, beta2;       ///< Moment decays.
    float oneMinusBeta1;      ///< 1 - beta1.
    float oneMinusBeta2;      ///< 1 - beta2.
    float invBiasCorrection1; ///< 1 / (1 - beta1^t).
    float invBiasCorrection2; ///< 1 / (1 - beta2^t).
    float learningRate;
    float epsilon;
    float gradScale; ///< Multiplier applied to gradients (1/batch).
};

/**
 * One elementwise Adam update over @p n parameters:
 *   g' = g*scale; m = b1*m + (1-b1)*g'; v = b2*v + (1-b2)*g'*g';
 *   p -= lr * (m*invBc1) / (sqrt(v*invBc2) + eps)
 */
void adamStep(float *p, const float *g, float *m, float *v, std::size_t n,
              const AdamConsts &consts);

} // namespace bigfish::ml::kernels

#endif // BF_ML_KERNELS_HH
