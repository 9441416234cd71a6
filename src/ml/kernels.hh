/**
 * @file
 * The vectorized kernel layer behind the ML hot loops.
 *
 * Every floating-point inner loop that dominates training — GEMM
 * primitives, LSTM gate math, max pooling, bias sums, the Adam update —
 * lives here. A kernel
 * has an AVX2 spelling, dispatched at runtime behind bf::simd::Tag
 * (base/simd.hh), only where it beats the scalar loop: dot, dotTile4x2,
 * the two LSTM gate fusions and maxPool. dotRowsSparse, axpy, gemm,
 * addRowSums, allFinite and adamStep are scalar only: plain C++ that
 * -march=native vectorizes.
 * gemm owns its own k blocking and register tiling; the other callers
 * (ml/matrix.cc, layer, conv, lstm, network) keep their loop
 * *structure* and delegate the arithmetic.
 *
 * Determinism contract (DESIGN.md §10), load-bearing for cache
 * fingerprints and `--cache-dir` replay:
 *
 *  - Reductions (dot, dotTile4x2) accumulate into a fixed 8-lane
 *    virtual accumulator: lane l sums a[i+l]*b[i+l] for i = 0, 8, 16…,
 *    the lanes combine through one canonical tree
 *    (((l0+l4)+(l2+l6)) + ((l1+l5)+(l3+l7))), and the n%8 tail is
 *    added serially afterwards. The scalar path emulates exactly the
 *    lanes AVX2 holds in one register, so both Tags return the same
 *    bits.
 *  - Elementwise kernels, gemm included, evaluate one fixed
 *    expression tree per element using IEEE-exact operations only
 *    (+ - * / sqrt); no fused multiply-add anywhere (all of bf_ml
 *    builds with -ffp-contract=off so the compiler cannot introduce
 *    one).
 *  - The LSTM gates' sigmoid/tanh are polynomial approximations
 *    (Cephes-derived expf/tanhf, ~2 ulp) evaluated in the same
 *    operation order on both paths — std::exp/std::tanh vary by libm
 *    version and cannot be vectorized reproducibly.
 */

#ifndef BF_ML_KERNELS_HH
#define BF_ML_KERNELS_HH

#include <cstddef>
#include <cstdint>

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

/**
 * C(rows x n) += A(rows x k) * B^T for a B(n x k) given transposed:
 * @p bt is (k x n), its row t holding column t of B. Every term whose
 * A entry is +0 or -0 is skipped; every other term is accumulated
 * exactly like dot() of A's row and B's row: lane t % 8 in increasing
 * t, the same combine tree, and the k % 8 tail summed from +0 and added
 * after the tree. The result equals dot()'s bit for bit whenever every
 * skipped term's B value is finite: a lane starts at +0 and can never
 * become -0 (x + y is -0 only when both are), so adding the finite
 * +-0 product of a skipped term leaves it unchanged. A non-finite B
 * value under a zero of A would have made a NaN, so the caller must
 * check B (DESIGN.md §10). Scalar only: the work per kept term is one
 * n-wide row update, which -march=native vectorizes.
 */
void dotRowsSparse(float *c, const float *a, const float *bt,
                   std::size_t rows, std::size_t k, std::size_t n);

// --- Elementwise GEMM helpers ------------------------------------------

/** y[j] += a * x[j]. */
void axpy(float *y, const float *x, float a, std::size_t n);

/**
 * The row-major GEMM C(rows x n) += A * B over a shared dimension k:
 *   c[i*n + j] += sum over kk of a[i*rowStride + kk*colStride] * b[kk*n + j]
 * A row-major A has (rowStride, colStride) = (k, 1); the A^T walk reads
 * a row-major A column-wise with (1, row length of A). k runs in blocks
 * of 240, in order; within a block each element is evaluated four k's
 * at a time as y + ((a0*x0 + a1*x1) + (a2*x2 + a3*x3)), then y + a*x
 * per remaining k, never with a fused multiply-add. The work runs as
 * 4x16 register tiles (C held in registers for the whole block, each B
 * vector loaded once per four rows) with narrower row tiles and padded
 * column tiles on the tails; the tiling changes no bit of any element.
 */
void gemm(float *c, const float *a, std::size_t rowStride,
          std::size_t colStride, const float *b, std::size_t rows,
          std::size_t k, std::size_t n);

// --- Layer passes --------------------------------------------------------

/**
 * Non-overlapping max pooling of one sample's row @p x of length
 * @p len into @p outLen windows: window t covers
 * x[t*pool, min((t+1)*pool, len)) and writes its maximum to out[t] and
 * the winning column plus @p base to argmax[t]. Each window scans left
 * to right with a strict `>`, so ties keep the first index and a NaN
 * never displaces the running maximum. The AVX2 path runs pool = 4
 * eight windows per step with the same compares in the same order;
 * every other pool size, and the tail windows, run the scalar scan.
 */
void maxPool(const float *x, std::size_t len, std::size_t pool,
             std::size_t outLen, std::uint32_t base, float *out,
             std::uint32_t *argmax);

/**
 * acc[r] += (sum of row r of the row-major (rows x cols) @p m), each
 * row summed left to right from 0.0f: the bias gradient of a layer.
 * Eight rows run interleaved so their add chains overlap instead of
 * waiting on one add's latency at a time; the order within a row, and
 * so every sum, is that of one plain loop per row.
 */
void addRowSums(float *acc, const float *m, std::size_t rows,
                std::size_t cols);

// --- Activations (polynomial, bit-identical across Tags) ---------------

/** The LSTM gates' sigmoid for one value (the tests' reference). */
float sigmoidScalar(float x);

/** The LSTM gates' tanh for one value. */
float tanhScalar(float x);

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

/**
 * True when no element of @p x is an infinity or a NaN. Scans all
 * @p n values with no early exit (an OR over the exponent bits), so
 * the loop vectorizes.
 */
bool allFinite(const float *x, std::size_t n);

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
