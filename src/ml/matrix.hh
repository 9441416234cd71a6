/**
 * @file
 * A minimal dense float matrix plus the optimized kernels the
 * from-scratch neural network runs on.
 *
 * Row-major and value-semantic, with 32-byte-aligned storage
 * (base/aligned.hh) so the SIMD kernel layer's 256-bit accesses start
 * aligned. The GEMM entry points below keep the blocking structure and
 * delegate all floating-point arithmetic to ml/kernels.hh, whose
 * per-ISA implementations are bit-identical by construction;
 * matmulReference() keeps the naive triple loop as the
 * correctness oracle for property tests and the old-vs-new
 * microbenchmarks. Every GEMM runs on its calling thread (training
 * parallelism is one task per fold), so results never depend on the
 * pool's thread count.
 * Convention used by the layers: a 1-D time series sample is a
 * (channels x time) matrix; a feature vector is (features x 1).
 */

#ifndef BF_ML_MATRIX_HH
#define BF_ML_MATRIX_HH

#include <cstddef>
#include <vector>

#include "base/aligned.hh"
#include "base/rng.hh"

namespace bigfish::ml {

/** Dense row-major float matrix. */
class Matrix
{
  public:
    /** An empty 0x0 matrix. */
    Matrix() = default;

    /** A zero-initialized rows x cols matrix. */
    Matrix(std::size_t rows, std::size_t cols);

    /**
     * A rows x cols matrix whose elements are left unwritten, for an
     * output its producer overwrites in full (matmulBias seeds every
     * element with the bias; a pooled map writes every cell). Reading
     * an element before writing it is undefined.
     */
    static Matrix uninitialized(std::size_t rows, std::size_t cols);

    /** Builds from explicit data (size must equal rows*cols). */
    Matrix(std::size_t rows, std::size_t cols, std::vector<float> data);

    std::size_t rows() const { return rows_; }
    std::size_t cols() const { return cols_; }
    std::size_t size() const { return data_.size(); }

    float &operator()(std::size_t r, std::size_t c)
    {
        return data_[r * cols_ + c];
    }
    float operator()(std::size_t r, std::size_t c) const
    {
        return data_[r * cols_ + c];
    }

    float *data() { return data_.data(); }
    const float *data() const { return data_.data(); }

    /**
     * Reshapes to rows x cols, reusing the existing allocation when it
     * is large enough (hot-path buffers). Contents are unspecified
     * afterwards unless @p zeroed is true.
     */
    void resize(std::size_t rows, std::size_t cols, bool zeroed = false);

    /** Sets every element to @p value. */
    void fill(float value);

    /** Sets every element to zero. */
    void zero() { fill(0.0f); }

    /** Fills with N(0, stddev) deviates (weight initialization). */
    void randomize(Rng &rng, double stddev);

    /** Element-wise in-place addition; shapes must match. */
    Matrix &operator+=(const Matrix &other);

    /** Multiplies every element by @p value. */
    Matrix &operator*=(float value);

    /** Sum of all elements. */
    double sum() const;

  private:
    std::size_t rows_ = 0;
    std::size_t cols_ = 0;
    AlignedVector<float> data_;
};

/** C = A * B (inner dimensions must agree). */
Matrix matmul(const Matrix &a, const Matrix &b);

/**
 * Fused C = A * B + bias: @p bias is a (rows x 1) column broadcast
 * across every output column (the GEMM epilogue the conv/dense/recurrent
 * layers all need, saving one full pass over the output).
 */
Matrix matmulBias(const Matrix &a, const Matrix &b, const Matrix &bias);

/** C = A^T * B. */
Matrix matmulTransA(const Matrix &a, const Matrix &b);

/** C += A^T * B. */
void accumulateMatmulTransA(Matrix &c, const Matrix &a, const Matrix &b);

/** C += A * B^T. */
void accumulateMatmulTransB(Matrix &c, const Matrix &a, const Matrix &b);

/**
 * True when accumulateMatmulTransB, for a shared dimension @p k and
 * @p n rows of B, accumulates every element under kernels::dot's
 * contract (so kernels::dotRowsSparse gives the same bits). False for
 * the rank-1 case k == 1 and for the short-k transposed GEMM.
 */
bool matmulTransBUsesDot(std::size_t k, std::size_t n);

/**
 * Matrix-vector product y = A * x for a (n x 1) column @p x — the
 * recurrent-layer hot path, dispatched to a dot-product kernel instead
 * of the general GEMM.
 */
Matrix gemv(const Matrix &a, const Matrix &x);

/** Fused y = A * x + b for (n x 1) columns. */
Matrix gemvBias(const Matrix &a, const Matrix &x, const Matrix &b);

/**
 * The naive i-j-k triple-loop matmul the optimized kernels replaced.
 * Kept as the oracle for kernel property tests and the old-vs-new
 * microbenchmark; never used on the hot path.
 */
Matrix matmulReference(const Matrix &a, const Matrix &b);

} // namespace bigfish::ml

#endif // BF_ML_MATRIX_HH
