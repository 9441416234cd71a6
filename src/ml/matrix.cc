#include "ml/matrix.hh"

#include <algorithm>
#include <span>

#include "base/logging.hh"
#include "ml/kernels.hh"

namespace bigfish::ml {

Matrix::Matrix(std::size_t rows, std::size_t cols)
    : rows_(rows), cols_(cols), data_(rows * cols, 0.0f)
{
}

Matrix
Matrix::uninitialized(std::size_t rows, std::size_t cols)
{
    Matrix m;
    m.resize(rows, cols);
    return m;
}

Matrix::Matrix(std::size_t rows, std::size_t cols, std::vector<float> data)
    : rows_(rows), cols_(cols), data_(data.begin(), data.end())
{
    panicIf(data_.size() != rows * cols, "Matrix data size mismatch");
}

void
Matrix::resize(std::size_t rows, std::size_t cols, bool zeroed)
{
    rows_ = rows;
    cols_ = cols;
    data_.resize(rows * cols);
    if (zeroed)
        zero();
}

void
Matrix::fill(float value)
{
    std::fill(data_.begin(), data_.end(), value);
}

void
Matrix::randomize(Rng &rng, double stddev)
{
    for (float &v : data_)
        v = static_cast<float>(rng.normal(0.0, stddev));
}

Matrix &
Matrix::operator+=(const Matrix &other)
{
    panicIf(rows_ != other.rows_ || cols_ != other.cols_,
            "Matrix += shape mismatch");
    // Size-checked spans: the compiler sees two distinct extents-checked
    // ranges and vectorizes without aliasing stalls.
    std::span<float> dst(data_);
    std::span<const float> src(other.data_);
    panicIf(dst.size() != src.size(), "Matrix += size mismatch");
    float *__restrict d = dst.data();
    const float *__restrict s = src.data();
    for (std::size_t i = 0; i < dst.size(); ++i)
        d[i] += s[i];
    return *this;
}

Matrix &
Matrix::operator*=(float value)
{
    std::span<float> dst(data_);
    float *__restrict d = dst.data();
    for (std::size_t i = 0; i < dst.size(); ++i)
        d[i] *= value;
    return *this;
}

double
Matrix::sum() const
{
    double total = 0.0;
    for (float v : data_)
        total += v;
    return total;
}

namespace {

// All floating-point arithmetic below delegates to the kernel layer
// (ml/kernels.hh); this file keeps only the choice of kernel per shape.
// Every GEMM runs on the calling thread: training parallelism lives one
// level up, in the per-fold tasks. kernels::dot's fixed 8-lane
// accumulation makes every reduction independent of the dispatch ISA,
// and kernels::gemm's fixed per-element expression tree makes its
// blocking and register tiling choose the speed, never the bits.

/**
 * C += A * B for row-major operands with @p rows output rows, with an
 * optional fused row-bias initialization.
 */
void
gemmAccRows(float *__restrict c, const float *__restrict a,
            const float *__restrict b, std::size_t rows, std::size_t k,
            std::size_t n, const float *__restrict bias)
{
    if (bias != nullptr) {
        for (std::size_t i = 0; i < rows; ++i) {
            float *__restrict crow = c + i * n;
            const float bi = bias[i];
            for (std::size_t j = 0; j < n; ++j)
                crow[j] = bi;
        }
    }
    kernels::gemm(c, a, k, 1, b, rows, k, n);
}

/**
 * C += A * B^T: rows of both operands are contiguous dots, dispatched
 * through the kernel layer's 4x2 register tile where the extents allow
 * (kernels::dotTile4x2 accumulates every C element exactly like
 * kernels::dot of the same operand rows, so the tile/dot split below
 * is a pure bandwidth optimization with no numeric effect at any ISA).
 *
 * k == 1 is the rank-1 outer-product case (dW += dOut * x^T with a
 * single column, the shape every backward pass hits for the conv2 /
 * LSTM / Dense weight gradients); per-element dots there would pay the
 * full accumulator setup for one multiply, so it runs as a contiguous
 * axpy per output row instead.
 */

void
gemmTransBAccRows(float *__restrict c, const float *__restrict a,
                  const float *__restrict b, std::size_t rows,
                  std::size_t k, std::size_t n)
{
    if (k == 1) {
        for (std::size_t i = 0; i < rows; ++i)
            kernels::axpy(c + i * n, b, a[i], n);
        return;
    }
    std::size_t i = 0;
    for (; i + 4 <= rows; i += 4) {
        std::size_t j = 0;
        for (; j + 2 <= n; j += 2)
            kernels::dotTile4x2(c, a, b, i, j, k, n);
        for (; j < n; ++j)
            for (std::size_t r = 0; r < 4; ++r)
                c[(i + r) * n + j] +=
                    kernels::dot(a + (i + r) * k, b + j * k, k);
    }
    for (; i < rows; ++i) {
        const float *__restrict arow = a + i * k;
        float *__restrict crow = c + i * n;
        for (std::size_t j = 0; j < n; ++j)
            crow[j] += kernels::dot(arow, b + j * k, k);
    }
}

/**
 * c += A^T * b for a single column b: accumulates b[r] * row r of A
 * into c, so every access is contiguous.
 */
void
gemmTransAVec(float *__restrict c, const float *__restrict a,
              const float *__restrict b, std::size_t a_rows,
              std::size_t a_cols)
{
    for (std::size_t r = 0; r < a_rows; ++r)
        kernels::axpy(c, a + r * a_cols, b[r], a_cols);
}

} // namespace

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    panicIf(a.cols() != b.rows(), "matmul inner dimension mismatch");
    if (b.cols() == 1)
        return gemv(a, b);
    Matrix c(a.rows(), b.cols());
    gemmAccRows(c.data(), a.data(), b.data(), a.rows(), a.cols(), b.cols(),
                nullptr);
    return c;
}

Matrix
matmulBias(const Matrix &a, const Matrix &b, const Matrix &bias)
{
    panicIf(a.cols() != b.rows(), "matmulBias inner dimension mismatch");
    panicIf(bias.rows() != a.rows() || bias.cols() != 1,
            "matmulBias bias must be (rows x 1)");
    if (b.cols() == 1)
        return gemvBias(a, b, bias);
    // gemmAccRows seeds every element with its row's bias before the
    // product accumulates, so a zero fill would be a wasted pass.
    Matrix c = Matrix::uninitialized(a.rows(), b.cols());
    gemmAccRows(c.data(), a.data(), b.data(), a.rows(), a.cols(), b.cols(),
                bias.data());
    return c;
}

Matrix
matmulTransA(const Matrix &a, const Matrix &b)
{
    panicIf(a.rows() != b.rows(), "matmulTransA dimension mismatch");
    Matrix c(a.cols(), b.cols());
    accumulateMatmulTransA(c, a, b);
    return c;
}

void
accumulateMatmulTransA(Matrix &c, const Matrix &a, const Matrix &b)
{
    panicIf(a.rows() != b.rows(),
            "accumulateMatmulTransA dimension mismatch");
    panicIf(c.rows() != a.cols() || c.cols() != b.cols(),
            "accumulateMatmulTransA output shape mismatch");
    // A single column (dX = W^T * dOut, the other common backward
    // shape) runs as contiguous axpys: the GEMM would walk A^T's rows,
    // the columns of A, with stride a.cols() per element.
    if (b.cols() == 1) {
        gemmTransAVec(c.data(), a.data(), b.data(), a.rows(), a.cols());
        return;
    }
    // Row i of A^T is column i of A: stride 1 between rows, a.cols()
    // between k's.
    kernels::gemm(c.data(), a.data(), 1, a.cols(), b.data(), a.cols(),
                  a.rows(), b.cols());
}

void
accumulateMatmulTransB(Matrix &c, const Matrix &a, const Matrix &b)
{
    panicIf(a.cols() != b.cols(),
            "accumulateMatmulTransB dimension mismatch");
    panicIf(c.rows() != a.rows() || c.cols() != b.rows(),
            "accumulateMatmulTransB output shape mismatch");
    const std::size_t k = a.cols();
    const std::size_t n = b.rows();
    if (k > 1 && k <= 32 && n >= 16) {
        // Short-k dots waste their accumulator setup; materialize B^T
        // (small: n*k floats) once and run the wide-row kernel instead.
        // The buffer belongs to this call, so concurrent fold tasks
        // doing the same GEMM never share scratch.
        std::vector<float> transposed(k * n);
        const float *__restrict bd = b.data();
        float *__restrict bt = transposed.data();
        for (std::size_t j = 0; j < n; ++j)
            for (std::size_t kk = 0; kk < k; ++kk)
                bt[kk * n + j] = bd[j * k + kk];
        gemmAccRows(c.data(), a.data(), bt, a.rows(), k, n, nullptr);
        return;
    }
    gemmTransBAccRows(c.data(), a.data(), b.data(), a.rows(), k, n);
}

Matrix
gemv(const Matrix &a, const Matrix &x)
{
    panicIf(x.cols() != 1, "gemv expects a column vector");
    panicIf(a.cols() != x.rows(), "gemv dimension mismatch");
    Matrix y = Matrix::uninitialized(a.rows(), 1);
    const float *__restrict ad = a.data();
    const float *__restrict xd = x.data();
    float *__restrict yd = y.data();
    const std::size_t k = a.cols();
    for (std::size_t i = 0; i < a.rows(); ++i)
        yd[i] = kernels::dot(ad + i * k, xd, k);
    return y;
}

Matrix
gemvBias(const Matrix &a, const Matrix &x, const Matrix &b)
{
    panicIf(x.cols() != 1, "gemvBias expects a column vector");
    panicIf(a.cols() != x.rows(), "gemvBias dimension mismatch");
    panicIf(b.rows() != a.rows() || b.cols() != 1,
            "gemvBias bias must be (rows x 1)");
    Matrix y = Matrix::uninitialized(a.rows(), 1);
    const float *__restrict ad = a.data();
    const float *__restrict xd = x.data();
    const float *__restrict bd = b.data();
    float *__restrict yd = y.data();
    const std::size_t k = a.cols();
    for (std::size_t i = 0; i < a.rows(); ++i)
        yd[i] = bd[i] + kernels::dot(ad + i * k, xd, k);
    return y;
}

Matrix
matmulReference(const Matrix &a, const Matrix &b)
{
    panicIf(a.cols() != b.rows(),
            "matmulReference inner dimension mismatch");
    Matrix c(a.rows(), b.cols());
    for (std::size_t i = 0; i < a.rows(); ++i) {
        for (std::size_t j = 0; j < b.cols(); ++j) {
            float sum = 0.0f;
            for (std::size_t k = 0; k < a.cols(); ++k)
                sum += a(i, k) * b(k, j);
            c(i, j) = sum;
        }
    }
    return c;
}

} // namespace bigfish::ml
