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

Matrix
Matrix::flattened() const
{
    Matrix out;
    out.rows_ = data_.size();
    out.cols_ = 1;
    out.data_ = data_;
    return out;
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

/**
 * Kernel tuning constant: KC blocks the inner (k) dimension so the
 * active B panel stays cache-resident across output rows.
 */
constexpr std::size_t kBlockK = 240;

// All floating-point arithmetic below delegates to the runtime-
// dispatched SIMD kernel layer; this file keeps only the blocking
// structure. Every GEMM runs on the calling thread: training
// parallelism lives one level up, in the per-fold tasks. kernels::dot's
// fixed 8-lane accumulation makes every reduction independent of the
// dispatch ISA.

/**
 * C += A * B for row-major operands with @p rows output rows, k-blocked
 * i-k-j order with an optional fused row-bias initialization. The k
 * loop is unrolled four wide so each load/store of a C element
 * amortizes four FMAs — the axpy-per-k form is store-bandwidth-bound,
 * not FLOP-bound.
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
    for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
        const std::size_t k1 = std::min(k, k0 + kBlockK);
        // One dispatched kernel call per output row: the panel runs the
        // axpy4-per-4-k / axpy-remainder sequence inside the kernel
        // layer, so the ISA switch is paid once per row, not per 4 k's.
        for (std::size_t i = 0; i < rows; ++i)
            kernels::gemmRowPanel(c + i * n, a + i * k, 1, b, k0, k1, n);
    }
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
 * C += A^T * B where C has a_cols rows; k unrolled as above.
 *
 * The n == 1 case (dX = W^T * dOut with a single column, the other
 * common backward shape) is dispatched by accumulateMatmulTransA to
 * gemmTransAVec below instead: running it here would touch A with
 * stride a_cols per element.
 */
void
gemmTransAAccRows(float *__restrict c, const float *__restrict a,
                  const float *__restrict b, std::size_t a_rows,
                  std::size_t a_cols, std::size_t n)
{
    for (std::size_t k0 = 0; k0 < a_rows; k0 += kBlockK) {
        const std::size_t k1 = std::min(a_rows, k0 + kBlockK);
        // Column i of A walked with stride a_cols; one dispatch per row.
        for (std::size_t i = 0; i < a_cols; ++i)
            kernels::gemmRowPanel(c + i * n, a + i, a_cols, b, k0, k1, n);
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
    Matrix c(a.rows(), b.cols());
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

Matrix
matmulTransB(const Matrix &a, const Matrix &b)
{
    panicIf(a.cols() != b.cols(), "matmulTransB dimension mismatch");
    Matrix c(a.rows(), b.rows());
    accumulateMatmulTransB(c, a, b);
    return c;
}

void
accumulateMatmul(Matrix &c, const Matrix &a, const Matrix &b)
{
    panicIf(a.cols() != b.rows(), "accumulateMatmul dimension mismatch");
    panicIf(c.rows() != a.rows() || c.cols() != b.cols(),
            "accumulateMatmul output shape mismatch");
    gemmAccRows(c.data(), a.data(), b.data(), a.rows(), a.cols(), b.cols(),
                nullptr);
}

void
accumulateMatmulTransA(Matrix &c, const Matrix &a, const Matrix &b)
{
    panicIf(a.rows() != b.rows(),
            "accumulateMatmulTransA dimension mismatch");
    panicIf(c.rows() != a.cols() || c.cols() != b.cols(),
            "accumulateMatmulTransA output shape mismatch");
    if (b.cols() == 1) {
        gemmTransAVec(c.data(), a.data(), b.data(), a.rows(), a.cols());
        return;
    }
    gemmTransAAccRows(c.data(), a.data(), b.data(), a.rows(), a.cols(),
                      b.cols());
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
    Matrix y(a.rows(), 1);
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
    Matrix y(a.rows(), 1);
    const float *__restrict ad = a.data();
    const float *__restrict xd = x.data();
    const float *__restrict bd = b.data();
    float *__restrict yd = y.data();
    const std::size_t k = a.cols();
    for (std::size_t i = 0; i < a.rows(); ++i)
        yd[i] = bd[i] + kernels::dot(ad + i * k, xd, k);
    return y;
}

void
reluInPlace(Matrix &m)
{
    kernels::relu(m.data(), m.size());
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
