#include "ml/layer.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"

namespace bigfish::ml {

void
Layer::zeroGrads()
{
    for (Matrix *g : grads())
        g->zero();
}

Matrix
Layer::forwardBatch(const Matrix &, std::size_t, bool)
{
    panic("layer '" + name() + "' has no batched forward");
}

Matrix
Layer::backwardBatch(const Matrix &, std::size_t, bool)
{
    panic("layer '" + name() + "' has no batched backward");
}

Matrix
ReLU::forward(const Matrix &in, bool)
{
    // One fused pass produces both the activation and the sign mask
    // backward needs, instead of the two full matrix copies (one kept
    // as input_, one rectified) this used to make. The rectified value
    // is the same select every kernels::relu ISA path computes, and
    // both selects are branchless compare+blend so the loop vectorizes.
    const std::size_t n = in.size();
    mask_.resize(n);
    Matrix out(in.rows(), in.cols());
    float *__restrict d = out.data();
    const float *__restrict x = in.data();
    float *__restrict m = mask_.data();
    for (std::size_t i = 0; i < n; ++i) {
        const bool pos = x[i] > 0.0f;
        m[i] = pos ? 1.0f : 0.0f;
        d[i] = pos ? x[i] : 0.0f;
    }
    return out;
}

Matrix
ReLU::backward(const Matrix &grad_out)
{
    panicIf(grad_out.size() != mask_.size(), "ReLU backward shape mismatch");
    Matrix grad_in(grad_out.rows(), grad_out.cols());
    float *__restrict g = grad_in.data();
    const float *__restrict go = grad_out.data();
    const float *__restrict m = mask_.data();
    const std::size_t n = grad_out.size();
    // A select, not a multiply: m * go would turn a masked-off non-
    // finite gradient into NaN instead of the 0 the original
    // input-compare produced, changing the allFinite guard's verdict.
    for (std::size_t i = 0; i < n; ++i)
        g[i] = m[i] != 0.0f ? go[i] : 0.0f;
    return grad_in;
}

Matrix
ReLU::forwardBatch(const Matrix &in, std::size_t, bool train)
{
    // Elementwise: the batch layout changes nothing.
    return forward(in, train);
}

Matrix
ReLU::backwardBatch(const Matrix &grad_out, std::size_t, bool)
{
    return backward(grad_out);
}

MaxPool1D::MaxPool1D(std::size_t pool) : pool_(pool)
{
    fatalIf(pool == 0, "MaxPool1D pool size must be positive");
}

Matrix
MaxPool1D::pool(const Matrix &in, std::size_t samples)
{
    inRows_ = in.rows();
    inCols_ = in.cols();
    const std::size_t in_t = inCols_ / samples;
    const std::size_t out_t = std::max<std::size_t>(in_t / pool_, 1);
    Matrix out(inRows_, samples * out_t);
    // resize, not assign: every slot is overwritten below, so the
    // assign() pre-zeroing was a wasted pass over a large buffer.
    argmax_.resize(inRows_ * samples * out_t);
    // Pooling windows never cross a sample boundary: sample s occupies
    // input columns [s*in_t, (s+1)*in_t) and output columns
    // [s*out_t, (s+1)*out_t).
    for (std::size_t c = 0; c < inRows_; ++c) {
        const float *__restrict row = in.data() + c * inCols_;
        float *__restrict orow = out.data() + c * samples * out_t;
        std::uint32_t *__restrict arow =
            argmax_.data() + c * samples * out_t;
        for (std::size_t s = 0; s < samples; ++s) {
            const std::size_t in_base = s * in_t;
            for (std::size_t t = 0; t < out_t; ++t) {
                const std::size_t lo = in_base + t * pool_;
                const std::size_t hi =
                    std::min(lo + pool_, in_base + in_t);
                float best = row[lo];
                std::size_t best_idx = lo;
                // Select form compiles to cmov; a taken/not-taken
                // branch here is data-dependent and mispredicts.
                for (std::size_t k = lo + 1; k < hi; ++k) {
                    const float v = row[k];
                    best_idx = v > best ? k : best_idx;
                    best = v > best ? v : best;
                }
                const std::size_t oc = s * out_t + t;
                orow[oc] = best;
                arow[oc] = static_cast<std::uint32_t>(best_idx);
            }
        }
    }
    return out;
}

Matrix
MaxPool1D::forward(const Matrix &in, bool)
{
    return pool(in, 1);
}

Matrix
MaxPool1D::backward(const Matrix &grad_out)
{
    return backwardBatch(grad_out, 1, true);
}

Matrix
MaxPool1D::forwardBatch(const Matrix &in, std::size_t samples, bool)
{
    panicIf(samples == 0 || in.cols() % samples != 0,
            "MaxPool1D batch column count mismatch");
    return pool(in, samples);
}

Matrix
MaxPool1D::backwardBatch(const Matrix &grad_out, std::size_t, bool)
{
    Matrix grad_in(inRows_, inCols_);
    const std::size_t out_cols = grad_out.cols();
    for (std::size_t c = 0; c < inRows_; ++c)
        for (std::size_t t = 0; t < out_cols; ++t)
            grad_in(c, argmax_[c * out_cols + t]) += grad_out(c, t);
    return grad_in;
}

Dropout::Dropout(double rate, std::uint64_t seed) : rate_(rate), rng_(seed)
{
    fatalIf(rate < 0.0 || rate >= 1.0, "Dropout rate must be in [0, 1)");
}

Matrix
Dropout::forward(const Matrix &in, bool train)
{
    lastTrain_ = train;
    if (!train || rate_ == 0.0)
        return in;
    const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
    mask_ = Matrix(in.rows(), in.cols());
    Matrix out = in;
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (rng_.bernoulli(rate_)) {
            mask_.data()[i] = 0.0f;
            out.data()[i] = 0.0f;
        } else {
            mask_.data()[i] = keep_scale;
            out.data()[i] *= keep_scale;
        }
    }
    return out;
}

Matrix
Dropout::backward(const Matrix &grad_out)
{
    if (!lastTrain_ || rate_ == 0.0)
        return grad_out;
    Matrix grad_in = grad_out;
    for (std::size_t i = 0; i < grad_in.size(); ++i)
        grad_in.data()[i] *= mask_.data()[i];
    return grad_in;
}

Matrix
Dropout::forwardBatch(const Matrix &in, std::size_t samples, bool train)
{
    lastTrain_ = train;
    if (!train || rate_ == 0.0)
        return in;
    panicIf(samples == 0 || in.cols() % samples != 0,
            "Dropout batch column count mismatch");
    const std::size_t steps = in.cols() / samples;
    const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
    mask_ = Matrix(in.rows(), in.cols());
    Matrix out = in;
    // Draw the mask sample-by-sample (each sample row-major), the exact
    // order B per-sample forward() calls would consume the stream.
    for (std::size_t s = 0; s < samples; ++s) {
        for (std::size_t r = 0; r < in.rows(); ++r) {
            for (std::size_t t = 0; t < steps; ++t) {
                const std::size_t c = s * steps + t;
                if (rng_.bernoulli(rate_)) {
                    mask_(r, c) = 0.0f;
                    out(r, c) = 0.0f;
                } else {
                    mask_(r, c) = keep_scale;
                    out(r, c) *= keep_scale;
                }
            }
        }
    }
    return out;
}

Matrix
Dropout::backwardBatch(const Matrix &grad_out, std::size_t, bool)
{
    return backward(grad_out);
}

Matrix
Flatten::forward(const Matrix &in, bool)
{
    inRows_ = in.rows();
    inCols_ = in.cols();
    return in.flattened();
}

Matrix
Flatten::backward(const Matrix &grad_out)
{
    Matrix grad_in(inRows_, inCols_);
    panicIf(grad_out.size() != grad_in.size(),
            "Flatten backward shape mismatch");
    std::copy(grad_out.data(), grad_out.data() + grad_out.size(),
              grad_in.data());
    return grad_in;
}

Matrix
Flatten::forwardBatch(const Matrix &in, std::size_t samples, bool)
{
    panicIf(samples == 0 || in.cols() % samples != 0,
            "Flatten batch column count mismatch");
    inRows_ = in.rows();
    inCols_ = in.cols();
    const std::size_t steps = inCols_ / samples;
    // (rows x samples*T) -> (rows*T x samples): column s becomes the
    // row-major flattening of sample s, matching flattened().
    Matrix out(inRows_ * steps, samples);
    for (std::size_t r = 0; r < inRows_; ++r)
        for (std::size_t s = 0; s < samples; ++s)
            for (std::size_t t = 0; t < steps; ++t)
                out(r * steps + t, s) = in(r, s * steps + t);
    return out;
}

Matrix
Flatten::backwardBatch(const Matrix &grad_out, std::size_t samples, bool)
{
    panicIf(samples == 0 || grad_out.cols() != samples,
            "Flatten batched backward shape mismatch");
    const std::size_t steps = inCols_ / samples;
    Matrix grad_in(inRows_, inCols_);
    for (std::size_t r = 0; r < inRows_; ++r)
        for (std::size_t s = 0; s < samples; ++s)
            for (std::size_t t = 0; t < steps; ++t)
                grad_in(r, s * steps + t) = grad_out(r * steps + t, s);
    return grad_in;
}

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng &rng)
    : w_(out_features, in_features), b_(out_features, 1),
      gw_(out_features, in_features), gb_(out_features, 1)
{
    // He initialization, appropriate for the ReLU stacks used here.
    w_.randomize(rng, std::sqrt(2.0 / static_cast<double>(in_features)));
}

Matrix
Dense::forward(const Matrix &in, bool)
{
    input_ = in.rows() == w_.cols() && in.cols() == 1 ? in : in.flattened();
    panicIf(input_.rows() != w_.cols(), "Dense input size mismatch");
    return gemvBias(w_, input_, b_);
}

Matrix
Dense::backward(const Matrix &grad_out)
{
    panicIf(grad_out.rows() != w_.rows() || grad_out.cols() != 1,
            "Dense backward shape mismatch");
    accumulateMatmulTransB(gw_, grad_out, input_);
    gb_ += grad_out;
    return matmulTransA(w_, grad_out);
}

Matrix
Dense::forwardBatch(const Matrix &in, std::size_t samples, bool)
{
    // Batched Dense expects one (features x 1) sample per column.
    panicIf(in.rows() != w_.cols() || in.cols() != samples,
            "Dense batched input shape mismatch");
    input_ = in;
    return matmulBias(w_, in, b_);
}

Matrix
Dense::backwardBatch(const Matrix &grad_out, std::size_t samples, bool)
{
    panicIf(grad_out.rows() != w_.rows() || grad_out.cols() != samples,
            "Dense batched backward shape mismatch");
    accumulateMatmulTransB(gw_, grad_out, input_);
    {
        float *__restrict gb = gb_.data();
        const float *__restrict g = grad_out.data();
        for (std::size_t r = 0; r < grad_out.rows(); ++r) {
            float acc = 0.0f;
            const float *__restrict grow = g + r * samples;
            for (std::size_t s = 0; s < samples; ++s)
                acc += grow[s];
            gb[r] += acc;
        }
    }
    return matmulTransA(w_, grad_out);
}

} // namespace bigfish::ml
