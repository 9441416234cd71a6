#include "ml/layer.hh"

#include <algorithm>
#include <cmath>
#include <utility>

#include "base/logging.hh"
#include "ml/kernels.hh"

namespace bigfish::ml {

void
Layer::zeroGrads()
{
    for (Matrix *g : grads())
        g->zero();
}

Matrix
ReLU::forward(Matrix in, std::size_t, bool)
{
    // Rectifies the owned input in place and records the sign mask
    // backward needs in the same pass; both selects are branchless so
    // the loop vectorizes.
    const std::size_t n = in.size();
    mask_.resize(n);
    float *__restrict x = in.data();
    std::uint8_t *__restrict m = mask_.data();
    for (std::size_t i = 0; i < n; ++i) {
        const bool pos = x[i] > 0.0f;
        m[i] = pos ? 1 : 0;
        x[i] = pos ? x[i] : 0.0f;
    }
    return in;
}

Matrix
ReLU::backward(Matrix grad_out, std::size_t, bool)
{
    panicIf(grad_out.size() != mask_.size(), "ReLU backward shape mismatch");
    float *__restrict g = grad_out.data();
    const std::uint8_t *__restrict m = mask_.data();
    const std::size_t n = grad_out.size();
    // A select, not a multiply: m * g would turn a masked-off non-
    // finite gradient into NaN instead of the 0 the original
    // input-compare produced, changing the allFinite guard's verdict.
    for (std::size_t i = 0; i < n; ++i)
        g[i] = m[i] != 0 ? g[i] : 0.0f;
    return grad_out;
}

MaxPool1D::MaxPool1D(std::size_t pool) : pool_(pool)
{
    fatalIf(pool == 0, "MaxPool1D pool size must be positive");
}

Matrix
MaxPool1D::forward(Matrix in, std::size_t samples, bool)
{
    panicIf(samples == 0 || in.cols() % samples != 0,
            "MaxPool1D batch column count mismatch");
    inRows_ = in.rows();
    inCols_ = in.cols();
    const std::size_t in_t = inCols_ / samples;
    const std::size_t out_t = std::max<std::size_t>(in_t / pool_, 1);
    // Every cell of out and argmax_ is written below, so neither is
    // zero-filled first.
    Matrix out = Matrix::uninitialized(inRows_, samples * out_t);
    argmax_.resize(inRows_ * samples * out_t);
    // Pooling windows never cross a sample boundary: sample s occupies
    // input columns [s*in_t, (s+1)*in_t) and output columns
    // [s*out_t, (s+1)*out_t).
    for (std::size_t c = 0; c < inRows_; ++c) {
        const float *row = in.data() + c * inCols_;
        float *orow = out.data() + c * samples * out_t;
        std::uint32_t *arow = argmax_.data() + c * samples * out_t;
        for (std::size_t s = 0; s < samples; ++s)
            kernels::maxPool(row + s * in_t, in_t, pool_, out_t,
                             static_cast<std::uint32_t>(s * in_t),
                             orow + s * out_t, arow + s * out_t);
    }
    return out;
}

Matrix
MaxPool1D::backward(Matrix grad_out, std::size_t, bool)
{
    // Each row is zeroed just before its scatter, while it is still in
    // L1, instead of zero-filling the whole matrix in a pass of its own.
    Matrix grad_in = Matrix::uninitialized(inRows_, inCols_);
    const std::size_t out_cols = grad_out.cols();
    for (std::size_t c = 0; c < inRows_; ++c) {
        float *girow = grad_in.data() + c * inCols_;
        const float *gorow = grad_out.data() + c * out_cols;
        const std::uint32_t *arow = argmax_.data() + c * out_cols;
        std::fill(girow, girow + inCols_, 0.0f);
        for (std::size_t t = 0; t < out_cols; ++t)
            girow[arow[t]] += gorow[t];
    }
    return grad_in;
}

Dropout::Dropout(double rate, std::uint64_t seed) : rate_(rate), rng_(seed)
{
    fatalIf(rate < 0.0 || rate >= 1.0, "Dropout rate must be in [0, 1)");
}

Matrix
Dropout::forward(Matrix in, std::size_t samples, bool train)
{
    lastTrain_ = train;
    if (!train || rate_ == 0.0)
        return in;
    panicIf(samples == 0 || in.cols() % samples != 0,
            "Dropout batch column count mismatch");
    const std::size_t steps = in.cols() / samples;
    const float keep_scale = static_cast<float>(1.0 / (1.0 - rate_));
    // Every mask cell is written below; the owned input becomes the
    // output in place.
    mask_.resize(in.rows(), in.cols());
    // Draw the mask sample-by-sample (each sample row-major), so B
    // one-sample calls consume the stream in the same order as one
    // B-sample call.
    for (std::size_t s = 0; s < samples; ++s) {
        for (std::size_t r = 0; r < in.rows(); ++r) {
            for (std::size_t t = 0; t < steps; ++t) {
                const std::size_t c = s * steps + t;
                if (rng_.bernoulli(rate_)) {
                    mask_(r, c) = 0.0f;
                    in(r, c) = 0.0f;
                } else {
                    mask_(r, c) = keep_scale;
                    in(r, c) *= keep_scale;
                }
            }
        }
    }
    return in;
}

Matrix
Dropout::backward(Matrix grad_out, std::size_t, bool)
{
    if (!lastTrain_ || rate_ == 0.0)
        return grad_out;
    for (std::size_t i = 0; i < grad_out.size(); ++i)
        grad_out.data()[i] *= mask_.data()[i];
    return grad_out;
}

Dense::Dense(std::size_t in_features, std::size_t out_features, Rng &rng)
    : w_(out_features, in_features), b_(out_features, 1),
      gw_(out_features, in_features), gb_(out_features, 1)
{
    // He initialization, appropriate for the ReLU stacks used here.
    w_.randomize(rng, std::sqrt(2.0 / static_cast<double>(in_features)));
}

Matrix
Dense::forward(Matrix in, std::size_t samples, bool)
{
    panicIf(in.rows() != w_.cols() || in.cols() != samples,
            "Dense input shape mismatch");
    input_ = std::move(in);
    return matmulBias(w_, input_, b_);
}

Matrix
Dense::backward(Matrix grad_out, std::size_t samples, bool)
{
    panicIf(grad_out.rows() != w_.rows() || grad_out.cols() != samples,
            "Dense backward shape mismatch");
    accumulateMatmulTransB(gw_, grad_out, input_);
    kernels::addRowSums(gb_.data(), grad_out.data(), grad_out.rows(),
                        samples);
    return matmulTransA(w_, grad_out);
}

} // namespace bigfish::ml
