#include "ml/conv.hh"

#include <algorithm>
#include <cmath>

#include "base/logging.hh"
#include "ml/kernels.hh"

namespace bigfish::ml {

Conv1D::Conv1D(std::size_t in_channels, std::size_t out_channels,
               std::size_t kernel, std::size_t stride, Rng &rng)
    : inChannels_(in_channels), outChannels_(out_channels), kernel_(kernel),
      stride_(stride), w_(out_channels, in_channels * kernel),
      b_(out_channels, 1), gw_(out_channels, in_channels * kernel),
      gb_(out_channels, 1)
{
    fatalIf(kernel == 0 || stride == 0, "Conv1D kernel/stride must be > 0");
    w_.randomize(rng, std::sqrt(2.0 / static_cast<double>(
                                          in_channels * kernel)));
}

std::size_t
Conv1D::outLength(std::size_t in_t) const
{
    if (in_t < kernel_)
        return 1; // Degenerate inputs are treated as a single window.
    return (in_t - kernel_) / stride_ + 1;
}

void
Conv1D::packPatches(const Matrix &in, std::size_t samples,
                    std::size_t out_t)
{
    const std::size_t all_t = in.cols();
    const std::size_t in_t = all_t / samples;
    patches_.resize(inChannels_ * kernel_, samples * out_t);
    float *__restrict p = patches_.data();
    const float *__restrict x = in.data();
    for (std::size_t c = 0; c < inChannels_; ++c) {
        const float *__restrict xrow = x + c * all_t;
        for (std::size_t k = 0; k < kernel_; ++k) {
            float *__restrict prow =
                p + (c * kernel_ + k) * samples * out_t;
            for (std::size_t s = 0; s < samples; ++s) {
                const float *__restrict xs = xrow + s * in_t;
                float *__restrict ps = prow + s * out_t;
                if (in_t >= kernel_) {
                    // Non-degenerate: (out_t-1)*stride + kernel - 1 <
                    // in_t by construction, so no clamp is needed and
                    // the strided gather vectorizes.
                    const float *__restrict xk = xs + k;
                    for (std::size_t t = 0; t < out_t; ++t)
                        ps[t] = xk[t * stride_];
                } else {
                    for (std::size_t t = 0; t < out_t; ++t) {
                        const std::size_t src = std::min(
                            t * stride_ + k, in_t - 1); // Clamp.
                        ps[t] = xs[src];
                    }
                }
            }
        }
    }
}

Matrix
Conv1D::forward(Matrix in, std::size_t samples, bool)
{
    panicIf(in.rows() != inChannels_, "Conv1D channel mismatch");
    panicIf(samples == 0 || in.cols() == 0 || in.cols() % samples != 0,
            "Conv1D batch column count mismatch");
    inCols_ = in.cols();
    samples_ = samples;
    const std::size_t out_t = outLength(in.cols() / samples);
    packPatches(in, samples, out_t);
    // out = W * patches + b: one fused GEMM instead of the naive
    // quadruple loop (and one GEMM for the whole minibatch when
    // samples > 1).
    return matmulBias(w_, patches_, b_);
}

Matrix
Conv1D::backward(Matrix grad_out, std::size_t samples, bool inputGrad)
{
    const std::size_t all_in_t = inCols_;
    const std::size_t out_cols = grad_out.cols();
    panicIf(grad_out.rows() != outChannels_,
            "Conv1D backward channel mismatch");
    panicIf(samples != samples_ || out_cols != patches_.cols(),
            "Conv1D backward called without matching forward");
    const std::size_t in_t = all_in_t / samples;
    const std::size_t out_t = out_cols / samples;

    // dW += dOut * patches^T, db += row-sums of dOut.
    accumulateMatmulTransB(gw_, grad_out, patches_);
    kernels::addRowSums(gb_.data(), grad_out.data(), outChannels_,
                        out_cols);

    if (!inputGrad)
        return Matrix();

    // dPatches = W^T * dOut, then scatter-add windows back onto the
    // (channels x time) input grid (the col2im step), sample by sample.
    const Matrix dpatches = matmulTransA(w_, grad_out);
    Matrix grad_in(inChannels_, all_in_t);
    float *__restrict gi = grad_in.data();
    const float *__restrict dp = dpatches.data();
    for (std::size_t c = 0; c < inChannels_; ++c) {
        float *__restrict girow = gi + c * all_in_t;
        for (std::size_t k = 0; k < kernel_; ++k) {
            const float *__restrict dprow =
                dp + (c * kernel_ + k) * out_cols;
            for (std::size_t s = 0; s < samples; ++s) {
                float *__restrict gs = girow + s * in_t;
                const float *__restrict ds = dprow + s * out_t;
                if (in_t >= kernel_) {
                    // Same bound as packPatches: in-range by
                    // construction, so the scatter needs no clamp.
                    float *__restrict gk = gs + k;
                    for (std::size_t t = 0; t < out_t; ++t)
                        gk[t * stride_] += ds[t];
                } else {
                    for (std::size_t t = 0; t < out_t; ++t) {
                        const std::size_t src =
                            std::min(t * stride_ + k, in_t - 1);
                        gs[src] += ds[t];
                    }
                }
            }
        }
    }
    return grad_in;
}

} // namespace bigfish::ml
