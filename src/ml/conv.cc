#include "ml/conv.hh"

#include <algorithm>
#include <cmath>
#include <type_traits>

#include "base/logging.hh"
#include "ml/kernels.hh"

namespace bigfish::ml {

namespace {

/**
 * Narrowest patch (in_channels * kernel rows of B) whose weight
 * gradient takes kernels::dotRowsSparse: each kept term updates one
 * row that wide, so conv2's 256 pays for the zero scan and the
 * transposed pack many times over, while conv1's 16 does not
 * (DESIGN.md §10 has the micro rows).
 */
constexpr std::size_t kSparseGradMinWidth = 64;

} // namespace

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
    const std::size_t cols = samples * out_t;
    patches_.resize(inChannels_ * kernel_, cols);
    float *__restrict p = patches_.data();
    const float *__restrict x = in.data();
    if (in_t >= kernel_) {
        // One pass over all cols per patch row: element (c, k) of
        // column j is input column windowStart_[j] + k of channel c,
        // in range because (out_t-1)*stride + kernel - 1 < in_t.
        const std::size_t *__restrict start = windowStart_.data();
        for (std::size_t c = 0; c < inChannels_; ++c) {
            for (std::size_t k = 0; k < kernel_; ++k) {
                const float *__restrict xk = x + c * all_t + k;
                float *__restrict prow = p + (c * kernel_ + k) * cols;
                for (std::size_t j = 0; j < cols; ++j)
                    prow[j] = xk[start[j]];
            }
        }
        return;
    }
    // An input shorter than the kernel: one window per sample, each
    // element clamped to the sample's last column.
    for (std::size_t c = 0; c < inChannels_; ++c) {
        const float *__restrict xrow = x + c * all_t;
        for (std::size_t k = 0; k < kernel_; ++k) {
            float *__restrict prow = p + (c * kernel_ + k) * cols;
            for (std::size_t s = 0; s < samples; ++s) {
                const float *__restrict xs = xrow + s * in_t;
                float *__restrict ps = prow + s * out_t;
                for (std::size_t t = 0; t < out_t; ++t)
                    ps[t] = xs[std::min(t * stride_ + k, in_t - 1)];
            }
        }
    }
}

void
Conv1D::packPatchesTransposed(const Matrix &in)
{
    const std::size_t all_t = in.cols();
    const std::size_t width = inChannels_ * kernel_;
    const std::size_t cols = windowStart_.size();
    patchesT_.resize(cols, width);
    float *__restrict pt = patchesT_.data();
    const float *__restrict x = in.data();
    const auto pack = [&](auto kernel) {
        for (std::size_t j = 0; j < cols; ++j) {
            float *__restrict row = pt + j * width;
            const float *__restrict xs = x + windowStart_[j];
            for (std::size_t c = 0; c < inChannels_; ++c)
                for (std::size_t k = 0; k < kernel; ++k)
                    row[c * kernel + k] = xs[c * all_t + k];
        }
    };
    // The paper's kernel width as a constant: each channel's run is then
    // one vector move instead of a short loop of unknown length.
    if (kernel_ == 8)
        pack(std::integral_constant<std::size_t, 8>{});
    else
        pack(kernel_);
}

Matrix
Conv1D::forward(Matrix in, std::size_t samples, bool train)
{
    panicIf(in.rows() != inChannels_, "Conv1D channel mismatch");
    panicIf(samples == 0 || in.cols() == 0 || in.cols() % samples != 0,
            "Conv1D batch column count mismatch");
    inCols_ = in.cols();
    samples_ = samples;
    const std::size_t in_t = in.cols() / samples;
    const std::size_t out_t = outLength(in_t);
    const std::size_t cols = samples * out_t;
    const std::size_t width = inChannels_ * kernel_;
    // Windows that fit the input start at s*in_t + t*stride; a shorter
    // input clamps per element and has no window-start table.
    const bool fits = in_t >= kernel_;
    sparseGrad_ = train && fits && width >= kSparseGradMinWidth &&
                  matmulTransBUsesDot(cols, width) &&
                  kernels::allFinite(in.data(), in.size());
    if (fits) {
        windowStart_.resize(cols);
        for (std::size_t s = 0; s < samples; ++s)
            for (std::size_t t = 0; t < out_t; ++t)
                windowStart_[s * out_t + t] = s * in_t + t * stride_;
    }
    packPatches(in, samples, out_t);
    if (sparseGrad_)
        packPatchesTransposed(in);
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

    // dW += dOut * patches^T, db += row-sums of dOut. Max-pool and
    // ReLU backward leave most of dOut at zero; the row-sparse kernel
    // skips those terms and gives the dense dots' bits (kernels.hh).
    if (sparseGrad_)
        kernels::dotRowsSparse(gw_.data(), grad_out.data(),
                               patchesT_.data(), outChannels_, out_cols,
                               patchesT_.cols());
    else
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
