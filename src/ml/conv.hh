/**
 * @file
 * 1-D convolution along the time axis (the paper's front-end layers:
 * two pairs of Conv1D(filters, stride 3, ReLU) + MaxPool(4)).
 */

#ifndef BF_ML_CONV_HH
#define BF_ML_CONV_HH

#include "ml/layer.hh"

namespace bigfish::ml {

/** Valid (no padding) strided 1-D convolution over (channels x time). */
class Conv1D : public Layer
{
  public:
    /**
     * @param in_channels Input channel count.
     * @param out_channels Filter count.
     * @param kernel Kernel width.
     * @param stride Stride along time (paper: 3).
     * @param rng Weight initialization stream.
     */
    Conv1D(std::size_t in_channels, std::size_t out_channels,
           std::size_t kernel, std::size_t stride, Rng &rng);

    Matrix forward(Matrix in, std::size_t samples, bool train) override;
    Matrix backward(Matrix grad_out, std::size_t samples,
                    bool inputGrad) override;
    std::vector<Matrix *> params() override { return {&w_, &b_}; }
    std::vector<Matrix *> grads() override { return {&gw_, &gb_}; }
    std::string name() const override { return "conv1d"; }

    /** Output length for an input of length @p in_t. */
    std::size_t outLength(std::size_t in_t) const;

  private:
    /**
     * Rebuilds patches_ (the im2col buffer) from @p in, holding
     * @p samples column-concatenated samples; windows never cross a
     * sample boundary. Windows that fit the input copy through
     * windowStart_, one pass over all columns per patch row.
     */
    void packPatches(const Matrix &in, std::size_t samples,
                     std::size_t out_t);

    /**
     * Rebuilds patchesT_ from @p in: row j is patches_ column j, the
     * window at windowStart_[j] copied one contiguous channel run at a
     * time.
     */
    void packPatchesTransposed(const Matrix &in);

    std::size_t inChannels_, outChannels_, kernel_, stride_;
    /** Weights laid out (out_channels x in_channels*kernel). */
    Matrix w_, b_, gw_, gb_;
    /**
     * Total input columns of the most recent forward — the only fact
     * backward needs about the raw input (the windows themselves live
     * in patches_), so the former full input copy was pure overhead.
     */
    std::size_t inCols_ = 0;
    /** Sample count of the most recent forward. */
    std::size_t samples_ = 1;
    /**
     * im2col buffer: column s*out_t + t holds the flattened
     * (channel-major) input window of sample s's output step t, so
     * forward/backward are plain GEMMs over contiguous memory — one wide
     * GEMM for a whole minibatch. Reused across calls to avoid
     * reallocation.
     */
    Matrix patches_;
    /**
     * patches_ transposed, packed by a training forward whose weight
     * gradient takes kernels::dotRowsSparse (sparseGrad_); that kernel
     * reads one window per row.
     */
    Matrix patchesT_;
    /**
     * Input column of each patch column's window (sample s, step t at
     * s*in_t + t*stride), rebuilt by every forward whose windows fit
     * the input.
     */
    std::vector<std::size_t> windowStart_;
    /**
     * Whether backward's weight gradient runs kernels::dotRowsSparse
     * over patchesT_: set by a training forward when the layer is wide
     * enough for it to win, accumulateMatmulTransB would use dot's
     * contract at this shape, and the input was all finite (a skipped
     * 0 * inf would have made a NaN).
     */
    bool sparseGrad_ = false;
};

} // namespace bigfish::ml

#endif // BF_ML_CONV_HH
