/**
 * @file
 * Layer interface and the simple stateless/elementwise layers.
 *
 * Every layer runs on a minibatch: B same-shaped samples are
 * concatenated along the column axis into one (rows x B*T) matrix,
 * sample b occupying columns [b*T, (b+1)*T); a single sample is the
 * B = 1 case. One wide GEMM per layer replaces B small matrix-vector
 * products — the training-loop hot path at paper scale — and at B = 1
 * the GEMM helpers (matrix.hh) hand any one-column operand to the
 * matrix-vector kernels, so scoring one sample runs the same kernels a
 * dedicated per-sample path would. Layers cache whatever the backward
 * pass needs; parameter gradients accumulate in the layer's grad
 * buffers until the optimizer consumes them.
 */

#ifndef BF_ML_LAYER_HH
#define BF_ML_LAYER_HH

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/rng.hh"
#include "ml/matrix.hh"

namespace bigfish::ml {

/** Base class of every network layer. */
class Layer
{
  public:
    virtual ~Layer() = default;

    /**
     * Computes the layer's output for a minibatch.
     * @param in @p samples same-shaped samples packed column-wise,
     *        taken by value: the layer owns it and may rewrite it into
     *        its output (ReLU, Dropout) or keep it for backward (Dense,
     *        Lstm). Sequential moves each output into the next layer.
     * @param samples Number of samples in @p in (1 for one sample).
     * @param train True during training (enables dropout etc.).
     */
    virtual Matrix forward(Matrix in, std::size_t samples, bool train) = 0;

    /**
     * Backpropagates through the most recent forward() call.
     * Parameter gradients are *accumulated* into the grad buffers.
     * @param grad_out dLoss/dOutput, same layout as the forward output;
     *        owned by the layer like forward()'s input, so an
     *        elementwise layer returns it rewritten in place.
     * @param samples The sample count of that forward() call.
     * @param inputGrad False when nothing reads dLoss/dInput (the first
     *        layer of a network): a layer may then skip computing it
     *        and return an empty Matrix.
     * @return dLoss/dInput.
     */
    virtual Matrix backward(Matrix grad_out, std::size_t samples,
                            bool inputGrad) = 0;

    /** Trainable parameter tensors (empty for stateless layers). */
    virtual std::vector<Matrix *> params() { return {}; }

    /** Gradient buffers aligned with params(). */
    virtual std::vector<Matrix *> grads() { return {}; }

    /** Clears all gradient buffers. */
    void zeroGrads();

    /** Layer name for diagnostics. */
    virtual std::string name() const = 0;
};

/** Rectified linear unit. */
class ReLU : public Layer
{
  public:
    Matrix forward(Matrix in, std::size_t samples, bool train) override;
    Matrix backward(Matrix grad_out, std::size_t samples,
                    bool inputGrad) override;
    std::string name() const override { return "relu"; }

  private:
    /**
     * Sign mask of the last forward input (1 = positive, 0 otherwise):
     * backward only needs the sign, not the input. Byte lanes: with the
     * activation rewritten in place, GCC 12 vectorizes the byte store,
     * and the quarter-size stream wins. In place at 32 x 1328 (conv1's
     * output), byte against float mask: forward 9.5 vs 18.8 us,
     * backward 5.0 vs 6.9 us.
     */
    std::vector<std::uint8_t> mask_;
};

/** Non-overlapping 1-D max pooling along the time axis. */
class MaxPool1D : public Layer
{
  public:
    /** @param pool Window (and stride) size; paper uses 4. */
    explicit MaxPool1D(std::size_t pool);

    Matrix forward(Matrix in, std::size_t samples, bool train) override;
    Matrix backward(Matrix grad_out, std::size_t samples,
                    bool inputGrad) override;
    std::string name() const override { return "maxpool1d"; }

  private:
    std::size_t pool_;
    /**
     * Winning input column per output cell; 32-bit since pooled rows
     * are far narrower than 4G columns, halving the stream backward
     * re-reads.
     */
    std::vector<std::uint32_t> argmax_;
    std::size_t inRows_ = 0, inCols_ = 0;
};

/** Inverted dropout; identity at inference time. */
class Dropout : public Layer
{
  public:
    /**
     * @param rate Probability of zeroing an activation (paper: 0.7).
     * @param seed Seed for the mask stream.
     */
    Dropout(double rate, std::uint64_t seed);

    Matrix forward(Matrix in, std::size_t samples, bool train) override;
    Matrix backward(Matrix grad_out, std::size_t samples,
                    bool inputGrad) override;
    std::string name() const override { return "dropout"; }

  private:
    double rate_;
    Rng rng_;
    Matrix mask_;
    bool lastTrain_ = false;
};

/**
 * Fully connected layer: out = W * in + b, one (features x 1) sample per
 * input column.
 */
class Dense : public Layer
{
  public:
    /**
     * @param in_features Input dimensionality.
     * @param out_features Output dimensionality.
     * @param rng Weight initialization stream.
     */
    Dense(std::size_t in_features, std::size_t out_features, Rng &rng);

    Matrix forward(Matrix in, std::size_t samples, bool train) override;
    Matrix backward(Matrix grad_out, std::size_t samples,
                    bool inputGrad) override;
    std::vector<Matrix *> params() override { return {&w_, &b_}; }
    std::vector<Matrix *> grads() override { return {&gw_, &gb_}; }
    std::string name() const override { return "dense"; }

  private:
    Matrix w_, b_, gw_, gb_;
    Matrix input_;
};

} // namespace bigfish::ml

#endif // BF_ML_LAYER_HH
