/**
 * @file
 * Long Short-Term Memory layer (the paper's classifier backbone: an
 * LSTM with 32 units and sigmoid recurrent activations over the
 * conv/pool front-end's output sequence).
 *
 * Input is a (features x time) matrix; the layer runs the standard LSTM
 * recurrence left to right and outputs the final hidden state as a
 * (hidden x 1) vector. Backward implements full backpropagation through
 * time, verified against finite differences in the test suite.
 */

#ifndef BF_ML_LSTM_HH
#define BF_ML_LSTM_HH

#include "ml/layer.hh"

namespace bigfish::ml {

/** Single-layer LSTM returning its final hidden state. */
class Lstm : public Layer
{
  public:
    /**
     * @param input_size Features per timestep.
     * @param hidden_size Number of LSTM units (paper: 32).
     * @param rng Weight initialization stream.
     */
    Lstm(std::size_t input_size, std::size_t hidden_size, Rng &rng);

    Matrix forward(const Matrix &in, bool train) override;
    Matrix backward(const Matrix &grad_out) override;
    bool supportsBatch() const override { return true; }
    Matrix forwardBatch(const Matrix &in, std::size_t samples,
                        bool train) override;
    Matrix backwardBatch(const Matrix &grad_out, std::size_t samples,
                         bool inputGrad) override;
    std::vector<Matrix *> params() override { return {&wx_, &wh_, &b_}; }
    std::vector<Matrix *> grads() override { return {&gwx_, &gwh_, &gb_}; }
    std::string name() const override { return "lstm"; }

    std::size_t hiddenSize() const { return hidden_; }

  private:
    std::size_t input_, hidden_;
    /** Gate weights stacked [i; f; g; o]: (4H x input), (4H x H), (4H x 1). */
    Matrix wx_, wh_, b_;
    Matrix gwx_, gwh_, gb_;

    // Per-timestep caches for BPTT. On the batched path the per-step
    // matrices carry one column per sample (4H x B / H x B) and inSeq_
    // holds the whole (input x B*T) batch.
    Matrix inSeq_;
    std::size_t samples_ = 1;
    std::vector<Matrix> gates_; ///< Post-activation gates per step (4H x B).
    std::vector<Matrix> cells_; ///< Cell states per step (H x B).
    std::vector<Matrix> hiddens_; ///< Hidden states per step (H x B).
};

} // namespace bigfish::ml

#endif // BF_ML_LSTM_HH
