#include "ml/lstm.hh"

#include <cmath>
#include <utility>

#include "base/logging.hh"
#include "ml/kernels.hh"

namespace bigfish::ml {

// Gate math runs through the fused SIMD kernels. The (4H x B) gate
// matrices store the four gate blocks as contiguous row bands (i, f,
// g, o), and the cell/hidden matrices use the same (H x B) layout, so
// one kernel call covers a whole step's gates regardless of batch
// shape.

Lstm::Lstm(std::size_t input_size, std::size_t hidden_size, Rng &rng)
    : input_(input_size), hidden_(hidden_size),
      wx_(4 * hidden_size, input_size), wh_(4 * hidden_size, hidden_size),
      b_(4 * hidden_size, 1), gwx_(4 * hidden_size, input_size),
      gwh_(4 * hidden_size, hidden_size), gb_(4 * hidden_size, 1)
{
    const double scale =
        std::sqrt(1.0 / static_cast<double>(hidden_size + input_size));
    wx_.randomize(rng, scale);
    wh_.randomize(rng, scale);
    // Forget-gate bias starts positive so early training retains memory.
    for (std::size_t h = 0; h < hidden_; ++h)
        b_(hidden_ + h, 0) = 1.0f;
}

Matrix
Lstm::forward(Matrix in, std::size_t samples, bool)
{
    panicIf(in.rows() != input_, "Lstm input feature mismatch");
    panicIf(samples == 0 || in.cols() % samples != 0,
            "Lstm batch column count mismatch");
    // BPTT's weight gradients read the input again; keep the owned
    // matrix instead of a copy.
    inSeq_ = std::move(in);
    samples_ = samples;
    const std::size_t steps = inSeq_.cols() / samples;
    gates_.resize(steps);
    cells_.resize(steps);
    hiddens_.resize(steps);

    // Input-side pre-activations for the whole batch and every step in
    // one fused GEMM; the sequential loop only pays one (4H x H)x(H x B)
    // recurrent product per step instead of B matrix-vector products.
    const Matrix zx = matmulBias(wx_, inSeq_, b_);
    const float *__restrict zxd = zx.data();
    const std::size_t zx_cols = inSeq_.cols();

    Matrix h(hidden_, samples);
    Matrix c(hidden_, samples);
    for (std::size_t t = 0; t < steps; ++t) {
        Matrix &z = gates_[t];
        z.resize(4 * hidden_, samples);
        // z[:, s] = ZX[:, s*steps + t] + (Wh * h)[:, s]
        const Matrix zr = matmul(wh_, h);
        float *__restrict zd = z.data();
        const float *__restrict zrd = zr.data();
        for (std::size_t r = 0; r < 4 * hidden_; ++r) {
            const float *__restrict zxrow = zxd + r * zx_cols + t;
            float *__restrict zrow = zd + r * samples;
            const float *__restrict zrrow = zrd + r * samples;
            for (std::size_t s = 0; s < samples; ++s)
                zrow[s] = zxrow[s * steps] + zrrow[s];
        }

        // The four gate bands of z and the full (H x B) state matrices
        // are each contiguous, so the whole step fuses into one kernel
        // call over hidden_ * samples lanes (caches post-activation
        // gate values in z for BPTT).
        const std::size_t lanes = hidden_ * samples;
        kernels::lstmGatesForward(zd, zd + lanes, zd + 2 * lanes,
                                  zd + 3 * lanes, c.data(), h.data(),
                                  lanes);
        cells_[t] = c;
        hiddens_[t] = h;
    }
    return h;
}

Matrix
Lstm::backward(Matrix grad_out, std::size_t samples, bool)
{
    panicIf(samples != samples_, "Lstm backward sample mismatch");
    const std::size_t steps = inSeq_.cols() / samples;
    panicIf(grad_out.rows() != hidden_ || grad_out.cols() != samples,
            "Lstm backward shape mismatch");

    // Pre-activation gate gradients for every (sample, step) column,
    // laid out to match inSeq_ so the parameter gradients are three
    // batched GEMMs over the whole minibatch.
    Matrix dzAll(4 * hidden_, samples * steps);
    // Column s*steps + t holds h_{t-1} of sample s (zeros for t = 0).
    Matrix hprev(hidden_, samples * steps);
    for (std::size_t t = 1; t < steps; ++t) {
        const Matrix &hp = hiddens_[t - 1];
        for (std::size_t k = 0; k < hidden_; ++k)
            for (std::size_t s = 0; s < samples; ++s)
                hprev(k, s * steps + t) = hp(k, s);
    }

    Matrix dh = std::move(grad_out); // dLoss/dh_t, accumulated backwards.
    Matrix dc(hidden_, samples);     // dLoss/dc_t carried across steps.
    Matrix dz(4 * hidden_, samples);

    for (std::size_t ti = steps; ti-- > 0;) {
        const Matrix &z = gates_[ti];
        const Matrix &c = cells_[ti];
        const Matrix *c_prev = ti > 0 ? &cells_[ti - 1] : nullptr;
        const float *__restrict zd = z.data();
        float *__restrict dzd = dz.data();

        // One fused gate-gradient kernel call over the whole step: the
        // gate bands of z/dz and the (H x B) state matrices are each
        // contiguous. Updates dc in place (carried to step t-1).
        const std::size_t lanes = hidden_ * samples;
        kernels::lstmGatesBackward(
            zd, zd + lanes, zd + 2 * lanes, zd + 3 * lanes, c.data(),
            c_prev != nullptr ? c_prev->data() : nullptr, dh.data(),
            dc.data(), dzd, dzd + lanes, dzd + 2 * lanes,
            dzd + 3 * lanes, lanes);

        float *__restrict dza = dzAll.data();
        for (std::size_t r = 0; r < 4 * hidden_; ++r) {
            const float *__restrict src = dzd + r * samples;
            float *__restrict dst = dza + r * samples * steps + ti;
            for (std::size_t s = 0; s < samples; ++s)
                dst[s * steps] = src[s];
        }

        // dLoss/dh_{t-1} via the recurrent weights: dh = Wh^T * dz.
        if (ti > 0)
            dh = matmulTransA(wh_, dz);
    }

    // Batched parameter gradients, one GEMM each for the whole batch:
    //   dWx += dZ * X^T,  dWh += dZ * Hprev^T,  db += rowsum(dZ),
    //   dX   = Wx^T * dZ.
    accumulateMatmulTransB(gwx_, dzAll, inSeq_);
    accumulateMatmulTransB(gwh_, dzAll, hprev);
    kernels::addRowSums(gb_.data(), dzAll.data(), 4 * hidden_,
                        samples * steps);
    return matmulTransA(wx_, dzAll);
}

} // namespace bigfish::ml
