#include "ml/network.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <utility>

#include "base/logging.hh"
#include "ml/kernels.hh"

namespace bigfish::ml {

Sequential &
Sequential::add(std::unique_ptr<Layer> layer)
{
    layers_.push_back(std::move(layer));
    return *this;
}

Matrix
Sequential::forward(Matrix in, std::size_t samples, bool train)
{
    for (auto &layer : layers_)
        in = layer->forward(std::move(in), samples, train);
    return in;
}

void
Sequential::backward(Matrix grad_out, std::size_t samples)
{
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it)
        grad_out = (*it)->backward(std::move(grad_out), samples,
                                   std::next(it) != layers_.rend());
}

std::vector<Matrix *>
Sequential::params()
{
    std::vector<Matrix *> out;
    for (auto &layer : layers_)
        for (Matrix *p : layer->params())
            out.push_back(p);
    return out;
}

std::vector<Matrix *>
Sequential::grads()
{
    std::vector<Matrix *> out;
    for (auto &layer : layers_)
        for (Matrix *g : layer->grads())
            out.push_back(g);
    return out;
}

void
Sequential::zeroGrads()
{
    for (auto &layer : layers_)
        layer->zeroGrads();
}

std::size_t
Sequential::numParameters()
{
    std::size_t total = 0;
    for (Matrix *p : params())
        total += p->size();
    return total;
}

std::vector<double>
SoftmaxCrossEntropy::probabilities(const Matrix &logits)
{
    panicIf(logits.cols() != 1, "softmax expects a column vector");
    std::vector<double> probs(logits.rows());
    float max_logit = logits(0, 0);
    for (std::size_t i = 1; i < logits.rows(); ++i)
        max_logit = std::max(max_logit, logits(i, 0));
    double sum = 0.0;
    for (std::size_t i = 0; i < logits.rows(); ++i) {
        probs[i] = std::exp(static_cast<double>(logits(i, 0) - max_logit));
        sum += probs[i];
    }
    for (double &p : probs)
        p /= sum;
    return probs;
}

double
SoftmaxCrossEntropy::lossAndGradientBatch(const Matrix &logits,
                                          const std::vector<Label> &truths,
                                          Matrix &grad)
{
    const std::size_t classes = logits.rows();
    const std::size_t batch = logits.cols();
    panicIf(truths.size() != batch, "batched loss label count mismatch");
    grad.resize(classes, batch);
    double total = 0.0;
    for (std::size_t s = 0; s < batch; ++s) {
        const Label truth = truths[s];
        panicIf(truth < 0 || truth >= static_cast<Label>(classes),
                "loss label out of range");
        float max_logit = logits(0, s);
        for (std::size_t i = 1; i < classes; ++i)
            max_logit = std::max(max_logit, logits(i, s));
        double sum = 0.0;
        for (std::size_t i = 0; i < classes; ++i) {
            const double e =
                std::exp(static_cast<double>(logits(i, s) - max_logit));
            grad(i, s) = static_cast<float>(e);
            sum += e;
        }
        const double inv = 1.0 / sum;
        for (std::size_t i = 0; i < classes; ++i)
            grad(i, s) = static_cast<float>(grad(i, s) * inv);
        total -= std::log(std::max(
            static_cast<double>(grad(static_cast<std::size_t>(truth), s)),
            1e-12));
        grad(static_cast<std::size_t>(truth), s) -= 1.0f;
    }
    return total;
}

bool
allFinite(const std::vector<Matrix *> &tensors)
{
    bool finite = true;
    for (const Matrix *t : tensors)
        finite &= kernels::allFinite(t->data(), t->size());
    return finite;
}

Adam::Adam(double lr, double beta1, double beta2, double eps)
    : lr_(lr), beta1_(beta1), beta2_(beta2), eps_(eps)
{
}

bool
Adam::stepIfFinite(const std::vector<Matrix *> &params,
                   const std::vector<Matrix *> &grads, double scale)
{
    if (!allFinite(grads))
        return false;
    step(params, grads, scale);
    return true;
}

void
Adam::step(const std::vector<Matrix *> &params,
           const std::vector<Matrix *> &grads, double scale)
{
    panicIf(params.size() != grads.size(), "Adam params/grads mismatch");
    if (m_.empty()) {
        m_.resize(params.size());
        v_.resize(params.size());
        for (std::size_t i = 0; i < params.size(); ++i) {
            m_[i].assign(params[i]->size(), 0.0f);
            v_[i].assign(params[i]->size(), 0.0f);
        }
    }
    ++t_;
    // Per-step scalars stay in double (pow over t accumulates error in
    // float); the per-parameter loop runs through the SIMD kernel
    // layer in float — the moments are stored as float anyway, so
    // double intermediates only added cost, not meaningful precision.
    kernels::AdamConsts consts;
    consts.beta1 = static_cast<float>(beta1_);
    consts.beta2 = static_cast<float>(beta2_);
    consts.oneMinusBeta1 = 1.0f - consts.beta1;
    consts.oneMinusBeta2 = 1.0f - consts.beta2;
    consts.invBiasCorrection1 =
        static_cast<float>(1.0 / (1.0 - std::pow(beta1_, t_)));
    consts.invBiasCorrection2 =
        static_cast<float>(1.0 / (1.0 - std::pow(beta2_, t_)));
    consts.learningRate = static_cast<float>(lr_);
    consts.epsilon = static_cast<float>(eps_);
    consts.gradScale = static_cast<float>(scale);
    for (std::size_t i = 0; i < params.size(); ++i) {
        panicIf(params[i]->size() != grads[i]->size(),
                "Adam tensor size mismatch");
        kernels::adamStep(params[i]->data(), grads[i]->data(),
                          m_[i].data(), v_[i].data(), params[i]->size(),
                          consts);
    }
}

} // namespace bigfish::ml
