#include "ml/classifier.hh"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <sstream>
#include <utility>

#include "base/bytes.hh"
#include "base/hash.hh"
#include "base/logging.hh"
#include "ml/conv.hh"
#include "ml/lstm.hh"
#include "ml/serialize.hh"

namespace bigfish::ml {

namespace {

/** Opens a SoftmaxRegressionClassifier model payload. */
constexpr std::string_view kSoftmaxHeader = "# bigfish-softmax v2\n";

/**
 * Packs the selected samples column-wise into one (rows x B*steps)
 * minibatch matrix (see layer.hh for the batched layout).
 */
Matrix
packBatch(const std::vector<Matrix> &inputs, const std::size_t *idx,
          std::size_t count)
{
    const std::size_t rows = inputs[idx[0]].rows();
    const std::size_t steps = inputs[idx[0]].cols();
    Matrix out(rows, count * steps);
    float *__restrict dst = out.data();
    for (std::size_t r = 0; r < rows; ++r) {
        float *__restrict drow = dst + r * count * steps;
        for (std::size_t s = 0; s < count; ++s) {
            const float *__restrict src = inputs[idx[s]].data() + r * steps;
            std::copy(src, src + steps, drow + s * steps);
        }
    }
    return out;
}

} // namespace

Label
Classifier::predict(const std::vector<double> &x) const
{
    return argmax(predictScores(x));
}

Label
Classifier::argmax(const std::vector<double> &scores)
{
    panicIf(scores.empty(), "classifier returned no scores");
    return static_cast<Label>(
        std::max_element(scores.begin(), scores.end()) - scores.begin());
}

CnnLstmParams
CnnLstmParams::paperScale()
{
    CnnLstmParams p;
    p.convFilters = 256;
    p.lstmUnits = 32;
    p.dropout = 0.7;
    p.learningRate = 1e-3;
    return p;
}

CnnLstmParams
CnnLstmParams::traceDefaults()
{
    CnnLstmParams p;
    p.inputChannels = 2;
    return p;
}

CnnLstmClassifier::CnnLstmClassifier(int num_classes,
                                     std::size_t feature_len,
                                     CnnLstmParams params,
                                     std::uint64_t seed)
    : numClasses_(num_classes), featureLen_(feature_len), params_(params),
      seed_(seed)
{
    fatalIf(num_classes < 2, "need at least two classes");
    fatalIf(params_.inputChannels == 0 ||
                feature_len % params_.inputChannels != 0,
            "feature length must be a multiple of the channel count");
    const std::size_t steps = feature_len / params_.inputChannels;
    fatalIf(steps < params.convKernel * 2,
            "feature length too short for the convolution front-end");

    Rng rng(seed);
    const std::size_t f = params_.convFilters;
    auto conv1 = std::make_unique<Conv1D>(params_.inputChannels, f,
                                          params_.convKernel,
                                          params_.convStride, rng);
    std::size_t t = conv1->outLength(steps);
    net_.add(std::move(conv1));
    net_.add(std::make_unique<ReLU>());
    net_.add(std::make_unique<MaxPool1D>(params_.poolSize));
    t = std::max<std::size_t>(t / params_.poolSize, 1);

    auto conv2 = std::make_unique<Conv1D>(f, f, params_.convKernel,
                                          params_.convStride, rng);
    t = conv2->outLength(t);
    net_.add(std::move(conv2));
    net_.add(std::make_unique<ReLU>());
    net_.add(std::make_unique<MaxPool1D>(params_.poolSize));
    t = std::max<std::size_t>(t / params_.poolSize, 1);

    net_.add(std::make_unique<Lstm>(f, params_.lstmUnits, rng));
    net_.add(std::make_unique<Dropout>(params_.dropout, rng()));
    net_.add(std::make_unique<Dense>(params_.lstmUnits,
                                     static_cast<std::size_t>(num_classes),
                                     rng));
}

Matrix
CnnLstmClassifier::toInput(const std::vector<double> &x) const
{
    panicIf(x.size() != featureLen_, "feature length mismatch");
    const std::size_t channels = params_.inputChannels;
    const std::size_t steps = featureLen_ / channels;
    Matrix in(channels, steps);
    // Features are concatenated channel-major: channel c occupies
    // x[c*steps .. (c+1)*steps).
    for (std::size_t c = 0; c < channels; ++c)
        for (std::size_t t = 0; t < steps; ++t)
            in(c, t) = static_cast<float>(x[c * steps + t]);
    return in;
}

double
CnnLstmClassifier::accuracyOn(const std::vector<Matrix> &inputs,
                              const std::vector<Label> &labels) const
{
    if (inputs.empty())
        return 0.0;
    std::size_t hits = 0;
    const std::size_t chunk =
        static_cast<std::size_t>(std::max(params_.batchSize, 1));
    std::vector<std::size_t> idx(inputs.size());
    std::iota(idx.begin(), idx.end(), 0);
    for (std::size_t i = 0; i < inputs.size(); i += chunk) {
        const std::size_t count = std::min(chunk, inputs.size() - i);
        const Matrix logits = net_.forward(
            packBatch(inputs, idx.data() + i, count), count, false);
        for (std::size_t s = 0; s < count; ++s) {
            std::size_t best = 0;
            for (std::size_t c = 1; c < logits.rows(); ++c)
                if (logits(c, s) > logits(best, s))
                    best = c;
            if (static_cast<Label>(best) == labels[i + s])
                ++hits;
        }
    }
    return static_cast<double>(hits) / static_cast<double>(inputs.size());
}

void
CnnLstmClassifier::fit(const Dataset &train, const Dataset &validation)
{
    fatalIf(train.size() == 0, "empty training set");
    Adam adam(params_.learningRate);
    Rng rng(mix64(seed_) ^ 0x7a1717c9ULL);

    double best_val = -1.0;
    int epochs_since_best = 0;
    history_.clear();
    skippedBatches_ = 0;

    std::vector<std::size_t> order(train.size());
    std::iota(order.begin(), order.end(), 0);

    // Convert every sample to the network's float input layout once; the
    // conversion used to be paid per sample per epoch.
    std::vector<Matrix> inputs;
    inputs.reserve(train.size());
    for (const auto &f : train.features)
        inputs.push_back(toInput(f));
    std::vector<Matrix> val_inputs;
    val_inputs.reserve(validation.size());
    for (const auto &f : validation.features)
        val_inputs.push_back(toInput(f));

    // Minibatches run through the whole network as one column-stacked
    // matrix: the per-layer GEMMs see B columns at once instead of B
    // separate matrix-vector products.
    const auto batch_size = static_cast<std::size_t>(params_.batchSize);
    std::vector<Label> batch_labels;

    // The layer set is fixed for the whole fit, so gather the parameter
    // and gradient pointer lists once instead of re-walking the layers
    // (and re-allocating both vectors) on every optimizer step.
    const std::vector<Matrix *> param_ptrs = net_.params();
    const std::vector<Matrix *> grad_ptrs = net_.grads();

    Matrix grad;
    for (int epoch = 0; epoch < params_.maxEpochs; ++epoch) {
        std::shuffle(order.begin(), order.end(), rng.engine());
        double epoch_loss = 0.0;
        std::size_t loss_samples = 0;
        for (std::size_t i = 0; i < order.size(); i += batch_size) {
            net_.zeroGrads();
            const std::size_t batch = std::min(batch_size, order.size() - i);
            batch_labels.resize(batch);
            for (std::size_t j = 0; j < batch; ++j)
                batch_labels[j] = train.labels[order[i + j]];
            const Matrix logits = net_.forward(
                packBatch(inputs, order.data() + i, batch), batch, true);
            const double batch_loss =
                SoftmaxCrossEntropy::lossAndGradientBatch(logits,
                                                          batch_labels, grad);
            net_.backward(std::move(grad), batch);
            // A NaN in the loss or gradients would poison the weights
            // permanently; skip the batch and keep training.
            const bool stepped =
                std::isfinite(batch_loss) &&
                adam.stepIfFinite(param_ptrs, grad_ptrs,
                                  1.0 / static_cast<double>(batch));
            if (!stepped) {
                ++skippedBatches_;
                warnOnce("ml/non-finite-batch",
                         "skipping training batch(es) with non-finite "
                         "loss or gradients");
                continue;
            }
            epoch_loss += batch_loss;
            loss_samples += batch;
        }

        // Early stopping: stop when validation accuracy stops improving.
        const double val_acc =
            validation.size() > 0 ? accuracyOn(val_inputs, validation.labels)
                                  : accuracyOn(inputs, train.labels);
        history_.push_back(
            {loss_samples > 0
                 ? epoch_loss / static_cast<double>(loss_samples)
                 : 0.0,
             val_acc});
        if (val_acc > best_val + 1e-9) {
            best_val = val_acc;
            epochs_since_best = 0;
        } else if (++epochs_since_best >= params_.patience) {
            break;
        }
    }
}

std::vector<double>
CnnLstmClassifier::predictScores(const std::vector<double> &x) const
{
    const Matrix logits = net_.forward(toInput(x), 1, false);
    return SoftmaxCrossEntropy::probabilities(logits);
}

std::string
CnnLstmClassifier::saveModel() const
{
    return encodeWeights(net_);
}

bool
CnnLstmClassifier::loadModel(const std::string &payload)
{
    return decodeWeights(payload, net_).isOk();
}

SoftmaxRegressionClassifier::SoftmaxRegressionClassifier(
    int num_classes, std::size_t feature_len, std::uint64_t seed, double lr,
    int epochs, double l2)
    : numClasses_(num_classes), featureLen_(feature_len), seed_(seed),
      lr_(lr), epochs_(epochs), l2_(l2)
{
    fatalIf(num_classes < 2, "need at least two classes");
    w_.assign(num_classes, std::vector<double>(feature_len + 1, 0.0));
}

void
SoftmaxRegressionClassifier::fit(const Dataset &train, const Dataset &)
{
    fatalIf(train.size() == 0, "empty training set");
    Rng rng(seed_);
    std::vector<std::size_t> order(train.size());
    std::iota(order.begin(), order.end(), 0);
    for (int epoch = 0; epoch < epochs_; ++epoch) {
        std::shuffle(order.begin(), order.end(), rng.engine());
        const double lr = lr_ / (1.0 + 0.02 * epoch);
        for (std::size_t s : order) {
            const auto &x = train.features[s];
            const Label y = train.labels[s];
            auto scores = predictScores(x);
            for (int c = 0; c < numClasses_; ++c) {
                const double err =
                    scores[c] - (c == y ? 1.0 : 0.0);
                auto &row = w_[c];
                for (std::size_t j = 0; j < featureLen_; ++j)
                    row[j] -= lr * (err * x[j] + l2_ * row[j]);
                row[featureLen_] -= lr * err;
            }
        }
    }
}

std::vector<double>
SoftmaxRegressionClassifier::predictScores(
    const std::vector<double> &x) const
{
    panicIf(x.size() != featureLen_, "feature length mismatch");
    std::vector<double> logits(numClasses_, 0.0);
    for (int c = 0; c < numClasses_; ++c) {
        const auto &row = w_[c];
        double acc = row[featureLen_];
        for (std::size_t j = 0; j < featureLen_; ++j)
            acc += row[j] * x[j];
        logits[c] = acc;
    }
    const double mx = *std::max_element(logits.begin(), logits.end());
    double sum = 0.0;
    for (double &v : logits) {
        v = std::exp(v - mx);
        sum += v;
    }
    for (double &v : logits)
        v /= sum;
    return logits;
}

std::string
SoftmaxRegressionClassifier::saveModel() const
{
    ByteWriter out;
    out.text(kSoftmaxHeader);
    out.scalar<std::uint64_t>(w_.size());
    out.scalar<std::uint64_t>(featureLen_ + 1);
    for (const auto &row : w_)
        out.raw(row.data(), row.size());
    return out.take();
}

bool
SoftmaxRegressionClassifier::loadModel(const std::string &payload)
{
    ByteReader in(payload);
    in.text(kSoftmaxHeader);
    const auto rows = in.get<std::uint64_t>();
    const auto cols = in.get<std::uint64_t>();
    if (!in.ok() || rows != w_.size() || cols != featureLen_ + 1)
        return false;
    for (auto &row : w_)
        in.raw(row.data(), row.size());
    return in.done();
}

KnnClassifier::KnnClassifier(int num_classes, int k)
    : numClasses_(num_classes), k_(k)
{
    fatalIf(k < 1, "kNN needs k >= 1");
}

void
KnnClassifier::fit(const Dataset &train, const Dataset &)
{
    memory_ = train;
}

std::vector<double>
KnnClassifier::predictScores(const std::vector<double> &x) const
{
    panicIf(memory_.size() == 0, "kNN queried before fit");
    std::vector<std::pair<double, Label>> dists;
    dists.reserve(memory_.size());
    for (std::size_t i = 0; i < memory_.size(); ++i) {
        const auto &m = memory_.features[i];
        double d = 0.0;
        for (std::size_t j = 0; j < m.size() && j < x.size(); ++j)
            d += (m[j] - x[j]) * (m[j] - x[j]);
        dists.emplace_back(d, memory_.labels[i]);
    }
    const std::size_t k =
        std::min<std::size_t>(static_cast<std::size_t>(k_), dists.size());
    std::partial_sort(dists.begin(), dists.begin() + k, dists.end());
    std::vector<double> votes(numClasses_, 0.0);
    for (std::size_t i = 0; i < k; ++i)
        votes[dists[i].second] += 1.0 / (1.0 + dists[i].first);
    return votes;
}

ClassifierFactory
cnnLstmFactory(CnnLstmParams params)
{
    // Canonical one-line-per-field hyperparameter text, same discipline
    // as collectionFingerprint(): any field that changes what a trained
    // model computes must appear here, or the stage cache would reuse a
    // model across configurations it should distinguish.
    std::ostringstream canon;
    canon << "model=cnn-lstm\n"
          << "convFilters=" << params.convFilters << '\n'
          << "convKernel=" << params.convKernel << '\n'
          << "convStride=" << params.convStride << '\n'
          << "poolSize=" << params.poolSize << '\n'
          << "lstmUnits=" << params.lstmUnits << '\n'
          << "dropout=" << hexDouble(params.dropout) << '\n'
          << "learningRate=" << hexDouble(params.learningRate) << '\n'
          << "maxEpochs=" << params.maxEpochs << '\n'
          << "batchSize=" << params.batchSize << '\n'
          << "patience=" << params.patience << '\n'
          << "inputChannels=" << params.inputChannels << '\n';
    return ClassifierFactory(
        [params](int num_classes, std::size_t feature_len,
                 std::uint64_t seed) -> std::unique_ptr<Classifier> {
            return std::make_unique<CnnLstmClassifier>(
                num_classes, feature_len, params, seed);
        },
        canon.str());
}

ClassifierFactory
softmaxRegressionFactory()
{
    return ClassifierFactory(
        [](int num_classes, std::size_t feature_len,
           std::uint64_t seed) -> std::unique_ptr<Classifier> {
            return std::make_unique<SoftmaxRegressionClassifier>(
                num_classes, feature_len, seed);
        },
        "model=softmax-regression\nlr=0x1.999999999999ap-5\n"
        "epochs=120\nl2=0x1.a36e2eb1c432dp-14\n");
}

ClassifierFactory
knnFactory(int k)
{
    std::ostringstream canon;
    canon << "model=knn\nk=" << k << '\n';
    return ClassifierFactory(
        [k](int num_classes, std::size_t, std::uint64_t)
            -> std::unique_ptr<Classifier> {
            return std::make_unique<KnnClassifier>(num_classes, k);
        },
        canon.str());
}

} // namespace bigfish::ml
