/**
 * @file
 * Unit tests for src/ml: matrix algebra, finite-difference gradient
 * checks for every trainable layer at one and at three samples
 * (including full BPTT through the LSTM), the
 * Adam optimizer, dataset splitting, and classifier learning on
 * synthetic problems.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <set>
#include <string>
#include <string_view>

#include "base/hash.hh"
#include "ml/classifier.hh"
#include "ml/conv.hh"
#include "ml/dataset.hh"
#include "ml/evaluation.hh"
#include "ml/lstm.hh"
#include "ml/network.hh"
#include "ml/serialize.hh"

namespace bigfish::ml {
namespace {

TEST(Matrix, ConstructionAndAccess)
{
    Matrix m(2, 3);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    EXPECT_EQ(m.size(), 6u);
    m(1, 2) = 5.0f;
    EXPECT_FLOAT_EQ(m(1, 2), 5.0f);
    EXPECT_FLOAT_EQ(m(0, 0), 0.0f);
}

TEST(Matrix, FillAndScale)
{
    Matrix m(2, 2);
    m.fill(3.0f);
    m *= 2.0f;
    EXPECT_DOUBLE_EQ(m.sum(), 24.0);
    m.zero();
    EXPECT_DOUBLE_EQ(m.sum(), 0.0);
}

TEST(Matrix, AdditionShapeChecked)
{
    Matrix a(2, 2), b(2, 2);
    a.fill(1.0f);
    b.fill(2.0f);
    a += b;
    EXPECT_FLOAT_EQ(a(0, 0), 3.0f);
}

TEST(Matrix, MatmulKnownResult)
{
    Matrix a(2, 3, {1, 2, 3, 4, 5, 6});
    Matrix b(3, 2, {7, 8, 9, 10, 11, 12});
    const Matrix c = matmul(a, b);
    EXPECT_FLOAT_EQ(c(0, 0), 58.0f);
    EXPECT_FLOAT_EQ(c(0, 1), 64.0f);
    EXPECT_FLOAT_EQ(c(1, 0), 139.0f);
    EXPECT_FLOAT_EQ(c(1, 1), 154.0f);
}

TEST(Matrix, TransposedMultipliesAgree)
{
    Rng rng(1);
    Matrix a(4, 3), b(4, 2);
    a.randomize(rng, 1.0);
    b.randomize(rng, 1.0);
    // A^T B via matmulTransA must equal manual transpose.
    const Matrix c = matmulTransA(a, b);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 2; ++j) {
            float expect = 0.0f;
            for (std::size_t k = 0; k < 4; ++k)
                expect += a(k, i) * b(k, j);
            EXPECT_NEAR(c(i, j), expect, 1e-5);
        }

    Matrix d(3, 5), e(2, 5);
    d.randomize(rng, 1.0);
    e.randomize(rng, 1.0);
    Matrix f(3, 2);
    accumulateMatmulTransB(f, d, e);
    for (std::size_t i = 0; i < 3; ++i)
        for (std::size_t j = 0; j < 2; ++j) {
            float expect = 0.0f;
            for (std::size_t k = 0; k < 5; ++k)
                expect += d(i, k) * e(j, k);
            EXPECT_NEAR(f(i, j), expect, 1e-5);
        }
}

/** @p samples random (rows x steps) samples packed column-wise. */
Matrix
packedSamples(std::size_t rows, std::size_t steps, std::size_t samples,
              Rng &rng, double scale)
{
    Matrix out(rows, samples * steps);
    for (std::size_t s = 0; s < samples; ++s) {
        Matrix one(rows, steps);
        one.randomize(rng, scale);
        for (std::size_t r = 0; r < rows; ++r)
            for (std::size_t t = 0; t < steps; ++t)
                out(r, s * steps + t) = one(r, t);
    }
    return out;
}

/**
 * Finite-difference gradient check for one layer on a @p samples-sample
 * minibatch: perturbs inputs and parameters and compares numerical and
 * analytical gradients of a scalar loss L = sum(w_out * output).
 */
void
checkGradients(Layer &layer, const Matrix &input, std::size_t samples,
               double tolerance = 2e-2)
{
    Rng rng(99);
    Matrix out = layer.forward(input, samples, true);
    Matrix loss_weights(out.rows(), out.cols());
    loss_weights.randomize(rng, 1.0);

    // The layers under test are deterministic in training mode, so
    // repeated forward passes see the same function.
    auto loss_of = [&](const Matrix &in) {
        Matrix o = layer.forward(in, samples, true);
        double l = 0.0;
        for (std::size_t i = 0; i < o.size(); ++i)
            l += o.data()[i] * loss_weights.data()[i];
        return l;
    };

    // Analytical gradients.
    layer.zeroGrads();
    layer.forward(input, samples, true);
    const Matrix grad_in = layer.backward(loss_weights, samples, true);
    ASSERT_EQ(grad_in.size(), input.size());

    // Numerical input gradient (spot-check a subset of coordinates).
    const double eps = 1e-3;
    Matrix perturbed = input;
    for (std::size_t i = 0; i < std::min<std::size_t>(input.size(), 24);
         ++i) {
        const std::size_t idx = i * std::max<std::size_t>(
                                        input.size() / 24, 1);
        if (idx >= input.size())
            break;
        const float orig = perturbed.data()[idx];
        perturbed.data()[idx] = orig + static_cast<float>(eps);
        const double plus = loss_of(perturbed);
        perturbed.data()[idx] = orig - static_cast<float>(eps);
        const double minus = loss_of(perturbed);
        perturbed.data()[idx] = orig;
        const double numeric = (plus - minus) / (2 * eps);
        EXPECT_NEAR(grad_in.data()[idx], numeric,
                    tolerance * (1.0 + std::fabs(numeric)))
            << "input coordinate " << idx;
    }

    // Numerical parameter gradients (spot-check).
    auto params = layer.params();
    auto grads = layer.grads();
    for (std::size_t p = 0; p < params.size(); ++p) {
        Matrix *param = params[p];
        for (std::size_t i = 0;
             i < std::min<std::size_t>(param->size(), 12); ++i) {
            const std::size_t idx =
                i * std::max<std::size_t>(param->size() / 12, 1);
            if (idx >= param->size())
                break;
            const float orig = param->data()[idx];
            param->data()[idx] = orig + static_cast<float>(eps);
            const double plus = loss_of(input);
            param->data()[idx] = orig - static_cast<float>(eps);
            const double minus = loss_of(input);
            param->data()[idx] = orig;
            const double numeric = (plus - minus) / (2 * eps);
            EXPECT_NEAR(grads[p]->data()[idx], numeric,
                        tolerance * (1.0 + std::fabs(numeric)))
                << "param " << p << " coordinate " << idx;
        }
    }
}

TEST(GradCheck, Dense)
{
    Rng rng(2);
    Dense layer(6, 4, rng);
    checkGradients(layer, packedSamples(6, 1, 1, rng, 1.0), 1);
}

TEST(GradCheck, DenseBatchOfThree)
{
    Rng rng(2);
    Dense layer(6, 4, rng);
    checkGradients(layer, packedSamples(6, 1, 3, rng, 1.0), 3);
}

TEST(GradCheck, Conv1D)
{
    Rng rng(3);
    Conv1D layer(2, 3, 4, 2, rng);
    checkGradients(layer, packedSamples(2, 20, 1, rng, 1.0), 1);
}

TEST(GradCheck, Conv1DBatchOfThree)
{
    Rng rng(3);
    Conv1D layer(2, 3, 4, 2, rng);
    checkGradients(layer, packedSamples(2, 20, 3, rng, 1.0), 3);
}

TEST(GradCheck, Lstm)
{
    Rng rng(4);
    Lstm layer(3, 5, rng);
    checkGradients(layer, packedSamples(3, 7, 1, rng, 0.5), 1, 3e-2);
}

TEST(GradCheck, LstmBatchOfThree)
{
    // Tighter than the one-sample check: feeding BPTT another sample's
    // hidden state moves Wh's gradient by as little as 4e-3 at this
    // size, while the finite differences here stay within 1e-4.
    Rng rng(4);
    Lstm layer(3, 5, rng);
    checkGradients(layer, packedSamples(3, 7, 3, rng, 0.5), 3, 2e-3);
}

/** ReLU input with every value nudged away from the kink at zero. */
Matrix
reluInput(std::size_t samples, Rng &rng)
{
    Matrix input = packedSamples(4, 6, samples, rng, 1.0);
    for (std::size_t i = 0; i < input.size(); ++i)
        if (std::fabs(input.data()[i]) < 0.05f)
            input.data()[i] = 0.1f;
    return input;
}

TEST(GradCheck, ReLU)
{
    Rng rng(5);
    ReLU layer;
    checkGradients(layer, reluInput(1, rng), 1);
}

TEST(GradCheck, ReLUBatchOfThree)
{
    Rng rng(5);
    ReLU layer;
    checkGradients(layer, reluInput(3, rng), 3);
}

TEST(MaxPool, ForwardSelectsMaxima)
{
    MaxPool1D pool(2);
    Matrix in(1, 6, {1, 5, 2, 2, 9, 0});
    const Matrix out = pool.forward(in, 1, true);
    ASSERT_EQ(out.cols(), 3u);
    EXPECT_FLOAT_EQ(out(0, 0), 5.0f);
    EXPECT_FLOAT_EQ(out(0, 1), 2.0f);
    EXPECT_FLOAT_EQ(out(0, 2), 9.0f);
}

TEST(MaxPool, BackwardRoutesToArgmax)
{
    MaxPool1D pool(2);
    Matrix in(1, 4, {1, 5, 9, 2});
    pool.forward(in, 1, true);
    Matrix grad(1, 2, {10, 20});
    const Matrix grad_in = pool.backward(grad, 1, true);
    EXPECT_FLOAT_EQ(grad_in(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(grad_in(0, 1), 10.0f);
    EXPECT_FLOAT_EQ(grad_in(0, 2), 20.0f);
    EXPECT_FLOAT_EQ(grad_in(0, 3), 0.0f);
}

TEST(Dropout, InferenceIsIdentity)
{
    Dropout layer(0.7, 42);
    Matrix in(3, 3);
    in.fill(2.0f);
    const Matrix out = layer.forward(in, 1, false);
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_FLOAT_EQ(out.data()[i], 2.0f);
}

TEST(Dropout, TrainingZeroesAndRescales)
{
    Dropout layer(0.5, 42);
    Matrix in(1, 1000);
    in.fill(1.0f);
    const Matrix out = layer.forward(in, 1, true);
    int zeros = 0;
    for (std::size_t i = 0; i < out.size(); ++i) {
        if (out.data()[i] == 0.0f)
            ++zeros;
        else
            EXPECT_FLOAT_EQ(out.data()[i], 2.0f);
    }
    EXPECT_NEAR(zeros, 500, 70);
    // Expectation is preserved: mean ~= 1.
    EXPECT_NEAR(out.sum() / 1000.0, 1.0, 0.15);
}

TEST(Dropout, BackwardUsesSameMask)
{
    Dropout layer(0.5, 7);
    Matrix in(1, 100);
    in.fill(1.0f);
    const Matrix out = layer.forward(in, 1, true);
    Matrix grad(1, 100);
    grad.fill(1.0f);
    const Matrix grad_in = layer.backward(grad, 1, true);
    for (std::size_t i = 0; i < 100; ++i) {
        if (out.data()[i] == 0.0f)
            EXPECT_FLOAT_EQ(grad_in.data()[i], 0.0f);
        else
            EXPECT_FLOAT_EQ(grad_in.data()[i], 2.0f);
    }
}

TEST(Softmax, ProbabilitiesSumToOne)
{
    Matrix logits(4, 1, {1.0f, 2.0f, 3.0f, 4.0f});
    const auto probs = SoftmaxCrossEntropy::probabilities(logits);
    double sum = 0.0;
    for (double p : probs)
        sum += p;
    EXPECT_NEAR(sum, 1.0, 1e-9);
    EXPECT_GT(probs[3], probs[0]);
}

TEST(Softmax, NumericallyStableForLargeLogits)
{
    Matrix logits(2, 1, {1000.0f, 1001.0f});
    const auto probs = SoftmaxCrossEntropy::probabilities(logits);
    EXPECT_NEAR(probs[0] + probs[1], 1.0, 1e-9);
    EXPECT_FALSE(std::isnan(probs[0]));
}

TEST(Softmax, LossAndGradientConsistent)
{
    // Three samples, one per column; column 0 is (0.5, -0.2, 0.1).
    const Matrix logits(3, 3, {0.5f, -0.3f, 1.2f,   //
                               -0.2f, 0.4f, 0.0f,   //
                               0.1f, 0.8f, -0.7f}); //
    const std::vector<Label> truths = {1, 0, 2};
    Matrix grad, scratch;
    const double base =
        SoftmaxCrossEntropy::lossAndGradientBatch(logits, truths, grad);
    ASSERT_EQ(grad.rows(), 3u);
    ASSERT_EQ(grad.cols(), 3u);
    const double eps = 1e-3;
    for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t s = 0; s < 3; ++s) {
            Matrix plus = logits, minus = logits;
            plus(i, s) += static_cast<float>(eps);
            minus(i, s) -= static_cast<float>(eps);
            const double numeric =
                (SoftmaxCrossEntropy::lossAndGradientBatch(plus, truths,
                                                           scratch) -
                 SoftmaxCrossEntropy::lossAndGradientBatch(minus, truths,
                                                           scratch)) /
                (2 * eps);
            EXPECT_NEAR(grad(i, s), numeric, 1e-3)
                << "class " << i << " sample " << s;
        }
    }
    EXPECT_GT(base, 0.0);
}

TEST(Adam, ConvergesOnQuadratic)
{
    // Minimize (x - 3)^2: gradient 2(x - 3).
    Matrix x(1, 1);
    Matrix g(1, 1);
    Adam adam(0.1);
    for (int i = 0; i < 500; ++i) {
        g(0, 0) = 2.0f * (x(0, 0) - 3.0f);
        adam.step({&x}, {&g});
    }
    EXPECT_NEAR(x(0, 0), 3.0f, 0.05);
}

TEST(Sequential, CollectsParams)
{
    Rng rng(6);
    Sequential net;
    net.add(std::make_unique<Dense>(4, 3, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<Dense>(3, 2, rng));
    EXPECT_EQ(net.params().size(), 4u); // Two weight + two bias tensors.
    EXPECT_EQ(net.numParameters(), 4u * 3 + 3 + 3 * 2 + 2);
}

TEST(Dataset, AddAndSubset)
{
    Dataset d;
    d.add({1, 2}, 0);
    d.add({3, 4}, 2);
    d.add({5, 6}, 1);
    EXPECT_EQ(d.numClasses, 3);
    const Dataset s = d.subset({2, 0});
    ASSERT_EQ(s.size(), 2u);
    EXPECT_EQ(s.labels[0], 1);
    EXPECT_DOUBLE_EQ(s.features[1][0], 1.0);
}

TEST(KFold, PartitionsExactly)
{
    const auto splits = kFoldSplits(100, 10, 0.1, 3);
    ASSERT_EQ(splits.size(), 10u);
    std::set<std::size_t> all_test;
    for (const auto &split : splits) {
        EXPECT_EQ(split.test.size(), 10u);
        for (std::size_t i : split.test)
            all_test.insert(i);
        // Train + validation + test cover everything exactly once.
        EXPECT_EQ(split.train.size() + split.validation.size() +
                      split.test.size(),
                  100u);
        std::set<std::size_t> fold_union(split.train.begin(),
                                         split.train.end());
        fold_union.insert(split.validation.begin(),
                          split.validation.end());
        fold_union.insert(split.test.begin(), split.test.end());
        EXPECT_EQ(fold_union.size(), 100u);
    }
    EXPECT_EQ(all_test.size(), 100u);
}

TEST(KFold, ValidationFractionRespected)
{
    const auto splits = kFoldSplits(100, 10, 0.1, 3);
    // 90 non-test samples, 10% validation = 9.
    EXPECT_EQ(splits[0].validation.size(), 9u);
    EXPECT_EQ(splits[0].train.size(), 81u);
}

/** Synthetic dataset: class determined by the location of a dip. */
Dataset
syntheticDataset(int classes, int per_class, std::size_t len,
                 std::uint64_t seed)
{
    Dataset d;
    Rng rng(seed);
    for (int c = 0; c < classes; ++c) {
        for (int i = 0; i < per_class; ++i) {
            std::vector<double> x(len);
            for (std::size_t j = 0; j < len; ++j)
                x[j] = rng.normal(0.0, 0.3);
            const std::size_t at = len * c / classes;
            for (std::size_t j = at; j < at + len / classes && j < len; ++j)
                x[j] -= 2.0;
            d.add(std::move(x), c);
        }
    }
    return d;
}

TEST(CnnLstm, LearnsSyntheticProblem)
{
    const Dataset train = syntheticDataset(4, 25, 128, 1);
    const Dataset val = syntheticDataset(4, 5, 128, 2);
    const Dataset test = syntheticDataset(4, 10, 128, 3);
    CnnLstmParams params;
    params.convFilters = 16;
    params.lstmUnits = 16;
    params.maxEpochs = 25;
    CnnLstmClassifier model(4, 128, params, 5);
    model.fit(train, val);
    int hits = 0;
    for (std::size_t i = 0; i < test.size(); ++i)
        if (model.predict(test.features[i]) == test.labels[i])
            ++hits;
    EXPECT_GT(static_cast<double>(hits) /
                  static_cast<double>(test.size()),
              0.9);
}

TEST(CnnLstm, HistoryRecordsConvergence)
{
    const Dataset train = syntheticDataset(3, 20, 64, 50);
    const Dataset val = syntheticDataset(3, 5, 64, 51);
    CnnLstmParams params;
    params.convFilters = 8;
    params.lstmUnits = 8;
    params.maxEpochs = 15;
    params.patience = 15;
    CnnLstmClassifier model(3, 64, params, 52);
    model.fit(train, val);
    const auto &history = model.history();
    ASSERT_GE(history.size(), 5u);
    // Loss decreases substantially from the first to the best epoch.
    double best_loss = history.front().trainLoss;
    for (const auto &epoch : history)
        best_loss = std::min(best_loss, epoch.trainLoss);
    EXPECT_LT(best_loss, history.front().trainLoss * 0.5);
    for (const auto &epoch : history) {
        EXPECT_GE(epoch.valAccuracy, 0.0);
        EXPECT_LE(epoch.valAccuracy, 1.0);
    }
}

TEST(CnnLstm, ScoresAreDistribution)
{
    const Dataset train = syntheticDataset(3, 10, 64, 4);
    CnnLstmParams params;
    params.convFilters = 8;
    params.lstmUnits = 8;
    params.maxEpochs = 3;
    CnnLstmClassifier model(3, 64, params, 6);
    model.fit(train, train);
    const auto scores = model.predictScores(train.features[0]);
    ASSERT_EQ(scores.size(), 3u);
    double sum = 0.0;
    for (double s : scores) {
        EXPECT_GE(s, 0.0);
        sum += s;
    }
    EXPECT_NEAR(sum, 1.0, 1e-6);
}

TEST(CnnLstm, TrainedWeightsDigestIsPinned)
{
    // The bench classifier's hyperparameters (traceDefaults: 2
    // channels, batch 16) on a half-length input, 2 channels x 128
    // steps; the pipeline's 256 features per channel are pinned by
    // TrainedWeightsDigestIsPinnedAtBenchShape. Trained on 20 samples,
    // so every epoch ends in a 4-sample minibatch. The digests pin
    // every bit of the trained weights and of single-sample scores: a
    // GEMM rewrite that reorders a sum or lets the compiler fuse a
    // multiply-add into an FMA moves them.
    const Dataset train = syntheticDataset(4, 5, 256, 60);
    const Dataset val = syntheticDataset(4, 2, 256, 61);
    CnnLstmParams params = CnnLstmParams::traceDefaults();
    params.maxEpochs = 3;
    CnnLstmClassifier model(4, 256, params, 62);
    model.fit(train, val);
    ASSERT_EQ(model.history().size(), 3u);

    EXPECT_EQ(hex16(fnv64(encodeWeights(model.network()))),
              "eb5b1b3f1fd5dd2a");
    std::string scoreBytes;
    for (std::size_t i = 0; i < val.size(); i += 3) {
        const std::vector<double> s = model.predictScores(val.features[i]);
        scoreBytes.append(reinterpret_cast<const char *>(s.data()),
                          s.size() * sizeof(double));
    }
    EXPECT_EQ(hex16(fnv64(scoreBytes)), "ab781be5a55a1a6b");
}

TEST(CnnLstm, TrainedWeightsDigestIsPinnedAtBenchShape)
{
    // The shape every pipeline fold trains: 512 features = 2 channels x
    // 256 steps, so conv1 emits 83 steps per sample (1328 columns per
    // 16-sample batch), conv2 sees 20 pooled steps and emits 5, and
    // conv2's weight gradient has k = 80. Which index wins a tie among
    // rectified zeros does not reach these digests (ReLU masks the
    // gradient routed there); CrossIsa.MaxPoolMatchesFirstIndexScan-
    // UnderEveryTag pins it.
    const Dataset train = syntheticDataset(4, 5, 512, 63);
    const Dataset val = syntheticDataset(4, 2, 512, 64);
    CnnLstmParams params = CnnLstmParams::traceDefaults();
    params.maxEpochs = 3;
    CnnLstmClassifier model(4, 512, params, 65);
    model.fit(train, val);
    ASSERT_EQ(model.history().size(), 3u);

    EXPECT_EQ(hex16(fnv64(encodeWeights(model.network()))),
              "5bbd5b1591b09b63");
    std::string scoreBytes;
    for (std::size_t i = 0; i < val.size(); i += 3) {
        const std::vector<double> s = model.predictScores(val.features[i]);
        scoreBytes.append(reinterpret_cast<const char *>(s.data()),
                          s.size() * sizeof(double));
    }
    EXPECT_EQ(hex16(fnv64(scoreBytes)), "a253e1fa936404a7");
}

TEST(SoftmaxRegression, LearnsLinearProblem)
{
    const Dataset train = syntheticDataset(4, 25, 64, 7);
    const Dataset test = syntheticDataset(4, 10, 64, 8);
    SoftmaxRegressionClassifier model(4, 64, 9);
    model.fit(train, {});
    int hits = 0;
    for (std::size_t i = 0; i < test.size(); ++i)
        if (model.predict(test.features[i]) == test.labels[i])
            ++hits;
    EXPECT_GT(static_cast<double>(hits) /
                  static_cast<double>(test.size()),
              0.9);
}

TEST(Knn, NearestNeighbourRecall)
{
    const Dataset train = syntheticDataset(4, 20, 64, 10);
    const Dataset test = syntheticDataset(4, 8, 64, 11);
    KnnClassifier model(4, 3);
    model.fit(train, {});
    int hits = 0;
    for (std::size_t i = 0; i < test.size(); ++i)
        if (model.predict(test.features[i]) == test.labels[i])
            ++hits;
    EXPECT_GT(static_cast<double>(hits) /
                  static_cast<double>(test.size()),
              0.9);
}

TEST(CrossValidate, PerfectClassifierScoresPerfect)
{
    const Dataset data = syntheticDataset(3, 20, 64, 12);
    EvalConfig config;
    config.folds = 5;
    const auto result = crossValidate(knnFactory(1), data, config);
    EXPECT_GT(result.top1Mean, 0.95);
    EXPECT_EQ(result.foldTop1.size(), 5u);
    EXPECT_GE(result.topKMean, result.top1Mean);
}

TEST(CrossValidate, ChanceOnRandomLabels)
{
    Dataset data = syntheticDataset(4, 25, 32, 13);
    // Scramble labels: no classifier can beat chance reliably.
    Rng rng(14);
    for (auto &label : data.labels)
        label = static_cast<Label>(rng.uniformInt(0, 3));
    EvalConfig config;
    config.folds = 5;
    const auto result = crossValidate(knnFactory(3), data, config);
    EXPECT_LT(result.top1Mean, 0.45);
}

TEST(Serialize, WeightsRoundTrip)
{
    Rng rng(20);
    Sequential net;
    net.add(std::make_unique<Dense>(6, 5, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<Dense>(5, 3, rng));

    Matrix probe(6, 1);
    probe.randomize(rng, 1.0);
    const Matrix before = net.forward(probe, 1, false);

    const std::string bytes = encodeWeights(net);

    // A differently initialized clone must reproduce the original's
    // outputs once the weights are loaded.
    Rng rng2(21);
    Sequential clone;
    clone.add(std::make_unique<Dense>(6, 5, rng2));
    clone.add(std::make_unique<ReLU>());
    clone.add(std::make_unique<Dense>(5, 3, rng2));
    ASSERT_TRUE(decodeWeights(bytes, clone).isOk());
    const Matrix after = clone.forward(probe, 1, false);
    ASSERT_EQ(after.size(), before.size());
    for (std::size_t i = 0; i < before.size(); ++i)
        EXPECT_NEAR(after.data()[i], before.data()[i], 1e-5);
}

TEST(Serialize, CnnLstmRoundTripPreservesPredictions)
{
    const Dataset train = syntheticDataset(3, 12, 64, 30);
    CnnLstmParams params;
    params.convFilters = 8;
    params.lstmUnits = 8;
    params.maxEpochs = 5;
    CnnLstmClassifier model(3, 64, params, 31);
    model.fit(train, train);

    const std::string bytes = encodeWeights(model.network());
    CnnLstmClassifier clone(3, 64, params, 777);
    ASSERT_TRUE(decodeWeights(bytes, clone.network()).isOk());

    for (std::size_t i = 0; i < train.size(); i += 5) {
        const auto a = model.predictScores(train.features[i]);
        const auto b = clone.predictScores(train.features[i]);
        ASSERT_EQ(a.size(), b.size());
        // Raw float32 bits round-trip, so predictions are bit-exact.
        for (std::size_t c = 0; c < a.size(); ++c)
            EXPECT_EQ(a[c], b[c]);
    }
}

TEST(Training, CnnLstmRecoversFromNanPoisonedSample)
{
    Dataset train = syntheticDataset(3, 20, 64, 10);
    train.features[7][0] =
        std::numeric_limits<double>::infinity();

    CnnLstmParams params;
    params.convFilters = 8;
    params.lstmUnits = 8;
    params.maxEpochs = 3;
    params.patience = 3;
    CnnLstmClassifier model(3, 64, params, 12);
    model.fit(train, train);

    EXPECT_GT(model.skippedBatches(), 0u);
    EXPECT_TRUE(allFinite(model.network().params()));
    // The loss history only aggregates finite batches.
    for (const auto &epoch : model.history())
        EXPECT_TRUE(std::isfinite(epoch.trainLoss));
}

TEST(Training, Conv2NonFiniteInputKeepsTheDenseWeightGradient)
{
    // The pipeline's shape: 2 channels x 256 steps, batches of 16, so
    // conv1 emits 83 steps per sample, max-pool leaves 20, conv2 emits
    // 5 and its weight gradient has k = 80, where Conv1D skips the
    // zeros max-pool backward leaves in its output gradient. An
    // infinite feature at step 230 reaches conv1 steps 75 and 76,
    // pooled step 18 or 19, and so only conv2's last window, whose
    // output no pool window reads: its gradient there is zero while the
    // patch holds the infinity, and the dense dots turn that 0 * inf
    // into NaN. Conv2 must give the dense bits on a finite batch and on
    // the poisoned one alike.
    constexpr std::size_t kSamples = 16, kSteps = 256, kFeature = 230;
    Rng rng(66);
    Conv1D conv1(2, 32, 8, 3, rng);
    Conv1D conv2(32, 32, 8, 3, rng);
    ReLU relu1, relu2;
    MaxPool1D pool1(4), pool2(4);
    for (const bool poisoned : {false, true}) {
        SCOPED_TRACE(poisoned ? "poisoned batch" : "finite batch");
        conv2.zeroGrads();
        Matrix in(2, kSamples * kSteps);
        in.randomize(rng, 1.0);
        if (poisoned)
            in(0, 7 * kSteps + kFeature) =
                std::numeric_limits<float>::infinity();
        Matrix x =
            pool1.forward(relu1.forward(conv1.forward(in, kSamples, true),
                                        kSamples, true),
                          kSamples, true);
        const Matrix conv2In = x;
        const Matrix pooled = pool2.forward(
            relu2.forward(conv2.forward(std::move(x), kSamples, true),
                          kSamples, true),
            kSamples, true);
        Matrix grad(pooled.rows(), pooled.cols());
        grad.randomize(rng, 1.0);
        const Matrix dOut = relu2.backward(
            pool2.backward(std::move(grad), kSamples, true), kSamples,
            true);
        conv2.backward(dOut, kSamples, true);

        // The dense reference: im2col of conv2's input, then
        // accumulateMatmulTransB, as Conv1D ran it before the sparse
        // kernel.
        const std::size_t inT = conv2In.cols() / kSamples;
        const std::size_t outT = conv2.outLength(inT);
        Matrix patches(32 * 8, kSamples * outT);
        for (std::size_t c = 0; c < 32; ++c)
            for (std::size_t k = 0; k < 8; ++k)
                for (std::size_t s = 0; s < kSamples; ++s)
                    for (std::size_t t = 0; t < outT; ++t)
                        patches(c * 8 + k, s * outT + t) =
                            conv2In(c, s * inT + t * 3 + k);
        Matrix want(32, 32 * 8);
        accumulateMatmulTransB(want, dOut, patches);
        ASSERT_EQ(allFinite({&want}), !poisoned)
            << "the poisoned batch must make the dense gradient NaN";
        const Matrix &got = *conv2.grads()[0];
        ASSERT_EQ(got.size(), want.size());
        EXPECT_EQ(std::memcmp(got.data(), want.data(),
                              want.size() * sizeof(float)),
                  0);
    }

    // Through training: the batch holding the poisoned sample has a
    // NaN gradient on the dense path, so every epoch skips exactly
    // that batch and the weights stay finite.
    Dataset train = syntheticDataset(4, 5, 2 * kSteps, 67);
    train.features[7][kFeature] = std::numeric_limits<double>::infinity();
    CnnLstmParams params = CnnLstmParams::traceDefaults();
    params.maxEpochs = 3;
    params.patience = 3;
    CnnLstmClassifier model(4, 2 * kSteps, params, 68);
    model.fit(train, train);
    ASSERT_EQ(model.history().size(), 3u);
    EXPECT_EQ(model.skippedBatches(), 3u);
    EXPECT_TRUE(allFinite(model.network().params()));
}

TEST(Training, AdamStepIfFiniteLeavesParamsUntouched)
{
    Rng rng(13);
    Matrix p(2, 2), g(2, 2);
    p.randomize(rng, 1.0);
    g.randomize(rng, 1.0);
    const Matrix before = p;
    g(1, 1) = std::numeric_limits<float>::quiet_NaN();
    Adam adam(1e-2);
    EXPECT_FALSE(adam.stepIfFinite({&p}, {&g}));
    for (std::size_t i = 0; i < p.size(); ++i)
        EXPECT_EQ(p.data()[i], before.data()[i]);
    g(1, 1) = 0.5f;
    EXPECT_TRUE(adam.stepIfFinite({&p}, {&g}));
    bool moved = false;
    for (std::size_t i = 0; i < p.size(); ++i)
        moved = moved || p.data()[i] != before.data()[i];
    EXPECT_TRUE(moved);
}

TEST(SerializeErrors, RejectsWrongArchitecture)
{
    Rng rng(22);
    Sequential net;
    net.add(std::make_unique<Dense>(4, 4, rng));
    const std::string bytes = encodeWeights(net);

    Sequential other;
    other.add(std::make_unique<Dense>(4, 5, rng)); // Different shape.
    const Status status = decodeWeights(bytes, other);
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), ErrorCode::ShapeMismatch);
    EXPECT_NE(status.message().find("shape mismatch"), std::string::npos);
    // The failed load must not have touched the destination weights.
}

TEST(SerializeErrors, RejectsWrongHeaderNamingWhatWasFound)
{
    Rng rng(23);
    Sequential net;
    net.add(std::make_unique<Dense>(2, 2, rng));
    const Status status = decodeWeights("junk\n", net);
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), ErrorCode::ParseError);
    EXPECT_NE(status.message().find("bigfish-weights"), std::string::npos);
    EXPECT_NE(status.message().find("junk"), std::string::npos);
}

/** A two-tensor network whose encoded weights the error tests cut up. */
Sequential
smallDense(std::uint64_t seed)
{
    Rng rng(seed);
    Sequential net;
    net.add(std::make_unique<Dense>(3, 2, rng));
    return net;
}

TEST(SerializeErrors, TruncatedAtEveryByteIsAParseError)
{
    Sequential net = smallDense(25);
    const std::string bytes = encodeWeights(net);
    for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
        SCOPED_TRACE("truncated at byte " + std::to_string(cut));
        Sequential dest = smallDense(26);
        const Status status =
            decodeWeights(std::string_view(bytes).substr(0, cut), dest);
        ASSERT_FALSE(status.isOk());
        EXPECT_EQ(status.code(), ErrorCode::ParseError);
    }
    Sequential dest = smallDense(26);
    EXPECT_TRUE(decodeWeights(bytes, dest).isOk());
}

TEST(SerializeErrors, NanWeightBitsAreADataError)
{
    Sequential net = smallDense(27);
    std::string bytes = encodeWeights(net);
    // The last four bytes are the final weight's float32 bits.
    const float nan = std::numeric_limits<float>::quiet_NaN();
    std::memcpy(bytes.data() + bytes.size() - sizeof(float), &nan,
                sizeof(float));
    Sequential dest = smallDense(28);
    const Status status = decodeWeights(bytes, dest);
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), ErrorCode::DataError);
}

TEST(SerializeErrors, VersionOneTextStreamIsAParseError)
{
    // The retired text format: header, tensor count, "rows cols v..."
    // per tensor. Such weights (and v1 model cache entries) no longer
    // load; the error names the format it expected.
    const std::string_view text = "# bigfish-weights v1\n2\n2 3 0.1 0.2 "
                                  "0.3 0.4 0.5 0.6\n2 1 0.1 0.2\n";
    Sequential net = smallDense(29);
    const Status status = decodeWeights(text, net);
    ASSERT_FALSE(status.isOk());
    EXPECT_EQ(status.code(), ErrorCode::ParseError);
    EXPECT_NE(status.message().find("bigfish-weights"), std::string::npos);
}

TEST(OpenWorldEval, ReportsSplitMetrics)
{
    // Classes 0..2 sensitive, class 3 non-sensitive, evaluated with the
    // fold primitives the pipeline's open-world stages compose.
    Dataset data = syntheticDataset(4, 25, 64, 15);
    const EvalConfig config;
    std::vector<FoldScores> folds;
    for (const FoldSplit &split :
         kFoldSplits(data.size(), 5, config.valFraction, config.seed)) {
        const auto model = trainFoldClassifier(
            knnFactory(1), data, split,
            config.seed + kOpenWorldFoldSeedBase + folds.size());
        folds.push_back(scoreFold(*model, data, split.test));
    }
    const auto result = aggregateFoldsOpenWorld(folds, 3, config.topK);
    EXPECT_GT(result.openWorld.sensitiveAccuracy, 0.9);
    EXPECT_GT(result.openWorld.nonSensitiveAccuracy, 0.9);
    EXPECT_GT(result.openWorld.combinedAccuracy, 0.9);
}

} // namespace
} // namespace bigfish::ml
