/**
 * @file
 * Property tests of the optimized dense kernels against the naive
 * reference implementation: random shapes (including degenerate 0/1
 * dimensions) must agree within float tolerance, and the GEMMs must not
 * depend on the pool's thread count.
 *
 * The CrossIsa suite enforces the determinism contract of DESIGN.md
 * §10: every kernels:: entry point must produce bitwise-identical
 * output under BF_SIMD=scalar and avx2 (swept in-process via
 * simd::setActive), across odd/prime lengths that exercise every tail
 * lane. Unsupported ISAs are skipped, never failed.
 */

#include <cmath>
#include <cstring>
#include <memory>
#include <vector>

#include <gtest/gtest.h>

#include "base/rng.hh"
#include "base/simd.hh"
#include "base/thread_pool.hh"
#include "ml/conv.hh"
#include "ml/kernels.hh"
#include "ml/lstm.hh"
#include "ml/matrix.hh"
#include "ml/network.hh"

namespace bigfish::ml {
namespace {

Matrix
randomMatrix(std::size_t rows, std::size_t cols, Rng &rng)
{
    Matrix m(rows, cols);
    for (std::size_t i = 0; i < m.size(); ++i)
        m.data()[i] = static_cast<float>(rng.normal(0.0, 1.0));
    return m;
}

Matrix
transposed(const Matrix &m)
{
    Matrix t(m.cols(), m.rows());
    for (std::size_t r = 0; r < m.rows(); ++r)
        for (std::size_t c = 0; c < m.cols(); ++c)
            t(c, r) = m(r, c);
    return t;
}

void
expectNear(const Matrix &got, const Matrix &want, float tol = 1e-5f)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (std::size_t i = 0; i < got.size(); ++i) {
        // 1e-5 relative: blocked/parallel kernels reorder float adds, so
        // exact equality with the naive loop is not expected.
        const float w = want.data()[i];
        EXPECT_NEAR(got.data()[i], w, tol * (1.0f + std::fabs(w)))
            << "element " << i << " of " << got.rows() << "x" << got.cols();
    }
}

/** Shapes covering square, skinny, fat, vector and degenerate cases. */
struct Shape
{
    std::size_t m, k, n;
};

const Shape kShapes[] = {
    {1, 1, 1},  {1, 7, 1},   {5, 1, 5},   {3, 4, 5},    {16, 16, 16},
    {2, 64, 3}, {64, 2, 33}, {31, 17, 1}, {1, 1, 40},   {7, 300, 9},
    {0, 4, 4},  {4, 0, 4},   {4, 4, 0},   {128, 48, 56}};

TEST(Kernel, MatmulMatchesReference)
{
    Rng rng(1);
    for (const Shape &s : kShapes) {
        const Matrix a = randomMatrix(s.m, s.k, rng);
        const Matrix b = randomMatrix(s.k, s.n, rng);
        expectNear(matmul(a, b), matmulReference(a, b));
    }
}

TEST(Kernel, MatmulBiasMatchesReference)
{
    Rng rng(2);
    for (const Shape &s : kShapes) {
        const Matrix a = randomMatrix(s.m, s.k, rng);
        const Matrix b = randomMatrix(s.k, s.n, rng);
        const Matrix bias = randomMatrix(s.m, 1, rng);
        Matrix want = matmulReference(a, b);
        for (std::size_t r = 0; r < want.rows(); ++r)
            for (std::size_t c = 0; c < want.cols(); ++c)
                want(r, c) += bias(r, 0);
        expectNear(matmulBias(a, b, bias), want);
    }
}

TEST(Kernel, MatmulTransAMatchesReference)
{
    Rng rng(3);
    for (const Shape &s : kShapes) {
        const Matrix a = randomMatrix(s.k, s.m, rng);
        const Matrix b = randomMatrix(s.k, s.n, rng);
        expectNear(matmulTransA(a, b), matmulReference(transposed(a), b));
    }
}

TEST(Kernel, MatmulTransBMatchesReference)
{
    Rng rng(4);
    for (const Shape &s : kShapes) {
        const Matrix a = randomMatrix(s.m, s.k, rng);
        const Matrix b = randomMatrix(s.n, s.k, rng);
        expectNear(matmulTransB(a, b), matmulReference(a, transposed(b)));
    }
}

TEST(Kernel, AccumulateVariantsMatchReference)
{
    Rng rng(5);
    for (const Shape &s : kShapes) {
        const Matrix a = randomMatrix(s.m, s.k, rng);
        const Matrix b = randomMatrix(s.k, s.n, rng);
        const Matrix init = randomMatrix(s.m, s.n, rng);

        Matrix got = init;
        accumulateMatmul(got, a, b);
        Matrix want = matmulReference(a, b);
        want += init;
        expectNear(got, want);

        got = init;
        accumulateMatmulTransA(got, transposed(a), b);
        expectNear(got, want);

        got = init;
        accumulateMatmulTransB(got, a, transposed(b));
        expectNear(got, want);
    }
}

TEST(Kernel, GemvMatchesReference)
{
    Rng rng(6);
    for (const std::size_t rows : {std::size_t{1}, std::size_t{7},
                                   std::size_t{64}, std::size_t{301}}) {
        for (const std::size_t cols : {std::size_t{1}, std::size_t{13},
                                       std::size_t{256}}) {
            const Matrix a = randomMatrix(rows, cols, rng);
            const Matrix x = randomMatrix(cols, 1, rng);
            const Matrix bias = randomMatrix(rows, 1, rng);
            expectNear(gemv(a, x), matmulReference(a, x));

            Matrix want = matmulReference(a, x);
            want += bias;
            expectNear(gemvBias(a, x, bias), want);
        }
    }
}

TEST(Kernel, ThreadedPathBitIdenticalToSerial)
{
    // GEMMs run on their calling thread, so the pool size must not
    // reach the bits of a GEMM this large (~5.8 MFLOP).
    Rng rng(7);
    const Matrix a = randomMatrix(96, 200, rng);
    const Matrix b = randomMatrix(200, 150, rng);

    setGlobalThreads(1);
    const Matrix serial = matmul(a, b);
    setGlobalThreads(8);
    const Matrix parallel = matmul(a, b);
    setGlobalThreads(0);

    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i)
        EXPECT_EQ(serial.data()[i], parallel.data()[i]) << "element " << i;
}

TEST(Kernel, ReluInPlaceClampsNegatives)
{
    Rng rng(8);
    Matrix m = randomMatrix(9, 33, rng);
    const Matrix before = m;
    reluInPlace(m);
    for (std::size_t i = 0; i < m.size(); ++i)
        EXPECT_EQ(m.data()[i], std::max(before.data()[i], 0.0f));
}

TEST(KernelDeathTest, ElementwiseOpsRejectShapeMismatch)
{
    Matrix a(3, 4), b(4, 3);
    EXPECT_DEATH(a += b, "shape mismatch");
}

TEST(Kernel, ResizeReusesAndZeroes)
{
    Matrix m(4, 4);
    m.fill(7.0f);
    m.resize(2, 3, /*zeroed=*/true);
    EXPECT_EQ(m.rows(), 2u);
    EXPECT_EQ(m.cols(), 3u);
    for (std::size_t i = 0; i < m.size(); ++i)
        EXPECT_EQ(m.data()[i], 0.0f);
}

/** The CNN-LSTM topology at toy scale, deterministic per seed. */
Sequential
makeToyNet(std::uint64_t seed)
{
    Rng rng(seed);
    Sequential net;
    net.add(std::make_unique<Conv1D>(2, 6, 4, 2, rng));
    net.add(std::make_unique<ReLU>());
    net.add(std::make_unique<MaxPool1D>(2));
    net.add(std::make_unique<Lstm>(6, 5, rng));
    net.add(std::make_unique<Dropout>(0.4, rng()));
    net.add(std::make_unique<Dense>(5, 3, rng));
    return net;
}

TEST(BatchedNetwork, ForwardMatchesPerSample)
{
    constexpr std::size_t kSamples = 5, kChannels = 2, kSteps = 24;
    Rng rng(99);
    std::vector<Matrix> samples;
    Matrix batch(kChannels, kSamples * kSteps);
    for (std::size_t s = 0; s < kSamples; ++s) {
        samples.push_back(randomMatrix(kChannels, kSteps, rng));
        for (std::size_t r = 0; r < kChannels; ++r)
            for (std::size_t t = 0; t < kSteps; ++t)
                batch(r, s * kSteps + t) = samples[s](r, t);
    }

    Sequential net = makeToyNet(7);
    ASSERT_TRUE(net.supportsBatch());
    const Matrix out = net.forwardBatch(batch, kSamples, false);
    ASSERT_EQ(out.cols(), kSamples);
    for (std::size_t s = 0; s < kSamples; ++s) {
        const Matrix one = net.forward(samples[s], false);
        ASSERT_EQ(one.rows(), out.rows());
        for (std::size_t r = 0; r < out.rows(); ++r)
            EXPECT_NEAR(out(r, s), one(r, 0),
                        1e-4f * (1.0f + std::fabs(one(r, 0))))
                << "sample " << s << " row " << r;
    }
}

TEST(BatchedNetwork, GradientsMatchPerSampleAccumulation)
{
    constexpr std::size_t kSamples = 6, kChannels = 2, kSteps = 24;
    Rng rng(123);
    std::vector<Matrix> samples;
    std::vector<Label> labels;
    Matrix batch(kChannels, kSamples * kSteps);
    for (std::size_t s = 0; s < kSamples; ++s) {
        samples.push_back(randomMatrix(kChannels, kSteps, rng));
        labels.push_back(static_cast<Label>(s % 3));
        for (std::size_t r = 0; r < kChannels; ++r)
            for (std::size_t t = 0; t < kSteps; ++t)
                batch(r, s * kSteps + t) = samples[s](r, t);
    }

    // Same seed -> identical weights and dropout mask stream, so the
    // batched pass must reproduce the per-sample minibatch gradient up
    // to float summation order.
    Sequential serial = makeToyNet(31);
    Sequential batched = makeToyNet(31);

    Matrix grad;
    double serial_loss = 0.0;
    serial.zeroGrads();
    for (std::size_t s = 0; s < kSamples; ++s) {
        const Matrix logits = serial.forward(samples[s], true);
        serial_loss +=
            SoftmaxCrossEntropy::lossAndGradient(logits, labels[s], grad);
        serial.backward(grad);
    }

    batched.zeroGrads();
    const Matrix logits = batched.forwardBatch(batch, kSamples, true);
    const double batch_loss =
        SoftmaxCrossEntropy::lossAndGradientBatch(logits, labels, grad);
    batched.backwardBatch(grad, kSamples);

    EXPECT_NEAR(batch_loss, serial_loss,
                1e-3 * (1.0 + std::fabs(serial_loss)));
    const auto sg = serial.grads();
    const auto bg = batched.grads();
    ASSERT_EQ(sg.size(), bg.size());
    for (std::size_t i = 0; i < sg.size(); ++i)
        expectNear(*bg[i], *sg[i], 1e-3f);
}

/**
 * The layers of CnnLstmClassifier at trace defaults (two channels,
 * 32 filters of width 8, stride 3, pool 4, 32 LSTM units), so conv1 is
 * the layer whose input gradient Sequential::backwardBatch skips.
 */
std::vector<std::unique_ptr<Layer>>
makeCnnLstmLayers(std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<std::unique_ptr<Layer>> layers;
    layers.push_back(std::make_unique<Conv1D>(2, 32, 8, 3, rng));
    layers.push_back(std::make_unique<ReLU>());
    layers.push_back(std::make_unique<MaxPool1D>(4));
    layers.push_back(std::make_unique<Conv1D>(32, 32, 8, 3, rng));
    layers.push_back(std::make_unique<ReLU>());
    layers.push_back(std::make_unique<MaxPool1D>(4));
    layers.push_back(std::make_unique<Lstm>(32, 32, rng));
    layers.push_back(std::make_unique<Dropout>(0.3, rng()));
    layers.push_back(std::make_unique<Dense>(32, 4, rng));
    return layers;
}

TEST(BatchedNetwork, SkippedInputGradientLeavesParameterGradientsBitIdentical)
{
    constexpr std::size_t kSamples = 16, kChannels = 2, kSteps = 256;
    Rng rng(404);
    const Matrix batch = randomMatrix(kChannels, kSamples * kSteps, rng);
    std::vector<Label> labels;
    for (std::size_t s = 0; s < kSamples; ++s)
        labels.push_back(static_cast<Label>(s % 4));

    Sequential skipped;
    for (auto &layer : makeCnnLstmLayers(55))
        skipped.add(std::move(layer));
    std::vector<std::unique_ptr<Layer>> full = makeCnnLstmLayers(55);

    Matrix grad;
    skipped.zeroGrads();
    SoftmaxCrossEntropy::lossAndGradientBatch(
        skipped.forwardBatch(batch, kSamples, true), labels, grad);
    skipped.backwardBatch(grad, kSamples);

    Matrix x = batch;
    for (auto &layer : full) {
        layer->zeroGrads();
        x = layer->forwardBatch(x, kSamples, true);
    }
    SoftmaxCrossEntropy::lossAndGradientBatch(x, labels, grad);
    Matrix g = grad;
    for (auto it = full.rbegin(); it != full.rend(); ++it)
        g = (*it)->backwardBatch(g, kSamples, true);
    EXPECT_EQ(g.rows(), kChannels);
    EXPECT_EQ(g.cols(), kSamples * kSteps);

    std::vector<Matrix *> want;
    for (auto &layer : full)
        for (Matrix *m : layer->grads())
            want.push_back(m);
    const std::vector<Matrix *> got = skipped.grads();
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        ASSERT_EQ(got[i]->size(), want[i]->size());
        EXPECT_EQ(std::memcmp(got[i]->data(), want[i]->data(),
                              want[i]->size() * sizeof(float)),
                  0)
            << "gradient buffer " << i;
    }
}

TEST(BatchedNetwork, ConvWithoutInputGradientReturnsEmpty)
{
    constexpr std::size_t kSamples = 3, kSteps = 40;
    Rng rng(17);
    const Matrix in = randomMatrix(2, kSamples * kSteps, rng);
    Rng wa(9), wb(9);
    Conv1D skipped(2, 5, 4, 2, wa), full(2, 5, 4, 2, wb);
    const Matrix out = skipped.forwardBatch(in, kSamples, true);
    full.forwardBatch(in, kSamples, true);
    const Matrix grad_out = randomMatrix(out.rows(), out.cols(), rng);

    EXPECT_EQ(skipped.backwardBatch(grad_out, kSamples, false).size(), 0u);
    EXPECT_EQ(full.backwardBatch(grad_out, kSamples, true).size(),
              in.size());
    for (std::size_t i = 0; i < 2; ++i)
        EXPECT_EQ(std::memcmp(skipped.grads()[i]->data(),
                              full.grads()[i]->data(),
                              full.grads()[i]->size() * sizeof(float)),
                  0)
            << "gradient buffer " << i;
}

// --- Cross-ISA bit-identity (DESIGN.md §10) ----------------------------

/** Restores the dispatch Tag a test swept away from. */
class TagGuard
{
  public:
    TagGuard() : saved_(simd::active()) {}
    ~TagGuard() { simd::setActive(saved_); }

  private:
    simd::Tag saved_;
};

/** The Tags this host can execute (Scalar always qualifies). */
std::vector<simd::Tag>
supportedTags()
{
    std::vector<simd::Tag> tags;
    for (const simd::Tag tag : {simd::Tag::Scalar, simd::Tag::Avx2})
        if (simd::supported(tag))
            tags.push_back(tag);
    return tags;
}

/** Lengths chosen to hit every n%8 tail lane plus prime/odd interiors. */
const std::size_t kLaneLengths[] = {1,  2,  3,  5,  7,  8,   9,   13,
                                    16, 17, 23, 31, 64, 101, 255, 257};

std::vector<float>
randomVec(std::size_t n, Rng &rng, double scale = 1.0)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = static_cast<float>(rng.normal(0.0, scale));
    return v;
}

/**
 * Runs @p op under every supported Tag and asserts the output buffers
 * it fills are bitwise identical to the Scalar path's. @p op receives
 * the Tag (already activated) and must return the buffers to compare.
 */
template <typename Op>
void
expectBitIdenticalAcrossTags(const char *what, std::size_t n, Op op)
{
    TagGuard guard;
    simd::setActive(simd::Tag::Scalar);
    const std::vector<std::vector<float>> want = op();
    for (const simd::Tag tag : supportedTags()) {
        if (tag == simd::Tag::Scalar)
            continue;
        simd::setActive(tag);
        const std::vector<std::vector<float>> got = op();
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t b = 0; b < got.size(); ++b) {
            ASSERT_EQ(got[b].size(), want[b].size());
            const bool same =
                std::memcmp(got[b].data(), want[b].data(),
                            want[b].size() * sizeof(float)) == 0;
            EXPECT_TRUE(same) << what << " n=" << n << " buffer " << b
                              << " differs between scalar and "
                              << simd::name(tag);
        }
    }
}

TEST(CrossIsa, DotBitIdentical)
{
    Rng rng(101);
    for (const std::size_t n : kLaneLengths) {
        const std::vector<float> a = randomVec(n, rng);
        const std::vector<float> b = randomVec(n, rng);
        expectBitIdenticalAcrossTags("dot", n, [&] {
            return std::vector<std::vector<float>>{
                {kernels::dot(a.data(), b.data(), n)}};
        });
    }
}

TEST(CrossIsa, DotTile4x2BitIdentical)
{
    Rng rng(102);
    for (const std::size_t k : kLaneLengths) {
        // 4 rows of A against 2 rows of B, C row stride 2.
        const std::vector<float> a = randomVec(4 * k, rng);
        const std::vector<float> b = randomVec(2 * k, rng);
        expectBitIdenticalAcrossTags("dotTile4x2", k, [&] {
            std::vector<float> c(4 * 2, 0.0f);
            kernels::dotTile4x2(c.data(), a.data(), b.data(), 0, 0, k, 2);
            return std::vector<std::vector<float>>{c};
        });
    }
}

TEST(CrossIsa, AxpyBitIdentical)
{
    Rng rng(103);
    for (const std::size_t n : kLaneLengths) {
        const std::vector<float> x = randomVec(n, rng);
        const std::vector<float> y0 = randomVec(n, rng);
        const float alpha = static_cast<float>(rng.normal(0.0, 2.0));
        expectBitIdenticalAcrossTags("axpy", n, [&] {
            std::vector<float> y = y0;
            kernels::axpy(y.data(), x.data(), alpha, n);
            return std::vector<std::vector<float>>{y};
        });
    }
}

TEST(CrossIsa, Axpy4BitIdentical)
{
    Rng rng(104);
    for (const std::size_t n : kLaneLengths) {
        const std::vector<float> x0 = randomVec(n, rng);
        const std::vector<float> x1 = randomVec(n, rng);
        const std::vector<float> x2 = randomVec(n, rng);
        const std::vector<float> x3 = randomVec(n, rng);
        const std::vector<float> y0 = randomVec(n, rng);
        const float a0 = static_cast<float>(rng.normal(0.0, 1.0));
        const float a1 = static_cast<float>(rng.normal(0.0, 1.0));
        const float a2 = static_cast<float>(rng.normal(0.0, 1.0));
        const float a3 = static_cast<float>(rng.normal(0.0, 1.0));
        expectBitIdenticalAcrossTags("axpy4", n, [&] {
            std::vector<float> y = y0;
            kernels::axpy4(y.data(), x0.data(), x1.data(), x2.data(),
                           x3.data(), a0, a1, a2, a3, n);
            return std::vector<std::vector<float>>{y};
        });
    }
}

TEST(CrossIsa, ActivationsBitIdentical)
{
    Rng rng(105);
    for (const std::size_t n : kLaneLengths) {
        // Wide input range to cross every polynomial/clamp branch:
        // interior, saturation (|x| > 88 for exp, > 9 for tanh), zero.
        std::vector<float> base = randomVec(n, rng, 8.0);
        if (n >= 4) {
            base[0] = 0.0f;
            base[1] = 95.0f;
            base[2] = -95.0f;
            base[3] = 0.624f; // just under the tanh |x|<0.625 split
        }
        expectBitIdenticalAcrossTags("relu", n, [&] {
            std::vector<float> d = base;
            kernels::relu(d.data(), n);
            return std::vector<std::vector<float>>{d};
        });
        expectBitIdenticalAcrossTags("sigmoid", n, [&] {
            std::vector<float> d = base;
            kernels::sigmoid(d.data(), n);
            return std::vector<std::vector<float>>{d};
        });
        expectBitIdenticalAcrossTags("tanh", n, [&] {
            std::vector<float> d = base;
            kernels::tanh(d.data(), n);
            return std::vector<std::vector<float>>{d};
        });
    }
}

TEST(CrossIsa, VectorActivationsMatchScalarHelpers)
{
    // The strided GRU loop uses sigmoidScalar/tanhScalar one value at a
    // time; they must agree bitwise with the vector paths under every
    // Tag, or mixing the two in one network breaks determinism.
    TagGuard guard;
    Rng rng(106);
    std::vector<float> xs = randomVec(257, rng, 8.0);
    xs.insert(xs.end(), {0.0f, 95.0f, -95.0f, 0.625f, -0.625f});
    for (const simd::Tag tag : supportedTags()) {
        simd::setActive(tag);
        std::vector<float> sig = xs, tah = xs;
        kernels::sigmoid(sig.data(), sig.size());
        kernels::tanh(tah.data(), tah.size());
        for (std::size_t i = 0; i < xs.size(); ++i) {
            EXPECT_EQ(sig[i], kernels::sigmoidScalar(xs[i]))
                << "sigmoid x=" << xs[i] << " tag=" << simd::name(tag);
            EXPECT_EQ(tah[i], kernels::tanhScalar(xs[i]))
                << "tanh x=" << xs[i] << " tag=" << simd::name(tag);
        }
    }
}

TEST(CrossIsa, LstmGatesForwardBitIdentical)
{
    Rng rng(107);
    for (const std::size_t n : kLaneLengths) {
        const std::vector<float> zi = randomVec(n, rng, 2.0);
        const std::vector<float> zf = randomVec(n, rng, 2.0);
        const std::vector<float> zg = randomVec(n, rng, 2.0);
        const std::vector<float> zo = randomVec(n, rng, 2.0);
        const std::vector<float> c0 = randomVec(n, rng);
        expectBitIdenticalAcrossTags("lstmGatesForward", n, [&] {
            std::vector<float> i = zi, f = zf, g = zg, o = zo;
            std::vector<float> c = c0, h(n, 0.0f);
            kernels::lstmGatesForward(i.data(), f.data(), g.data(),
                                      o.data(), c.data(), h.data(), n);
            return std::vector<std::vector<float>>{i, f, g, o, c, h};
        });
    }
}

TEST(CrossIsa, LstmGatesBackwardBitIdentical)
{
    Rng rng(108);
    for (const std::size_t n : kLaneLengths) {
        // Post-activation gates in their codomains; c/cprev arbitrary.
        std::vector<float> gi(n), gf(n), gg(n), go(n);
        for (std::size_t j = 0; j < n; ++j) {
            gi[j] = kernels::sigmoidScalar(
                static_cast<float>(rng.normal(0.0, 2.0)));
            gf[j] = kernels::sigmoidScalar(
                static_cast<float>(rng.normal(0.0, 2.0)));
            gg[j] = kernels::tanhScalar(
                static_cast<float>(rng.normal(0.0, 2.0)));
            go[j] = kernels::sigmoidScalar(
                static_cast<float>(rng.normal(0.0, 2.0)));
        }
        const std::vector<float> c = randomVec(n, rng);
        const std::vector<float> cprev = randomVec(n, rng);
        const std::vector<float> dh = randomVec(n, rng);
        const std::vector<float> dc0 = randomVec(n, rng);
        for (const bool first_step : {false, true}) {
            expectBitIdenticalAcrossTags("lstmGatesBackward", n, [&] {
                std::vector<float> dc = dc0;
                std::vector<float> dzi(n), dzf(n), dzg(n), dzo(n);
                kernels::lstmGatesBackward(
                    gi.data(), gf.data(), gg.data(), go.data(), c.data(),
                    first_step ? nullptr : cprev.data(), dh.data(),
                    dc.data(), dzi.data(), dzf.data(), dzg.data(),
                    dzo.data(), n);
                return std::vector<std::vector<float>>{dc, dzi, dzf, dzg,
                                                       dzo};
            });
        }
    }
}

TEST(CrossIsa, MatmulBitIdenticalAcrossTags)
{
    // End-to-end through the Matrix layer: the blocked GEMM must give
    // the same bits whichever ISA the kernels dispatch to.
    TagGuard guard;
    Rng rng(110);
    const Matrix a = randomMatrix(37, 113, rng); // prime-ish interior
    const Matrix b = randomMatrix(113, 29, rng);
    simd::setActive(simd::Tag::Scalar);
    const Matrix want = matmul(a, b);
    for (const simd::Tag tag : supportedTags()) {
        simd::setActive(tag);
        const Matrix got = matmul(a, b);
        ASSERT_EQ(got.size(), want.size());
        for (std::size_t i = 0; i < got.size(); ++i)
            ASSERT_EQ(got.data()[i], want.data()[i])
                << "element " << i << " tag=" << simd::name(tag);
    }
}

} // namespace
} // namespace bigfish::ml
