/**
 * @file
 * Property tests of the optimized dense kernels against the naive
 * reference implementation: random shapes (including degenerate 0/1
 * dimensions) must agree within float tolerance, and the GEMMs must not
 * depend on the pool's thread count.
 *
 * The CrossIsa suite enforces the determinism contract of DESIGN.md
 * §10: every dispatched kernels:: entry point must produce
 * bitwise-identical output under BF_SIMD=scalar and avx2 (swept
 * in-process via simd::setActive), across odd/prime lengths that
 * exercise every tail lane. Unsupported ISAs are skipped, never failed.
 *
 * GemmMicroKernel holds the register-tiled GEMM to the bits of the
 * one-row panel it replaced, kept here as the oracle, on every row,
 * column and k tail, through each public entry point that reaches it.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <limits>
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
        Matrix got(s.m, s.n);
        accumulateMatmulTransB(got, a, b);
        expectNear(got, matmulReference(a, transposed(b)));
    }
}

TEST(Kernel, AccumulateVariantsMatchReference)
{
    Rng rng(5);
    for (const Shape &s : kShapes) {
        const Matrix a = randomMatrix(s.m, s.k, rng);
        const Matrix b = randomMatrix(s.k, s.n, rng);
        const Matrix init = randomMatrix(s.m, s.n, rng);

        Matrix want = matmulReference(a, b);
        want += init;

        Matrix got = init;
        accumulateMatmulTransA(got, transposed(a), b);
        expectNear(got, want);

        got = init;
        accumulateMatmulTransB(got, a, transposed(b));
        expectNear(got, want);

        got = matmul(a, b);
        got += init;
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
    const Matrix out = net.forward(batch, kSamples, false);
    ASSERT_EQ(out.cols(), kSamples);
    for (std::size_t s = 0; s < kSamples; ++s) {
        const Matrix one = net.forward(samples[s], 1, false);
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

    // Same seed -> identical weights and dropout mask stream, so one
    // B-sample pass must reproduce the gradient B one-sample passes
    // accumulate, up to float summation order.
    Sequential serial = makeToyNet(31);
    Sequential batched = makeToyNet(31);

    Matrix grad;
    double serial_loss = 0.0;
    serial.zeroGrads();
    for (std::size_t s = 0; s < kSamples; ++s) {
        const Matrix logits = serial.forward(samples[s], 1, true);
        serial_loss += SoftmaxCrossEntropy::lossAndGradientBatch(
            logits, {labels[s]}, grad);
        serial.backward(grad, 1);
    }

    batched.zeroGrads();
    const Matrix logits = batched.forward(batch, kSamples, true);
    const double batch_loss =
        SoftmaxCrossEntropy::lossAndGradientBatch(logits, labels, grad);
    batched.backward(grad, kSamples);

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
 * the layer whose input gradient Sequential::backward skips.
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
        skipped.forward(batch, kSamples, true), labels, grad);
    skipped.backward(grad, kSamples);

    Matrix x = batch;
    for (auto &layer : full) {
        layer->zeroGrads();
        x = layer->forward(x, kSamples, true);
    }
    SoftmaxCrossEntropy::lossAndGradientBatch(x, labels, grad);
    Matrix g = grad;
    for (auto it = full.rbegin(); it != full.rend(); ++it)
        g = (*it)->backward(g, kSamples, true);
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
    const Matrix out = skipped.forward(in, kSamples, true);
    full.forward(in, kSamples, true);
    const Matrix grad_out = randomMatrix(out.rows(), out.cols(), rng);

    EXPECT_EQ(skipped.backward(grad_out, kSamples, false).size(), 0u);
    EXPECT_EQ(full.backward(grad_out, kSamples, true).size(),
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

TEST(CrossIsa, LstmGatesForwardBitIdentical)
{
    Rng rng(107);
    for (const std::size_t n : kLaneLengths) {
        // A wide input range plus planted values crosses every
        // polynomial/clamp branch: saturation (|x| > 88 for exp, > 9 for
        // tanh), zero, and both sides of the tanh |x| < 0.625 split.
        auto gateInput = [&] {
            std::vector<float> z = randomVec(n, rng, 8.0);
            const float planted[] = {0.0f, 95.0f, -95.0f, 0.624f,
                                     0.625f, -0.625f};
            for (std::size_t j = 0; j < n && j < std::size(planted); ++j)
                z[j] = planted[j];
            return z;
        };
        const std::vector<float> zi = gateInput();
        const std::vector<float> zf = gateInput();
        const std::vector<float> zg = gateInput();
        const std::vector<float> zo = gateInput();
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

TEST(CrossIsa, VectorActivationsMatchScalarHelpers)
{
    // sigmoidScalar/tanhScalar are the one-value reference the LSTM-gate
    // tests build their inputs from; the vector sigmoid/tanh inside
    // lstmGatesForward must agree with them bitwise under every Tag.
    TagGuard guard;
    Rng rng(106);
    std::vector<float> xs = randomVec(257, rng, 8.0);
    xs.insert(xs.end(), {0.0f, 95.0f, -95.0f, 0.625f, -0.625f});
    const std::size_t n = xs.size();
    for (const simd::Tag tag : supportedTags()) {
        simd::setActive(tag);
        // The i, f and o gates take the sigmoid lanes, g the tanh lanes.
        std::vector<float> i = xs, f = xs, tah = xs, o = xs;
        std::vector<float> c(n, 0.0f), h(n, 0.0f);
        kernels::lstmGatesForward(i.data(), f.data(), tah.data(), o.data(),
                                  c.data(), h.data(), n);
        for (std::size_t j = 0; j < n; ++j) {
            const float sig = kernels::sigmoidScalar(xs[j]);
            EXPECT_EQ(i[j], sig)
                << "sigmoid(i) x=" << xs[j] << " tag=" << simd::name(tag);
            EXPECT_EQ(f[j], sig)
                << "sigmoid(f) x=" << xs[j] << " tag=" << simd::name(tag);
            EXPECT_EQ(o[j], sig)
                << "sigmoid(o) x=" << xs[j] << " tag=" << simd::name(tag);
            EXPECT_EQ(tah[j], kernels::tanhScalar(xs[j]))
                << "tanh x=" << xs[j] << " tag=" << simd::name(tag);
        }
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

/** Bit pattern of a float, so -0.0f, +0.0f and NaNs compare exactly. */
std::uint32_t
bitsOf(float x)
{
    std::uint32_t b;
    std::memcpy(&b, &x, sizeof(b));
    return b;
}

TEST(CrossIsa, MaxPoolMatchesFirstIndexScanUnderEveryTag)
{
    // Every Tag's maxPool against a test-local strict-> scan: values
    // drawn from five levels (plus signed zeros and NaNs) so most
    // windows hold ties, at every pool size the layer accepts and at
    // lengths covering the 8-window vector body, its tail windows and
    // a partial last window.
    TagGuard guard;
    Rng rng(111);
    const float levels[] = {-1.0f, -0.0f, 0.0f, 0.5f, 2.0f};
    for (const std::size_t pool : {1u, 2u, 3u, 4u, 5u}) {
        for (const std::size_t len :
             {1u, 3u, 4u, 7u, 31u, 32u, 33u, 35u, 64u, 83u, 257u}) {
            std::vector<float> x(len + 3);
            for (float &v : x)
                v = levels[static_cast<std::size_t>(rng.uniformInt(0, 4))];
            if (len > 9) {
                x[0] = std::nanf("");
                x[9] = std::nanf("");
            }
            const std::size_t outLen = std::max<std::size_t>(len / pool, 1);
            const std::uint32_t base = 1000;
            std::vector<float> want(outLen);
            std::vector<std::uint32_t> wantIdx(outLen);
            for (std::size_t t = 0; t < outLen; ++t) {
                const std::size_t lo = t * pool;
                const std::size_t hi = std::min(lo + pool, len);
                std::size_t best = lo;
                for (std::size_t k = lo + 1; k < hi; ++k)
                    if (x[k] > x[best])
                        best = k;
                want[t] = x[best];
                wantIdx[t] = base + static_cast<std::uint32_t>(best);
            }
            for (const simd::Tag tag : supportedTags()) {
                simd::setActive(tag);
                std::vector<float> out(outLen);
                std::vector<std::uint32_t> idx(outLen);
                kernels::maxPool(x.data(), len, pool, outLen, base,
                                 out.data(), idx.data());
                for (std::size_t t = 0; t < outLen; ++t) {
                    EXPECT_EQ(bitsOf(out[t]), bitsOf(want[t]))
                        << "pool " << pool << " len " << len << " window "
                        << t << " tag " << simd::name(tag);
                    EXPECT_EQ(idx[t], wantIdx[t])
                        << "pool " << pool << " len " << len << " window "
                        << t << " tag " << simd::name(tag);
                }
            }
        }
    }
}

TEST(Kernel, AddRowSumsMatchesOneLoopPerRow)
{
    // Row counts around the 8-row interleave and its tail, against one
    // left-to-right loop per row: the sums must agree bit for bit.
    Rng rng(112);
    for (const std::size_t rows : {1u, 7u, 8u, 9u, 17u, 32u, 128u}) {
        for (const std::size_t cols : {1u, 5u, 80u, 1328u}) {
            const Matrix m = randomMatrix(rows, cols, rng);
            const std::vector<float> start = randomVec(rows, rng);
            std::vector<float> want = start;
            for (std::size_t r = 0; r < rows; ++r) {
                float sum = 0.0f;
                for (std::size_t t = 0; t < cols; ++t)
                    sum += m(r, t);
                want[r] += sum;
            }
            std::vector<float> got = start;
            kernels::addRowSums(got.data(), m.data(), rows, cols);
            for (std::size_t r = 0; r < rows; ++r)
                EXPECT_EQ(bitsOf(got[r]), bitsOf(want[r]))
                    << rows << "x" << cols << " row " << r;
        }
    }
}

// --- Row-sparse dots against the dense dots ----------------------------

TEST(RowSparseDots, BitIdenticalToDenseTransBUnderEveryTag)
{
    // kernels::dotRowsSparse over B^T against accumulateMatmulTransB
    // over B, at shapes where the latter accumulates under dot's
    // contract (k > 32): k with and without a k % 8 tail (conv2's 80,
    // conv1's 1328), row counts off the 4-row tile, odd n. Each row of
    // A gets its own zero fraction from 0 to 100 %, every zero drawn as
    // +0 or -0, and C starts out holding values (signed zeros among
    // them), since both accumulate.
    const std::size_t kDepths[] = {33, 65, 71, 80, 1328};
    const std::size_t kRows[] = {1, 3, 6, 32};
    const std::size_t kCols[] = {1, 7, 17, 256};
    const double kZeroShare[] = {0.0, 0.25, 0.5, 0.85, 0.97, 1.0};
    TagGuard guard;
    Rng rng(121);
    for (const std::size_t k : kDepths) {
        for (const std::size_t rows : kRows) {
            for (const std::size_t n : kCols) {
                Matrix a = randomMatrix(rows, k, rng);
                for (std::size_t i = 0; i < rows; ++i) {
                    const double share = kZeroShare[static_cast<std::size_t>(
                        rng.uniformInt(0, std::size(kZeroShare) - 1))];
                    for (std::size_t t = 0; t < k; ++t)
                        if (rng.bernoulli(share))
                            a(i, t) = rng.bernoulli(0.5) ? 0.0f : -0.0f;
                }
                Matrix b = randomMatrix(n, k, rng);
                Matrix init = randomMatrix(rows, n, rng);
                for (std::size_t j = 0; j < init.size(); j += 3)
                    init.data()[j] = j % 2 == 0 ? 0.0f : -0.0f;
                b.data()[0] = -0.0f;
                const Matrix bt = transposed(b);
                ASSERT_TRUE(matmulTransBUsesDot(k, n));
                for (const simd::Tag tag : supportedTags()) {
                    simd::setActive(tag);
                    Matrix want = init;
                    accumulateMatmulTransB(want, a, b);
                    Matrix got = init;
                    kernels::dotRowsSparse(got.data(), a.data(), bt.data(),
                                           rows, k, n);
                    for (std::size_t e = 0; e < want.size(); ++e)
                        ASSERT_EQ(bitsOf(got.data()[e]),
                                  bitsOf(want.data()[e]))
                            << rows << "x" << k << "x" << n << " element "
                            << e << " under " << simd::name(tag);
                }
            }
        }
    }
}

TEST(Kernel, AllFiniteFindsEveryNonFiniteValue)
{
    // Every position of a vector-body-plus-tail length, against
    // std::isfinite, for each non-finite kind and for the largest
    // finite magnitudes around them.
    const float kValues[] = {std::numeric_limits<float>::infinity(),
                             -std::numeric_limits<float>::infinity(),
                             std::numeric_limits<float>::quiet_NaN(),
                             -std::numeric_limits<float>::quiet_NaN(),
                             std::numeric_limits<float>::max(),
                             -std::numeric_limits<float>::max(),
                             std::numeric_limits<float>::denorm_min(),
                             -0.0f};
    for (const std::size_t n : {0u, 1u, 7u, 16u, 37u}) {
        for (const float v : kValues) {
            for (std::size_t at = 0; at < n; ++at) {
                std::vector<float> x(n, 1.5f);
                x[at] = v;
                EXPECT_EQ(kernels::allFinite(x.data(), n), std::isfinite(v))
                    << "n " << n << " at " << at << " value " << v;
            }
        }
        const std::vector<float> x(n, -2.5f);
        EXPECT_TRUE(kernels::allFinite(x.data(), n));
    }
}

// --- GEMM micro-kernel against the row panel it replaced ---------------

/**
 * The one-row GEMM panel the register micro-kernel replaced, kept as
 * the bit oracle: y[j] += sum over kk in [k0, k1) of a[kk * astride] *
 * b[kk * n + j], four k's at a time as y + ((a0*x0 + a1*x1) +
 * (a2*x2 + a3*x3)), then y + a*x per remaining k. This file builds with
 * -ffp-contract=off (tests/CMakeLists.txt), so the compiler performs
 * exactly these operations, none fused.
 */
void
rowPanelOracle(float *y, const float *a, std::size_t astride,
               const float *b, std::size_t k0, std::size_t k1,
               std::size_t n)
{
    std::size_t kk = k0;
    for (; kk + 4 <= k1; kk += 4) {
        const float *x0 = b + kk * n;
        const float *x1 = x0 + n;
        const float *x2 = x1 + n;
        const float *x3 = x2 + n;
        const float a0 = a[kk * astride];
        const float a1 = a[(kk + 1) * astride];
        const float a2 = a[(kk + 2) * astride];
        const float a3 = a[(kk + 3) * astride];
        for (std::size_t j = 0; j < n; ++j) {
            const float t01 = a0 * x0[j] + a1 * x1[j];
            const float t23 = a2 * x2[j] + a3 * x3[j];
            y[j] = y[j] + (t01 + t23);
        }
    }
    for (; kk < k1; ++kk) {
        const float ak = a[kk * astride];
        const float *x = b + kk * n;
        for (std::size_t j = 0; j < n; ++j)
            y[j] = y[j] + ak * x[j];
    }
}

/**
 * C += A * B through the row panel, k-blocked by 240 like kernels::gemm,
 * with A(i, kk) read at a[i * rowStride + kk * colStride].
 */
void
gemmOracle(Matrix &c, const float *a, std::size_t rowStride,
           std::size_t colStride, const Matrix &b)
{
    constexpr std::size_t kBlockK = 240;
    const std::size_t k = b.rows();
    const std::size_t n = b.cols();
    for (std::size_t k0 = 0; k0 < k; k0 += kBlockK) {
        const std::size_t k1 = std::min(k, k0 + kBlockK);
        for (std::size_t i = 0; i < c.rows(); ++i)
            rowPanelOracle(c.data() + i * n, a + i * rowStride, colStride,
                           b.data(), k0, k1, n);
    }
}

void
expectSameBits(const Matrix &got, const Matrix &want, const char *what,
               std::size_t rows, std::size_t k, std::size_t n,
               simd::Tag tag)
{
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    EXPECT_EQ(std::memcmp(got.data(), want.data(),
                          want.size() * sizeof(float)),
              0)
        << what << " " << rows << "x" << k << "x" << n
        << " differs from the row panel under " << simd::name(tag);
}

TEST(GemmMicroKernel, BitIdenticalToRowPanel)
{
    // Every row tail (rows % 4), every column tail (n % 16, including
    // n < 16; n = 1 takes the gemv paths instead), and k on both sides
    // of the 240-wide k block and of the 4-k unroll.
    const std::size_t kRows[] = {1, 2, 3, 4, 5, 6, 7, 9, 13};
    const std::size_t kCols[] = {2, 3, 4, 5, 8, 9, 13, 16, 17, 29, 32, 35};
    const std::size_t kDepths[] = {1, 2, 3, 4, 5, 8, 31, 239, 240, 241, 481};
    TagGuard guard;
    Rng rng(120);
    for (const std::size_t rows : kRows) {
        for (const std::size_t n : kCols) {
            for (const std::size_t k : kDepths) {
                const Matrix a = randomMatrix(rows, k, rng);
                const Matrix at = transposed(a);
                const Matrix b = randomMatrix(k, n, rng);
                const Matrix bias = randomMatrix(rows, 1, rng);
                const Matrix init = randomMatrix(rows, n, rng);

                Matrix wantMul(rows, n);
                gemmOracle(wantMul, a.data(), k, 1, b);
                Matrix wantBias(rows, n);
                for (std::size_t i = 0; i < rows; ++i)
                    for (std::size_t j = 0; j < n; ++j)
                        wantBias(i, j) = bias(i, 0);
                gemmOracle(wantBias, a.data(), k, 1, b);
                // A^T walked column-wise: stride `rows` between k's.
                Matrix wantTransA(rows, n);
                gemmOracle(wantTransA, at.data(), 1, rows, b);
                Matrix wantAcc = init;
                gemmOracle(wantAcc, a.data(), k, 1, b);

                for (const simd::Tag tag : supportedTags()) {
                    simd::setActive(tag);
                    expectSameBits(matmul(a, b), wantMul, "matmul", rows,
                                   k, n, tag);
                    expectSameBits(matmulBias(a, b, bias), wantBias,
                                   "matmulBias", rows, k, n, tag);
                    expectSameBits(matmulTransA(at, b), wantTransA,
                                   "matmulTransA", rows, k, n, tag);
                    // Only short-k, wide products take the GEMM path
                    // (B^T materialized); the rest run as dots.
                    if (k > 1 && k <= 32 && n >= 16) {
                        Matrix got = init;
                        accumulateMatmulTransB(got, a, transposed(b));
                        expectSameBits(got, wantAcc,
                                       "accumulateMatmulTransB", rows, k,
                                       n, tag);
                    }
                }
            }
        }
    }
}

} // namespace
} // namespace bigfish::ml
