/**
 * @file
 * Google-benchmark microbenchmarks of the core components, including
 * the ablation DESIGN.md calls out: the closed-form ExecutionEngine vs
 * a brute-force per-iteration interpreter.
 */

#include <benchmark/benchmark.h>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include <chrono>
#include <cmath>
#include <string>
#include <vector>

#include "attack/attacker.hh"
#include "base/simd.hh"
#include "core/collector.hh"
#include "ktrace/attribution.hh"
#include "ml/classifier.hh"
#include "ml/conv.hh"
#include "ml/layer.hh"
#include "ml/kernels.hh"
#include "ml/lstm.hh"
#include "ml/matrix.hh"
#include "sim/engine.hh"
#include "sim/synthesizer.hh"
#include "web/catalog.hh"

using namespace bigfish;

namespace {

sim::RunTimeline
benchTimeline(TimeNs duration)
{
    Rng rng(1);
    const auto activity = web::realizeWorkload(
        web::amazonSignature(0), duration, 1.0, web::RealizationNoise{},
        rng);
    sim::InterruptSynthesizer synth(sim::MachineConfig::linuxDesktop());
    Rng synth_rng(2);
    return synth.synthesize(activity, synth_rng);
}

void
BM_SynthesizeTimeline(benchmark::State &state)
{
    Rng rng(1);
    const auto activity = web::realizeWorkload(
        web::amazonSignature(0), 15 * kSec, 1.0, web::RealizationNoise{},
        rng);
    sim::InterruptSynthesizer synth(sim::MachineConfig::linuxDesktop());
    std::uint64_t seed = 0;
    for (auto _ : state) {
        Rng synth_rng(seed++);
        benchmark::DoNotOptimize(synth.synthesize(activity, synth_rng));
    }
}
BENCHMARK(BM_SynthesizeTimeline);

void
BM_EngineClosedForm(benchmark::State &state)
{
    const auto timeline = benchTimeline(15 * kSec);
    timers::PreciseTimer timer;
    for (auto _ : state) {
        sim::ExecutionEngine engine(
            timeline,
            std::vector<double>(timeline.iterCostFactor.size(), 185.0));
        sim::PeriodResult result;
        std::int64_t total = 0;
        while (engine.runPeriod(timer, 5 * kMsec, result))
            total += result.iterations;
        benchmark::DoNotOptimize(total);
    }
    state.SetLabel("15 s trace, ~81M simulated iterations");
}
BENCHMARK(BM_EngineClosedForm);

void
BM_EngineBruteForceReference(benchmark::State &state)
{
    // The ablation: what trace collection would cost without the
    // closed-form stepping (on a shorter run to stay tractable).
    const auto timeline = benchTimeline(200 * kMsec);
    timers::PreciseTimer timer;
    for (auto _ : state) {
        double t = 0.0;
        std::size_t idx = 0;
        std::int64_t total = 0;
        const double duration = static_cast<double>(timeline.duration);
        while (t < duration) {
            const TimeNs begin =
                timer.observe(static_cast<TimeNs>(std::llround(t)));
            std::int64_t counter = 0;
            while (true) {
                double rem = 185.0;
                while (idx < timeline.stolen.size() &&
                       static_cast<double>(
                           timeline.stolen[idx].arrival) <= t + rem) {
                    rem -= std::max(
                        0.0,
                        static_cast<double>(
                            timeline.stolen[idx].arrival) - t);
                    t = static_cast<double>(timeline.stolen[idx].end());
                    ++idx;
                }
                t += rem;
                ++counter;
                if (timer.observe(static_cast<TimeNs>(std::llround(t))) -
                        begin >=
                    5 * kMsec)
                    break;
                if (t >= duration)
                    break;
            }
            total += counter;
        }
        benchmark::DoNotOptimize(total);
    }
    state.SetLabel("0.2 s trace (75x shorter than the closed-form run)");
}
BENCHMARK(BM_EngineBruteForceReference);

void
BM_CollectLoopTrace(benchmark::State &state)
{
    core::CollectionConfig config;
    const core::TraceCollector collector(config);
    const auto site = web::nytimesSignature(0);
    int run = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            collector
                .collectOne(attack::AttackerKind::LoopCounting, site, run++)
                .valueOrDie());
}
BENCHMARK(BM_CollectLoopTrace);

void
BM_CollectSweepTrace(benchmark::State &state)
{
    core::CollectionConfig config;
    const core::TraceCollector collector(config);
    const auto site = web::nytimesSignature(0);
    int run = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(
            collector
                .collectOne(attack::AttackerKind::SweepCounting, site, run++)
                .valueOrDie());
}
BENCHMARK(BM_CollectSweepTrace);

void
BM_TimerObserve(benchmark::State &state)
{
    auto timer = timers::TimerSpec::randomizedDefense().make(3);
    TimeNs t = 0;
    for (auto _ : state) {
        t += 137 * kUsec;
        if (t > 10 * kSec)
            t = 0;
        benchmark::DoNotOptimize(timer->observe(t));
    }
}
BENCHMARK(BM_TimerObserve);

void
BM_GapDetectionAndAttribution(benchmark::State &state)
{
    const auto timeline = benchTimeline(15 * kSec);
    for (auto _ : state) {
        const auto gaps = ktrace::GapDetector().detect(timeline);
        const auto records = ktrace::KernelTracer().record(timeline);
        benchmark::DoNotOptimize(ktrace::attributeGaps(gaps, records));
    }
}
BENCHMARK(BM_GapDetectionAndAttribution);

/**
 * Old-vs-new dense-kernel comparison: matmulReference is the naive
 * i-j-k triple loop every layer used before the blocked kernels landed.
 * The GEMM rows run the products the CNN-LSTM trains in every pipeline
 * fold: traceDefaults() (2 channels, 32 filters, kernel 8, stride 3,
 * pool 4, batch 16) over 512 features, i.e. 2 channels x 256 steps, so
 * conv1 emits 83 steps per sample and conv2 5 (from 20 pooled steps).
 * The Args are (m, k, n) of C(m x n) = A(m x k) * B(k x n):
 *   - conv1 forward: W(32x16) * patches(16x1328);
 *   - conv2 forward: W(32x256) * patches(256x80);
 *   - LSTM input projection: Wx(128x32) * x(32x16).
 * The GEMV pair is a classifier-head shape (20x1024 * 1024x1). Only the
 * public ml:: entry points are timed, so the same rows build against
 * any revision of the kernel layer.
 */
void
trainingGemmShapes(benchmark::internal::Benchmark *bench)
{
    bench->ArgNames({"m", "k", "n"})
        ->Args({32, 16, 1328})
        ->Args({32, 256, 80})
        ->Args({128, 32, 16});
}

void
BM_MatmulNaiveReference(benchmark::State &state)
{
    Rng rng(7);
    ml::Matrix a(static_cast<std::size_t>(state.range(0)),
                 static_cast<std::size_t>(state.range(1)));
    ml::Matrix b(a.cols(), static_cast<std::size_t>(state.range(2)));
    a.randomize(rng, 1.0);
    b.randomize(rng, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(ml::matmulReference(a, b));
    state.SetLabel("naive i-j-k loop (pre-rewrite kernel)");
}
BENCHMARK(BM_MatmulNaiveReference)->Apply(trainingGemmShapes);

void
BM_MatmulOptimized(benchmark::State &state)
{
    Rng rng(7);
    ml::Matrix a(static_cast<std::size_t>(state.range(0)),
                 static_cast<std::size_t>(state.range(1)));
    ml::Matrix b(a.cols(), static_cast<std::size_t>(state.range(2)));
    ml::Matrix bias(a.rows(), 1);
    a.randomize(rng, 1.0);
    b.randomize(rng, 1.0);
    bias.randomize(rng, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(ml::matmulBias(a, b, bias));
    state.SetLabel("blocked GEMM with fused bias (the layers' call)");
}
BENCHMARK(BM_MatmulOptimized)->Apply(trainingGemmShapes);

void
BM_MatmulTransAConv2InputGrad(benchmark::State &state)
{
    // conv2's input gradient: dPatches(256x80) = W(32x256)^T * dOut(32x80),
    // A read column-wise with stride 256.
    Rng rng(7);
    ml::Matrix w(32, 256), dout(32, 80);
    w.randomize(rng, 1.0);
    dout.randomize(rng, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(ml::matmulTransA(w, dout));
}
BENCHMARK(BM_MatmulTransAConv2InputGrad);

void
BM_MatmulTransBConv2WeightGrad(benchmark::State &state)
{
    // conv2's weight gradient: dW(32x256) += dOut(32x80) *
    // patches(256x80)^T. k = 80 is past the short-k transpose, so this
    // runs the dotTile4x2 path.
    Rng rng(7);
    ml::Matrix dout(32, 80), patches(256, 80), gw(32, 256);
    dout.randomize(rng, 1.0);
    patches.randomize(rng, 1.0);
    for (auto _ : state) {
        ml::accumulateMatmulTransB(gw, dout, patches);
        benchmark::DoNotOptimize(gw.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_MatmulTransBConv2WeightGrad);

/** The pipeline's minibatch and conv1's output steps per sample. */
constexpr std::size_t kBatch = 16;
constexpr std::size_t kConv1Steps = 83;

/**
 * A conv layer's output gradient as max-pool and ReLU backward leave
 * it: (rows x samples*steps), and in each sample's pool windows (the
 * first steps/pool of them; the rest of the steps feed no window) one
 * column, drawn uniformly, holds a gradient with probability 1/2 (the
 * ReLU mask). Every other entry is +0.
 */
ml::Matrix
poolSparseGradient(std::size_t rows, std::size_t samples,
                   std::size_t steps, std::size_t pool, Rng &rng)
{
    ml::Matrix g(rows, samples * steps);
    for (std::size_t r = 0; r < rows; ++r)
        for (std::size_t s = 0; s < samples; ++s)
            for (std::size_t w = 0; w < steps / pool; ++w) {
                const auto col = w * pool + static_cast<std::size_t>(
                                                rng.uniformInt(0, 3));
                if (rng.bernoulli(0.5))
                    g(r, s * steps + col) =
                        static_cast<float>(rng.normal(0.0, 1.0));
            }
    return g;
}

/**
 * C += A * B^T for a pool-sparse A (poolSparseGradient) at a conv
 * layer's weight-gradient shape, (channels x samples*steps) against
 * (width x samples*steps): Arg 0 runs the dense accumulateMatmulTransB
 * over B, Arg 1 runs kernels::dotRowsSparse over B^T (given, as
 * Conv1D's training forward packs it). Both give the same bits.
 */
void
weightGradPoolSparse(benchmark::State &state, std::size_t steps,
                     std::size_t width)
{
    Rng rng(16);
    const ml::Matrix dout = poolSparseGradient(32, kBatch, steps, 4, rng);
    ml::Matrix patches(width, dout.cols());
    patches.randomize(rng, 1.0);
    ml::Matrix patchesT(patches.cols(), width);
    for (std::size_t j = 0; j < width; ++j)
        for (std::size_t t = 0; t < patches.cols(); ++t)
            patchesT(t, j) = patches(j, t);
    ml::Matrix gw(32, width);
    const bool sparse = state.range(0) != 0;
    for (auto _ : state) {
        if (sparse)
            ml::kernels::dotRowsSparse(gw.data(), dout.data(),
                                       patchesT.data(), gw.rows(),
                                       dout.cols(), width);
        else
            ml::accumulateMatmulTransB(gw, dout, patches);
        benchmark::DoNotOptimize(gw.data());
        benchmark::ClobberMemory();
    }
    state.SetLabel(sparse ? "dotRowsSparse over B^T" : "dense dots");
}

void
BM_MatmulTransBConv2WeightGradPoolSparse(benchmark::State &state)
{
    // conv2: 5 steps per sample (one pool window), 256-wide patches.
    weightGradPoolSparse(state, 5, 256);
}
BENCHMARK(BM_MatmulTransBConv2WeightGradPoolSparse)
    ->ArgName("sparse")
    ->Arg(0)
    ->Arg(1);

void
BM_MatmulTransBConv1WeightGradPoolSparse(benchmark::State &state)
{
    // conv1: 83 steps per sample (20 pool windows), 16-wide patches.
    weightGradPoolSparse(state, kConv1Steps, 16);
}
BENCHMARK(BM_MatmulTransBConv1WeightGradPoolSparse)
    ->ArgName("sparse")
    ->Arg(0)
    ->Arg(1);

void
BM_GemvNaiveReference(benchmark::State &state)
{
    Rng rng(8);
    ml::Matrix a(20, 1024), x(1024, 1);
    a.randomize(rng, 1.0);
    x.randomize(rng, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(ml::matmulReference(a, x));
}
BENCHMARK(BM_GemvNaiveReference);

void
BM_GemvOptimized(benchmark::State &state)
{
    Rng rng(8);
    ml::Matrix a(20, 1024), x(1024, 1);
    a.randomize(rng, 1.0);
    x.randomize(rng, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(ml::gemv(a, x));
    state.SetLabel("multi-accumulator dot kernel");
}
BENCHMARK(BM_GemvOptimized);

void
BM_Conv1DForward(benchmark::State &state)
{
    Rng rng(4);
    ml::Conv1D conv(1, 32, 8, 3, rng);
    ml::Matrix input(1, 256);
    input.randomize(rng, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(conv.forward(input, 1, false));
}
BENCHMARK(BM_Conv1DForward);

void
BM_LstmForward(benchmark::State &state)
{
    Rng rng(5);
    ml::Lstm lstm(32, 32, rng);
    ml::Matrix input(32, 16);
    input.randomize(rng, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(lstm.forward(input, 1, false));
}
BENCHMARK(BM_LstmForward);

/**
 * The conv front end's non-GEMM passes at conv1's real output, 32
 * filters x 1328 columns (16 samples x 83 steps). A layer owns the
 * matrix it is handed, as in Sequential, so each iteration hands it a
 * fresh copy built outside the timed region (manual time) and times
 * only the layer call, the release of what it returns included.
 */

#if defined(__GLIBC__)
/**
 * glibc serves blocks over 128 KB as fresh mmaps and trims the heap top
 * eagerly, so a loop that allocates and frees one 170 KB matrix per
 * iteration page-faults on every iteration. A training process does
 * not: its buffers recycle from the heap (background_noise 15 x 15 x
 * 10 at --threads=1 takes ~12,300 minor faults in its whole run). The
 * layer rows pin that steady state so they time the passes, not the
 * faults.
 */
[[maybe_unused]] const bool kSteadyHeap = [] {
    mallopt(M_MMAP_THRESHOLD, 64 << 20);
    mallopt(M_TRIM_THRESHOLD, 256 << 20);
    return true;
}();
#endif

ml::Matrix
conv1Output(Rng &rng)
{
    ml::Matrix m(32, kBatch * kConv1Steps);
    m.randomize(rng, 1.0);
    return m;
}

/** Times @p call on a copy of @p arg per iteration (manual time). */
template <typename Call>
void
timeLayerPass(benchmark::State &state, const ml::Matrix &arg, Call call)
{
    for (auto _ : state) {
        ml::Matrix owned = arg;
        const auto begin = std::chrono::steady_clock::now();
        benchmark::DoNotOptimize(call(std::move(owned)).data());
        benchmark::ClobberMemory();
        const auto end = std::chrono::steady_clock::now();
        state.SetIterationTime(
            std::chrono::duration<double>(end - begin).count());
    }
}

void
BM_Conv1ForwardBatch(benchmark::State &state)
{
    Rng rng(20);
    ml::Conv1D conv(2, 32, 8, 3, rng);
    ml::Matrix input(2, kBatch * 256);
    input.randomize(rng, 1.0);
    timeLayerPass(state, input, [&](ml::Matrix in) {
        return conv.forward(std::move(in), kBatch, true);
    });
}
BENCHMARK(BM_Conv1ForwardBatch)->UseManualTime();

void
BM_Conv1BackwardBatch(benchmark::State &state)
{
    // The first layer: parameter gradients only, no input gradient.
    Rng rng(21);
    ml::Conv1D conv(2, 32, 8, 3, rng);
    ml::Matrix input(2, kBatch * 256);
    input.randomize(rng, 1.0);
    conv.forward(std::move(input), kBatch, true);
    timeLayerPass(state, conv1Output(rng), [&](ml::Matrix g) {
        return conv.backward(std::move(g), kBatch, false);
    });
}
BENCHMARK(BM_Conv1BackwardBatch)->UseManualTime();

void
BM_ReLUForwardBatch(benchmark::State &state)
{
    Rng rng(22);
    ml::ReLU relu;
    timeLayerPass(state, conv1Output(rng), [&](ml::Matrix in) {
        return relu.forward(std::move(in), kBatch, true);
    });
}
BENCHMARK(BM_ReLUForwardBatch)->UseManualTime();

void
BM_ReLUBackwardBatch(benchmark::State &state)
{
    Rng rng(23);
    ml::ReLU relu;
    relu.forward(conv1Output(rng), kBatch, true);
    timeLayerPass(state, conv1Output(rng), [&](ml::Matrix g) {
        return relu.backward(std::move(g), kBatch, true);
    });
}
BENCHMARK(BM_ReLUBackwardBatch)->UseManualTime();

void
BM_MaxPoolForwardBatch(benchmark::State &state)
{
    Rng rng(24);
    ml::MaxPool1D pool(4);
    timeLayerPass(state, conv1Output(rng), [&](ml::Matrix in) {
        return pool.forward(std::move(in), kBatch, true);
    });
}
BENCHMARK(BM_MaxPoolForwardBatch)->UseManualTime();

void
BM_MaxPoolBackwardBatch(benchmark::State &state)
{
    Rng rng(25);
    ml::MaxPool1D pool(4);
    pool.forward(conv1Output(rng), kBatch, true);
    ml::Matrix grad(32, kBatch * (kConv1Steps / 4));
    grad.randomize(rng, 1.0);
    timeLayerPass(state, grad, [&](ml::Matrix g) {
        return pool.backward(std::move(g), kBatch, true);
    });
}
BENCHMARK(BM_MaxPoolBackwardBatch)->UseManualTime();

/**
 * One training epoch of the pipeline's CNN-LSTM (traceDefaults() over
 * 512 features, 2 channels x 256 steps) on 32 samples, i.e. two
 * 16-sample batches, plus the validation pass and one score. The
 * registered name is kept so recorded rows stay comparable.
 */
void
BM_CnnLstmTrainEpochPerSample(benchmark::State &state)
{
    constexpr std::size_t kFeatures = 512;
    Rng rng(6);
    ml::Dataset train;
    for (int c = 0; c < 4; ++c) {
        for (int i = 0; i < 8; ++i) {
            std::vector<double> x(kFeatures);
            for (auto &v : x)
                v = rng.normal(0, 1);
            train.add(std::move(x), c);
        }
    }
    ml::CnnLstmParams params = ml::CnnLstmParams::traceDefaults();
    params.maxEpochs = 1;
    params.patience = 1;
    for (auto _ : state) {
        ml::CnnLstmClassifier model(4, kFeatures, params, 7);
        model.fit(train, train);
        benchmark::DoNotOptimize(model.predictScores(train.features[0]));
    }
    state.SetLabel("one batched epoch over 32 samples, 2x256 inputs");
}
BENCHMARK(BM_CnnLstmTrainEpochPerSample);

/**
 * Per-ISA kernel sweep: each case runs once per simd::Tag (scalar,
 * then avx2 — clamped to scalar on a host without AVX2) at the shapes
 * the paper model actually trains — LSTM hidden 32 over 32-sample
 * batches (gate spans of 1024 lanes) and the A*B^T weight-gradient
 * GEMM — so the scalar row IS the before and the avx2 row the after of
 * the vectorization. Only the kernels that dispatch on the Tag are
 * swept; the scalar-only Adam step runs once. The Arg is the Tag's
 * value (0 / 2).
 */
void
isaArgs(benchmark::internal::Benchmark *bench)
{
    bench->Arg(static_cast<int>(simd::Tag::Scalar))
        ->Arg(static_cast<int>(simd::Tag::Avx2));
}

simd::Tag
benchTag(benchmark::State &state)
{
    const auto requested = static_cast<simd::Tag>(state.range(0));
    const simd::Tag actual = simd::setActive(requested);
    if (actual != requested)
        state.SetLabel(std::string("host lacks ") + simd::name(requested) +
                       "; ran " + simd::name(actual));
    else
        state.SetLabel(simd::name(actual));
    return actual;
}

void
BM_KernelDotByIsa(benchmark::State &state)
{
    const simd::Tag saved = simd::active();
    benchTag(state);
    Rng rng(11);
    std::vector<float> a(1024), b(1024);
    for (std::size_t i = 0; i < a.size(); ++i) {
        a[i] = static_cast<float>(rng.normal(0, 1));
        b[i] = static_cast<float>(rng.normal(0, 1));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(
            ml::kernels::dot(a.data(), b.data(), a.size()));
    simd::setActive(saved);
}
BENCHMARK(BM_KernelDotByIsa)->Apply(isaArgs);

void
BM_KernelLstmGatesByIsa(benchmark::State &state)
{
    // One batched LSTM step at paper scale: hidden 32 x 32 samples.
    const simd::Tag saved = simd::active();
    benchTag(state);
    constexpr std::size_t kLanes = 32 * 32;
    Rng rng(12);
    std::vector<float> zi(kLanes), zf(kLanes), zg(kLanes), zo(kLanes),
        c(kLanes), h(kLanes);
    for (std::size_t i = 0; i < kLanes; ++i) {
        zi[i] = static_cast<float>(rng.normal(0, 2));
        zf[i] = static_cast<float>(rng.normal(0, 2));
        zg[i] = static_cast<float>(rng.normal(0, 2));
        zo[i] = static_cast<float>(rng.normal(0, 2));
        c[i] = static_cast<float>(rng.normal(0, 1));
    }
    for (auto _ : state) {
        std::vector<float> i2 = zi, f2 = zf, g2 = zg, o2 = zo, c2 = c;
        ml::kernels::lstmGatesForward(i2.data(), f2.data(), g2.data(),
                                      o2.data(), c2.data(), h.data(),
                                      kLanes);
        benchmark::DoNotOptimize(h.data());
    }
    simd::setActive(saved);
}
BENCHMARK(BM_KernelLstmGatesByIsa)->Apply(isaArgs);

void
BM_KernelAdamStep(benchmark::State &state)
{
    // The LSTM weight block of the paper model: 4H x (H + in + 1),
    // H=32, in=96 -> 16512 parameters per step. adamStep is scalar
    // only, so it runs once rather than per Tag.
    constexpr std::size_t kParams = 4 * 32 * (32 + 96 + 1);
    Rng rng(13);
    std::vector<float> p(kParams), g(kParams), m(kParams), v(kParams);
    for (std::size_t i = 0; i < kParams; ++i) {
        p[i] = static_cast<float>(rng.normal(0, 1));
        g[i] = static_cast<float>(rng.normal(0, 1));
        m[i] = static_cast<float>(rng.normal(0, 0.1));
        v[i] = std::fabs(static_cast<float>(rng.normal(0, 0.1)));
    }
    ml::kernels::AdamConsts consts;
    consts.beta1 = 0.9f;
    consts.beta2 = 0.999f;
    consts.oneMinusBeta1 = 0.1f;
    consts.oneMinusBeta2 = 0.001f;
    consts.invBiasCorrection1 = 1.0f / (1.0f - 0.81f);
    consts.invBiasCorrection2 = 1.0f / (1.0f - 0.998001f);
    consts.learningRate = 1e-3f;
    consts.epsilon = 1e-8f;
    consts.gradScale = 1.0f / 32.0f;
    for (auto _ : state) {
        ml::kernels::adamStep(p.data(), g.data(), m.data(), v.data(),
                              kParams, consts);
        benchmark::DoNotOptimize(p.data());
    }
}
BENCHMARK(BM_KernelAdamStep);

void
BM_MatmulTransBByIsa(benchmark::State &state)
{
    // C += A * B^T at a training shape (32x64 output, k = 250): the
    // dotTile4x2 path. Training spends its A*B^T time in this 4x2 tile
    // rather than in single dots, so this case, not BM_KernelDotByIsa,
    // is the one that decides whether dot and dotTile4x2 keep their
    // AVX2 spelling.
    const simd::Tag saved = simd::active();
    benchTag(state);
    Rng rng(15);
    ml::Matrix a(32, 250), b(64, 250), c(32, 64);
    a.randomize(rng, 1.0);
    b.randomize(rng, 1.0);
    for (auto _ : state) {
        ml::accumulateMatmulTransB(c, a, b);
        benchmark::DoNotOptimize(c.data());
    }
    simd::setActive(saved);
}
BENCHMARK(BM_MatmulTransBByIsa)->Apply(isaArgs);

} // namespace

BENCHMARK_MAIN();
