/**
 * @file
 * Google-benchmark microbenchmarks of the core components, including
 * the ablation DESIGN.md calls out: the closed-form ExecutionEngine vs
 * a brute-force per-iteration interpreter.
 */

#include <benchmark/benchmark.h>

#include <cmath>
#include <string>
#include <vector>

#include "attack/attacker.hh"
#include "base/simd.hh"
#include "core/collector.hh"
#include "ktrace/attribution.hh"
#include "ml/classifier.hh"
#include "ml/conv.hh"
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
        benchmark::DoNotOptimize(collector.collectOneOrDie(site, run++));
}
BENCHMARK(BM_CollectLoopTrace);

void
BM_CollectSweepTrace(benchmark::State &state)
{
    core::CollectionConfig config;
    config.attacker = attack::AttackerKind::SweepCounting;
    const core::TraceCollector collector(config);
    const auto site = web::nytimesSignature(0);
    int run = 0;
    for (auto _ : state)
        benchmark::DoNotOptimize(collector.collectOneOrDie(site, run++));
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
 * i-j-k triple loop every layer used before the blocked kernels landed;
 * the optimized pairs below quantify the rewrite on a conv-sized GEMM
 * (32x48 * 48x83) and a classifier-head GEMV (20x1024 * 1024x1).
 */
void
BM_MatmulNaiveReference(benchmark::State &state)
{
    Rng rng(7);
    ml::Matrix a(32, 48), b(48, 83);
    a.randomize(rng, 1.0);
    b.randomize(rng, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(ml::matmulReference(a, b));
    state.SetLabel("naive i-j-k loop (pre-rewrite kernel)");
}
BENCHMARK(BM_MatmulNaiveReference);

void
BM_MatmulOptimized(benchmark::State &state)
{
    Rng rng(7);
    ml::Matrix a(32, 48), b(48, 83);
    a.randomize(rng, 1.0);
    b.randomize(rng, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(ml::matmul(a, b));
    state.SetLabel("blocked k-unrolled kernel (same shape)");
}
BENCHMARK(BM_MatmulOptimized);

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
        benchmark::DoNotOptimize(conv.forward(input, false));
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
        benchmark::DoNotOptimize(lstm.forward(input, false));
}
BENCHMARK(BM_LstmForward);

void
BM_CnnLstmTrainEpochPerSample(benchmark::State &state)
{
    Rng rng(6);
    ml::Dataset train;
    for (int c = 0; c < 4; ++c) {
        for (int i = 0; i < 8; ++i) {
            std::vector<double> x(256);
            for (auto &v : x)
                v = rng.normal(0, 1);
            train.add(std::move(x), c);
        }
    }
    ml::CnnLstmParams params;
    params.maxEpochs = 1;
    params.patience = 1;
    for (auto _ : state) {
        ml::CnnLstmClassifier model(4, 256, params, 7);
        model.fit(train, train);
        benchmark::DoNotOptimize(model.predictScores(train.features[0]));
    }
    state.SetLabel("one epoch over 32 samples");
}
BENCHMARK(BM_CnnLstmTrainEpochPerSample);

/**
 * Per-ISA kernel sweep: each case runs once per simd::Tag (scalar,
 * then avx2 — clamped to scalar on a host without AVX2) at the shapes
 * the paper model actually trains — LSTM hidden 32 over 32-sample
 * batches (gate spans of 1024 lanes), the full CNN-LSTM Adam parameter
 * block, the conv GEMM and the A*B^T weight-gradient GEMM — so the
 * scalar row IS the before and the avx2 row the after of the
 * vectorization. adamStep has only the scalar path, so both of its
 * rows run the same code. The Arg is the Tag's value (0 / 2).
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
BM_KernelAdamStepByIsa(benchmark::State &state)
{
    // The LSTM weight block of the paper model: 4H x (H + in + 1),
    // H=32, in=96 -> 16512 parameters per step.
    const simd::Tag saved = simd::active();
    benchTag(state);
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
    simd::setActive(saved);
}
BENCHMARK(BM_KernelAdamStepByIsa)->Apply(isaArgs);

void
BM_KernelSigmoidByIsa(benchmark::State &state)
{
    const simd::Tag saved = simd::active();
    benchTag(state);
    Rng rng(14);
    std::vector<float> base(4096);
    for (float &x : base)
        x = static_cast<float>(rng.normal(0, 4));
    for (auto _ : state) {
        std::vector<float> d = base;
        ml::kernels::sigmoid(d.data(), d.size());
        benchmark::DoNotOptimize(d.data());
    }
    simd::setActive(saved);
}
BENCHMARK(BM_KernelSigmoidByIsa)->Apply(isaArgs);

void
BM_MatmulByIsa(benchmark::State &state)
{
    // The conv-sized GEMM from the old/new pair above, per ISA.
    const simd::Tag saved = simd::active();
    benchTag(state);
    Rng rng(7);
    ml::Matrix a(32, 48), b(48, 83);
    a.randomize(rng, 1.0);
    b.randomize(rng, 1.0);
    for (auto _ : state)
        benchmark::DoNotOptimize(ml::matmul(a, b));
    simd::setActive(saved);
}
BENCHMARK(BM_MatmulByIsa)->Apply(isaArgs);

void
BM_MatmulTransBByIsa(benchmark::State &state)
{
    // C += A * B^T at a training shape (32x64 output, k = 250): the
    // dotTile4x2 path. BM_KernelDotByIsa alone favours the scalar dot,
    // but the 4x2 tile is what training runs, and it is why dot and
    // dotTile4x2 keep their AVX2 spelling.
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
