#include "core/registry.hh"

#include <cstdio>
#include <limits>

#include "base/logging.hh"
#include "base/thread_pool.hh"

namespace bigfish::core {

std::optional<double>
ExperimentDescriptor::expectedValue(const std::string &metric_name) const
{
    for (const ExpectedValue &e : expected)
        if (e.name == metric_name)
            return e.value;
    return std::nullopt;
}

void
ExperimentRegistry::add(ExperimentDescriptor descriptor)
{
    panicIf(descriptor.name.empty(),
            "experiment registered with an empty name");
    panicIf(!descriptor.run,
            "experiment '" + descriptor.name + "' has no run function");
    const auto [it, inserted] =
        experiments_.emplace(descriptor.name, std::move(descriptor));
    panicIf(!inserted,
            "experiment '" + it->first + "' registered twice");
}

const ExperimentDescriptor *
ExperimentRegistry::find(const std::string &name) const
{
    const auto it = experiments_.find(name);
    return it == experiments_.end() ? nullptr : &it->second;
}

std::vector<std::string>
ExperimentRegistry::names() const
{
    std::vector<std::string> out;
    out.reserve(experiments_.size());
    for (const auto &[name, descriptor] : experiments_)
        out.push_back(name);
    return out;
}

spec::ParamSchema
commonScaleSchema()
{
    spec::ParamSchema schema;
    schema.addInt("sites", 20, 2, 1000000, "closed-world sites (paper 100)")
        .addInt("traces", 20, 1, 1000000, "traces per site (paper 100)")
        .addInt("open", 60, 0, 10000000,
                "open-world one-off traces (paper 5000)")
        .addInt("features", 256, 8, 1000000, "classifier input length")
        .addInt("folds", 5, 2, 1000, "cross-validation folds (paper 10)")
        .addInt("topk", 5, 1, 1000,
                "k for the top-k accuracy metric (eval-only knob)")
        .addInt("seed", 2022, 0, std::numeric_limits<long long>::max(),
                "master seed")
        .addBool("paper-model", false,
                 "use the paper's exact CNN-LSTM hyperparameters")
        .addInt("threads", 0, 0, 4096,
                "worker threads (0 = BF_THREADS, else hardware)")
        .addString("cache-dir", "",
                   "stage cache directory: collected cells, featurized "
                   "data, fold models and fold scores; rerunning with the "
                   "same directory resumes or replays (\"\" disables)")
        // Only bench/harness/trace.cc still spells it --resume; the
        // bigfish CLI rejects that spelling.
        .addFlagAlias("resume", "cache-dir")
        .addInt("io-crash-after", 0, 0, 1000000000,
                "fault injection: crash after N stored collection cells")
        .addInt("io-torn-bytes", 0, 0, 1000000000,
                "fault injection: torn bytes of the crashed cell entry");
    return schema;
}

ExperimentScale
scaleFromSpec(const spec::RunSpec &run_spec)
{
    ExperimentScale scale;
    scale.sites = static_cast<int>(run_spec.getInt("sites"));
    scale.tracesPerSite = static_cast<int>(run_spec.getInt("traces"));
    scale.openWorldExtra = static_cast<int>(run_spec.getInt("open"));
    scale.featureLen =
        static_cast<std::size_t>(run_spec.getInt("features"));
    scale.folds = static_cast<int>(run_spec.getInt("folds"));
    scale.topK = static_cast<int>(run_spec.getInt("topk"));
    scale.seed = static_cast<std::uint64_t>(run_spec.getInt("seed"));
    scale.paperModel = run_spec.getBool("paper-model");
    scale.threads = static_cast<int>(run_spec.getInt("threads"));
    scale.cacheDir = run_spec.getString("cache-dir");
    scale.ioCrashAfterRecords =
        static_cast<int>(run_spec.getInt("io-crash-after"));
    scale.ioTornWriteBytes =
        static_cast<int>(run_spec.getInt("io-torn-bytes"));
    return scale;
}

std::vector<std::pair<std::string, std::string>>
smokeScaleOverrides()
{
    return {{"sites", "4"},
            {"traces", "3"},
            {"open", "8"},
            {"features", "32"},
            {"folds", "2"}};
}

std::vector<std::pair<std::string, std::string>>
fullScaleOverrides()
{
    return {{"sites", "100"},
            {"traces", "100"},
            {"open", "5000"},
            {"folds", "10"}};
}

ml::ClassifierFactory
classifierForScale(const ExperimentScale &scale)
{
    ml::CnnLstmParams params = scale.paperModel
                                   ? ml::CnnLstmParams::paperScale()
                                   : ml::CnnLstmParams::traceDefaults();
    // The fingerprinting pipeline always emits the two-channel
    // (mean + dip-depth) featurization.
    params.inputChannels = 2;
    return ml::cnnLstmFactory(params);
}

PipelineConfig
pipelineForScale(const ExperimentScale &scale)
{
    PipelineConfig pipeline;
    pipeline.numSites = scale.sites;
    pipeline.tracesPerSite = scale.tracesPerSite;
    pipeline.featureLen = scale.featureLen;
    pipeline.eval.folds = scale.folds;
    pipeline.eval.seed = scale.seed;
    pipeline.eval.topK = scale.topK;
    pipeline.factory = classifierForScale(scale);
    pipeline.cacheDir = scale.cacheDir;
    pipeline.ioFaults.crashAfterRecords = scale.ioCrashAfterRecords;
    pipeline.ioFaults.tornWriteBytes = scale.ioTornWriteBytes;
    return pipeline;
}

CollectionConfig
collectionForScale(const ExperimentScale &scale, CollectionConfig base)
{
    base.seed = scale.seed;
    return base;
}

RunArtifact
makeArtifact(const RunContext &ctx)
{
    panicIf(ctx.descriptor == nullptr,
            "RunContext has no experiment descriptor");
    RunArtifact artifact(ctx.descriptor->name, ctx.spec);
    artifact.setExpected(ctx.descriptor->expected);
    artifact.setThreads(globalThreadCount());
    SeedProvenance provenance;
    provenance.masterSeed =
        static_cast<std::uint64_t>(ctx.spec.getInt("seed"));
    provenance.catalogSeed = PipelineConfig{}.catalogSeed;
    provenance.derivation =
        "all streams derive from masterSeed via per-cell splitmix64 "
        "(site catalog fixed at catalogSeed)";
    artifact.setSeedProvenance(std::move(provenance));
    return artifact;
}

void
printExperimentBanner(const RunContext &ctx)
{
    panicIf(ctx.descriptor == nullptr,
            "RunContext has no experiment descriptor");
    const ExperimentScale scale = scaleFromSpec(ctx.spec);
    std::printf("================================================------\n");
    std::printf("%s — %s\n", ctx.descriptor->name.c_str(),
                ctx.descriptor->title.c_str());
    std::printf("reproduces: %s\n", ctx.descriptor->paperReference.c_str());
    std::printf("scale: %d sites x %d traces, %zu features, %d folds, "
                "seed %llu%s\n",
                scale.sites, scale.tracesPerSite, scale.featureLen,
                scale.folds,
                static_cast<unsigned long long>(scale.seed),
                scale.paperModel ? ", paper-scale model" : "");
    std::printf("(paper scale: 100 sites x 100 traces, 10 folds; run with "
                "--full)\n");
    std::printf("threads: %d (--threads=N or BF_THREADS to change)\n",
                globalThreadCount());
    std::printf("================================================------\n");
}

} // namespace bigfish::core
