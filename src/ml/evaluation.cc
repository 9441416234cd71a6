#include "ml/evaluation.hh"

#include "base/logging.hh"
#include "base/thread_pool.hh"
#include "stats/descriptive.hh"

namespace bigfish::ml {

namespace {

/**
 * Runs every fold (concurrently when the global pool has threads; each
 * fold's RNG stream depends only on its seed, so fold results are
 * identical at any thread count) and gathers in fold order.
 */
std::vector<FoldScores>
runFolds(const ClassifierFactory &factory, const Dataset &data,
         const std::vector<FoldSplit> &splits, std::uint64_t seed_base)
{
    return parallelMap(splits.size(), [&](std::size_t f) {
        const auto model =
            trainFoldClassifier(factory, data, splits[f], seed_base + f);
        return scoreFold(*model, data, splits[f].test);
    });
}

} // namespace

std::unique_ptr<Classifier>
trainFoldClassifier(const ClassifierFactory &factory, const Dataset &data,
                    const FoldSplit &split, std::uint64_t seed)
{
    auto model = factory(data.numClasses, data.featureLen(), seed);
    model->fit(data.subset(split.train), data.subset(split.validation));
    return model;
}

FoldScores
scoreFold(const Classifier &model, const Dataset &data,
          const std::vector<std::size_t> &test)
{
    FoldScores out;
    out.scores.reserve(test.size());
    out.truths.reserve(test.size());
    out.predictions.reserve(test.size());
    // One inference pass per sample: the prediction is the argmax of
    // the scores just stored, by the same rule Classifier::predict uses.
    for (std::size_t i : test) {
        out.scores.push_back(model.predictScores(data.features[i]));
        out.truths.push_back(data.labels[i]);
        out.predictions.push_back(Classifier::argmax(out.scores.back()));
    }
    return out;
}

EvalResult
aggregateFolds(const std::vector<FoldScores> &folds, int topK)
{
    EvalResult result;
    result.topK = topK;
    for (const FoldScores &fold : folds) {
        result.foldTop1.push_back(
            stats::topKAccuracy(fold.scores, fold.truths, 1));
        result.foldTopK.push_back(
            stats::topKAccuracy(fold.scores, fold.truths, topK));
    }
    result.top1Mean = stats::mean(result.foldTop1);
    result.top1Std = stats::sampleStddev(result.foldTop1);
    result.topKMean = stats::mean(result.foldTopK);
    result.topKStd = stats::sampleStddev(result.foldTopK);
    return result;
}

EvalResult
aggregateFoldsOpenWorld(const std::vector<FoldScores> &folds,
                        Label nonSensitiveLabel, int topK)
{
    EvalResult result = aggregateFolds(folds, topK);
    std::vector<double> sensitive, non_sensitive, combined;
    for (const FoldScores &fold : folds) {
        const auto metrics = stats::openWorldMetrics(
            fold.truths, fold.predictions, nonSensitiveLabel);
        sensitive.push_back(metrics.sensitiveAccuracy);
        non_sensitive.push_back(metrics.nonSensitiveAccuracy);
        combined.push_back(metrics.combinedAccuracy);
    }
    result.openWorld.sensitiveAccuracy = stats::mean(sensitive);
    result.openWorld.nonSensitiveAccuracy = stats::mean(non_sensitive);
    result.openWorld.combinedAccuracy = stats::mean(combined);
    result.openWorldSensitiveStd = stats::sampleStddev(sensitive);
    result.openWorldCombinedStd = stats::sampleStddev(combined);
    return result;
}

EvalResult
crossValidate(const ClassifierFactory &factory, const Dataset &data,
              const EvalConfig &config)
{
    fatalIf(data.size() == 0, "cannot evaluate an empty dataset");
    const auto splits = kFoldSplits(data.size(), config.folds,
                                    config.valFraction, config.seed);
    const auto folds =
        runFolds(factory, data, splits,
                 config.seed + kClosedWorldFoldSeedBase);
    return aggregateFolds(folds, config.topK);
}

} // namespace bigfish::ml
