/**
 * @file
 * Classifiers: the paper's CNN-LSTM model plus two classical baselines.
 *
 * The CNN-LSTM follows the paper's footnote 2: two pairs of Conv1D
 * (stride 3, ReLU) + MaxPool1D(4), an LSTM, a dropout layer, and a dense
 * softmax classification layer, trained with Adam (lr = 0.001) and early
 * stopping on validation accuracy. Layer widths are configurable: the
 * paper's sizes (256 filters, 32 LSTM units, dropout 0.7) are available,
 * while the benchmark defaults use narrower layers so the full harness
 * runs on one laptop core in minutes.
 */

#ifndef BF_ML_CLASSIFIER_HH
#define BF_ML_CLASSIFIER_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "ml/dataset.hh"
#include "ml/network.hh"

namespace bigfish::ml {

/** Per-epoch training diagnostics. */
struct EpochStats
{
    double trainLoss = 0.0;   ///< Mean cross-entropy over the epoch.
    double valAccuracy = 0.0; ///< Validation accuracy after the epoch.
};

/** Common interface of all classifiers. */
class Classifier
{
  public:
    virtual ~Classifier() = default;

    /**
     * Trains on @p train, using @p validation for early stopping where
     * applicable.
     */
    virtual void fit(const Dataset &train, const Dataset &validation) = 0;

    /** Class scores (higher = more likely) for one sample. */
    virtual std::vector<double>
    predictScores(const std::vector<double> &x) const = 0;

    /** Argmax prediction. */
    Label predict(const std::vector<double> &x) const;

    /** Index of the first maximum of @p scores (predict()'s rule). */
    static Label argmax(const std::vector<double> &scores);

    /**
     * Serialized trained state, or "" when the model does not support
     * persistence (kNN memorizes its training set). The little-endian
     * binary payload (base/bytes.hh) restores bit-identical predictions
     * through loadModel() on a freshly constructed model of the same
     * architecture — which is what lets the stage cache replay trained
     * fold models across runs.
     */
    virtual std::string saveModel() const { return {}; }

    /** Restores state written by saveModel(); false on any mismatch. */
    virtual bool loadModel(const std::string &) { return false; }
};

/**
 * Factory producing a fresh untrained classifier (one per CV fold),
 * paired with the canonical hyperparameter text that content-addresses
 * the models it trains. Two factories with equal canon (and equal
 * data/seed inputs) must produce interchangeable trained models; a
 * factory with an empty canon opts its models out of caching (the
 * stage graph cannot tell its configurations apart).
 */
struct ClassifierFactory
{
    using MakeFn = std::function<std::unique_ptr<Classifier>(
        int num_classes, std::size_t feature_len, std::uint64_t seed)>;

    ClassifierFactory() = default;

    /** Wraps a callable; ad-hoc lambdas (tests, sweeps) get an empty
     *  canon and therefore uncached models. */
    template <typename Fn,
              typename = std::enable_if_t<
                  !std::is_same_v<std::decay_t<Fn>, ClassifierFactory> &&
                  std::is_invocable_r_v<std::unique_ptr<Classifier>, Fn,
                                        int, std::size_t, std::uint64_t>>>
    ClassifierFactory(Fn fn, std::string canon_text = {})
        : make(std::move(fn)), canon(std::move(canon_text))
    {
    }

    std::unique_ptr<Classifier>
    operator()(int num_classes, std::size_t feature_len,
               std::uint64_t seed) const
    {
        return make(num_classes, feature_len, seed);
    }

    explicit operator bool() const { return static_cast<bool>(make); }

    MakeFn make;
    /** One-line-per-field hyperparameter text (stage fingerprints). */
    std::string canon;
};

/** Hyperparameters of the CNN-LSTM model. */
struct CnnLstmParams
{
    std::size_t convFilters = 32;  ///< Paper: 256.
    std::size_t convKernel = 8;
    std::size_t convStride = 3;    ///< Paper: 3.
    std::size_t poolSize = 4;      ///< Paper: 4.
    std::size_t lstmUnits = 32;    ///< Paper: 32.
    double dropout = 0.3;          ///< Paper: 0.7 (tuned for bench scale).
    double learningRate = 2e-3;    ///< Paper: 0.001 (tuned for bench scale).
    int maxEpochs = 60;
    int batchSize = 16;
    int patience = 10;             ///< Early-stopping patience (epochs).
    /**
     * Input channels. The fingerprinting pipeline feeds two channels
     * per time bucket (bucket mean + sub-bucket dip depth); plain
     * single-series inputs use 1. The feature vector handed to fit()/
     * predictScores() is the channel-major concatenation.
     */
    std::size_t inputChannels = 1;

    /** The paper's exact published hyperparameters. */
    static CnnLstmParams paperScale();

    /** Bench defaults for the two-channel trace featurization. */
    static CnnLstmParams traceDefaults();
};

/** The paper's deep classifier. */
class CnnLstmClassifier : public Classifier
{
  public:
    /**
     * @param num_classes Output classes.
     * @param feature_len Input trace length.
     * @param params Hyperparameters.
     * @param seed Weight-init / shuffling seed.
     */
    CnnLstmClassifier(int num_classes, std::size_t feature_len,
                      CnnLstmParams params, std::uint64_t seed);

    void fit(const Dataset &train, const Dataset &validation) override;
    std::vector<double>
    predictScores(const std::vector<double> &x) const override;
    std::string saveModel() const override;
    bool loadModel(const std::string &payload) override;

    /** The underlying network (for weight persistence / diagnostics). */
    Sequential &network() { return net_; }

    /** Per-epoch loss/validation-accuracy curve of the last fit(). */
    const std::vector<EpochStats> &history() const { return history_; }

    /**
     * Batches skipped during the last fit() because their loss or
     * gradients were non-finite (NaN-poisoned inputs, exploding
     * gradients). Training recovers by leaving the parameters untouched
     * for that batch instead of silently diverging.
     */
    std::size_t skippedBatches() const { return skippedBatches_; }

  private:
    /** Converts a feature vector into the network's (1 x T) input. */
    Matrix toInput(const std::vector<double> &x) const;

    /** Fraction of @p inputs predicted as the matching @p labels. */
    double accuracyOn(const std::vector<Matrix> &inputs,
                      const std::vector<Label> &labels) const;

    std::vector<EpochStats> history_;
    std::size_t skippedBatches_ = 0;

    int numClasses_;
    std::size_t featureLen_;
    CnnLstmParams params_;
    std::uint64_t seed_;
    mutable Sequential net_;
};

/** Multinomial logistic regression on the raw trace features. */
class SoftmaxRegressionClassifier : public Classifier
{
  public:
    SoftmaxRegressionClassifier(int num_classes, std::size_t feature_len,
                                std::uint64_t seed, double lr = 0.05,
                                int epochs = 120, double l2 = 1e-4);

    void fit(const Dataset &train, const Dataset &validation) override;
    std::vector<double>
    predictScores(const std::vector<double> &x) const override;
    std::string saveModel() const override;
    bool loadModel(const std::string &payload) override;

  private:
    int numClasses_;
    std::size_t featureLen_;
    std::uint64_t seed_;
    double lr_;
    int epochs_;
    double l2_;
    std::vector<std::vector<double>> w_; ///< (classes x features+1).
};

/** k-nearest-neighbours on Euclidean trace distance. */
class KnnClassifier : public Classifier
{
  public:
    KnnClassifier(int num_classes, int k = 5);

    void fit(const Dataset &train, const Dataset &validation) override;
    std::vector<double>
    predictScores(const std::vector<double> &x) const override;

  private:
    int numClasses_;
    int k_;
    Dataset memory_;
};

/** Factory for the CNN-LSTM with given hyperparameters. */
ClassifierFactory cnnLstmFactory(CnnLstmParams params = {});

/** Factory for the softmax-regression baseline. */
ClassifierFactory softmaxRegressionFactory();

/** Factory for the kNN baseline. */
ClassifierFactory knnFactory(int k = 5);

} // namespace bigfish::ml

#endif // BF_ML_CLASSIFIER_HH
