/**
 * @file
 * Model weight persistence.
 *
 * The attack's offline phase trains a classifier on the attacker's own
 * machine; the online phase only needs inference. Persisting weights
 * lets the two phases run in different processes, mirroring the paper's
 * train-once / attack-many workflow.
 *
 * The format is a little-endian binary container written with the
 * shared codec of base/bytes.hh: the header line "# bigfish-weights
 * v2", the tensor count as a u64, then per tensor its rows and cols as
 * u64 and its values as raw float32 bits, so a load restores the exact
 * weights without any text conversion. It deliberately stores only the
 * *parameter tensors* in layer order; the loader validates that shapes
 * match the freshly constructed architecture, so a weight file can
 * never be silently applied to the wrong model. Earlier text (v1)
 * streams fail the header check.
 *
 * Error contract: load/save return Status instead of terminating — a
 * truncated or mismatched checkpoint is an expected operating condition
 * for a long-running service. On any load error the destination network
 * should be considered partially written; reconstruct it before retrying.
 * The ...OrDie() wrappers keep example binaries one-liners.
 */

#ifndef BF_ML_SERIALIZE_HH
#define BF_ML_SERIALIZE_HH

#include <iosfwd>
#include <string>
#include <string_view>

#include "base/status.hh"
#include "ml/network.hh"

namespace bigfish::ml {

/** Every parameter tensor of @p net as a bigfish-weights v2 payload. */
std::string encodeWeights(Sequential &net);

/**
 * Loads a whole encodeWeights() payload into an already-constructed
 * network: ParseError when it is malformed, truncated or followed by
 * trailing bytes, ShapeMismatch when a tensor count or shape differs
 * from the network's parameters, DataError for a non-finite value.
 */
[[nodiscard]] Status decodeWeights(std::string_view bytes, Sequential &net);

/** Writes every parameter tensor of @p net to the stream. */
[[nodiscard]] Status saveWeights(std::ostream &out, Sequential &net);

/** Writes weights to a file. */
[[nodiscard]] Status saveWeights(const std::string &path, Sequential &net);

/** saveWeights() that fatal()s on failure (binary boundaries only). */
void saveWeightsOrDie(const std::string &path, Sequential &net);
void saveWeightsOrDie(std::ostream &out, Sequential &net);

/** decodeWeights() over the rest of the stream. */
[[nodiscard]] Status loadWeights(std::istream &in, Sequential &net);

/** Reads weights from a file. */
[[nodiscard]] Status loadWeights(const std::string &path, Sequential &net);

/** loadWeights() that fatal()s on failure (binary boundaries only). */
void loadWeightsOrDie(const std::string &path, Sequential &net);
void loadWeightsOrDie(std::istream &in, Sequential &net);

} // namespace bigfish::ml

#endif // BF_ML_SERIALIZE_HH
