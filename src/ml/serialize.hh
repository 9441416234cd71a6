/**
 * @file
 * The model weight codec.
 *
 * The attack's offline phase trains a classifier on the attacker's own
 * machine; the online phase only needs inference. The stage cache
 * stores a trained network's weights as a `model` payload in this
 * format, so the two phases can run in different processes, mirroring
 * the paper's train-once / attack-many workflow.
 *
 * The payload is a little-endian binary container written with the
 * shared codec of base/bytes.hh: the header line "# bigfish-weights
 * v2", the tensor count as a u64, then per tensor its rows and cols as
 * u64 and its values as raw float32 bits, so decoding restores the
 * exact weights without any text conversion. It deliberately stores
 * only the *parameter tensors* in layer order; the decoder validates
 * that shapes match the freshly constructed architecture, so a payload
 * can never be silently applied to the wrong model. Earlier text (v1)
 * payloads fail the header check.
 *
 * decodeWeights() reports every defect as a Status. On any error the
 * destination network should be considered partially written;
 * reconstruct it before retrying.
 */

#ifndef BF_ML_SERIALIZE_HH
#define BF_ML_SERIALIZE_HH

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

} // namespace bigfish::ml

#endif // BF_ML_SERIALIZE_HH
