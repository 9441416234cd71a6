#include "ml/serialize.hh"

#include <algorithm>
#include <cmath>

#include "base/bytes.hh"

namespace bigfish::ml {

namespace {

constexpr std::string_view kHeader = "# bigfish-weights v2\n";

/** The leading line of @p bytes, shortened for an error message. */
std::string
firstLine(std::string_view bytes)
{
    return std::string(bytes.substr(0, std::min(bytes.find('\n'),
                                                std::size_t{60})));
}

} // namespace

std::string
encodeWeights(Sequential &net)
{
    const auto params = net.params();
    ByteWriter out;
    out.text(kHeader);
    out.scalar<std::uint64_t>(params.size());
    for (const Matrix *p : params) {
        out.scalar<std::uint64_t>(p->rows());
        out.scalar<std::uint64_t>(p->cols());
        out.raw(p->data(), p->size());
    }
    return out.take();
}

Status
decodeWeights(std::string_view bytes, Sequential &net)
{
    ByteReader in(bytes);
    if (!in.text(kHeader))
        return parseError("not a bigfish-weights v2 stream: expected "
                          "header \"" +
                          firstLine(kHeader) + "\", found \"" +
                          firstLine(bytes) + "\"");
    const auto count = in.get<std::uint64_t>();
    if (!in.ok())
        return parseError("bigfish-weights stream missing tensor count");
    const auto params = net.params();
    if (count != params.size())
        return shapeMismatchError(
            "weight file has " + std::to_string(count) +
            " tensors but the network has " +
            std::to_string(params.size()));
    for (std::size_t t = 0; t < params.size(); ++t) {
        Matrix *p = params[t];
        const auto rows = in.get<std::uint64_t>();
        const auto cols = in.get<std::uint64_t>();
        if (!in.ok())
            return parseError("bigfish-weights stream truncated at tensor " +
                              std::to_string(t));
        if (rows != p->rows() || cols != p->cols())
            return shapeMismatchError(
                "weight tensor " + std::to_string(t) +
                " shape mismatch: file " + std::to_string(rows) + "x" +
                std::to_string(cols) + ", network " +
                std::to_string(p->rows()) + "x" +
                std::to_string(p->cols()));
        in.raw(p->data(), p->size());
        if (!in.ok())
            return parseError(
                "bigfish-weights stream truncated inside tensor " +
                std::to_string(t));
        for (std::size_t i = 0; i < p->size(); ++i)
            if (!std::isfinite(p->data()[i]))
                return dataError("non-finite weight in tensor " +
                                 std::to_string(t));
    }
    if (!in.done())
        return parseError("bigfish-weights stream has trailing bytes");
    return Status::ok();
}

} // namespace bigfish::ml
