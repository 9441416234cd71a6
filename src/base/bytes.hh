/**
 * @file
 * The little-endian byte codec shared by every binary payload.
 *
 * Stage-cache entries (cells, featurized datasets, fold scores) and
 * model weights (ml/serialize, the softmax model) are written with
 * ByteWriter and read back with ByteReader. Values travel as the
 * host's own fixed-width bytes: integers at their declared width,
 * floats and doubles as their IEEE-754 bits, so a round trip is
 * bit-exact without any text conversion.
 *
 * Persisted bytes are input from outside the program, so the reader
 * is bounds-checked: a count is accepted only when the bytes it
 * promises remain, and the first short read latches a failure that the
 * decoder checks once at the end.
 */

#ifndef BF_BASE_BYTES_HH
#define BF_BASE_BYTES_HH

#include <bit>
#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace bigfish {

// The payload formats are fixed-width little-endian, written and read
// as the host's own bytes.
static_assert(std::endian::native == std::endian::little,
              "the binary payload codecs assume a little-endian host");
static_assert(sizeof(float) == 4 && sizeof(double) == 8,
              "the binary payload layout assumes IEEE-754 widths");

/** Appends fixed-width values to a payload. */
class ByteWriter
{
  public:
    template <typename T>
    void
    scalar(T v)
    {
        static_assert(std::is_arithmetic_v<T>);
        out_.append(reinterpret_cast<const char *>(&v), sizeof(T));
    }

    /** @p n values with no count prefix (the reader knows how many). */
    template <typename T>
    void
    raw(const T *values, std::size_t n)
    {
        static_assert(std::is_arithmetic_v<T>);
        out_.append(reinterpret_cast<const char *>(values), n * sizeof(T));
    }

    /** Bytes as they are (format header lines). */
    void text(std::string_view s) { out_.append(s); }

    void
    str(std::string_view s)
    {
        scalar<std::uint64_t>(s.size());
        out_.append(s);
    }

    /** A count-prefixed array of arithmetic values. */
    template <typename T>
    void
    array(const std::vector<T> &values)
    {
        scalar<std::uint64_t>(values.size());
        raw(values.data(), values.size());
    }

    std::string take() { return std::move(out_); }

  private:
    std::string out_;
};

/**
 * Bounds-checked reader over an untrusted payload. The first failed
 * read latches !ok() and every later read returns zero/empty, so a
 * decoder can read straight through and check once at the end.
 */
class ByteReader
{
  public:
    explicit ByteReader(std::string_view in) : in_(in) {}

    template <typename T>
    T
    get()
    {
        static_assert(std::is_arithmetic_v<T>);
        T v{};
        if (take(sizeof(T)))
            std::memcpy(&v, in_.data() - sizeof(T), sizeof(T));
        return v;
    }

    /** Fills @p values[0, n); on a short read they are left untouched. */
    template <typename T>
    void
    raw(T *values, std::size_t n)
    {
        static_assert(std::is_arithmetic_v<T>);
        if (n > in_.size() / sizeof(T)) {
            ok_ = false;
            return;
        }
        const std::size_t bytes = n * sizeof(T);
        if (bytes > 0 && take(bytes))
            std::memcpy(values, in_.data() - bytes, bytes);
    }

    /** Consumes @p expected when the payload starts with it. */
    bool
    text(std::string_view expected)
    {
        ok_ = ok_ && in_.starts_with(expected);
        if (ok_)
            in_.remove_prefix(expected.size());
        return ok_;
    }

    /**
     * A sequence count whose elements each occupy at least
     * @p min_element_bytes: fails (returning 0) unless that many bytes
     * remain, so no caller ever allocates for data that is not there.
     */
    std::size_t
    count(std::size_t min_element_bytes)
    {
        const auto n = get<std::uint64_t>();
        if (n > in_.size() / min_element_bytes) {
            ok_ = false;
            return 0;
        }
        return static_cast<std::size_t>(n);
    }

    void
    str(std::string &s)
    {
        const std::size_t n = count(1);
        s.assign(in_.data(), n);
        take(n);
    }

    template <typename T>
    void
    array(std::vector<T> &values)
    {
        values.resize(count(sizeof(T)));
        raw(values.data(), values.size());
    }

    /** True when every read succeeded and the payload is consumed. */
    bool done() const { return ok_ && in_.empty(); }
    bool ok() const { return ok_; }

  private:
    /** Consumes @p bytes; false (latched) when fewer remain. */
    bool
    take(std::size_t bytes)
    {
        ok_ = ok_ && bytes <= in_.size();
        if (ok_)
            in_.remove_prefix(bytes);
        return ok_;
    }

    std::string_view in_;
    bool ok_ = true;
};

} // namespace bigfish

#endif // BF_BASE_BYTES_HH
