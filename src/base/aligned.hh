/**
 * @file
 * 32-byte-aligned storage for the SIMD kernel layer.
 *
 * The vectorized kernels (ml/kernels.cc) issue 256-bit loads and
 * stores; keeping every Matrix buffer on a 32-byte boundary lets the
 * hot loops use aligned accesses on the first lane of every row-major
 * buffer and never straddle a cache line at element zero. Alignment is
 * a performance property only — the kernels are correct (and
 * bit-identical) for any alignment, so nothing outside Matrix needs to
 * care that this allocator exists.
 *
 * The allocator also default-initializes elements it constructs
 * without a value, so a resize leaves new trivially constructible
 * elements unwritten (see construct()).
 */

#ifndef BF_BASE_ALIGNED_HH
#define BF_BASE_ALIGNED_HH

#include <cstddef>
#include <new>
#include <vector>

namespace bigfish {

/** Minimal C++17 allocator returning @p Align-byte-aligned blocks. */
template <typename T, std::size_t Align>
struct AlignedAllocator
{
    static_assert(Align >= alignof(T) && (Align & (Align - 1)) == 0,
                  "Align must be a power of two no smaller than "
                  "alignof(T)");
    using value_type = T;

    AlignedAllocator() noexcept = default;
    template <typename U>
    AlignedAllocator(const AlignedAllocator<U, Align> &) noexcept
    {
    }

    template <typename U>
    struct rebind
    {
        using other = AlignedAllocator<U, Align>;
    };

    T *allocate(std::size_t n)
    {
        return static_cast<T *>(
            ::operator new(n * sizeof(T), std::align_val_t(Align)));
    }

    void deallocate(T *p, std::size_t) noexcept
    {
        ::operator delete(p, std::align_val_t(Align));
    }

    /**
     * Default-initializes instead of value-initializing, so growing a
     * float buffer leaves the new elements unwritten rather than
     * zeroing them: a buffer its owner overwrites in full (a GEMM
     * output seeded with the bias, a pooled map) skips one pass over
     * memory. Owners that need zeros ask for them explicitly.
     * Construction from a value falls back to std::allocator_traits'
     * placement new.
     */
    template <typename U>
    void construct(U *p) noexcept
    {
        ::new (static_cast<void *>(p)) U;
    }

    friend bool operator==(const AlignedAllocator &,
                           const AlignedAllocator &) noexcept
    {
        return true;
    }
};

/** The kernel layer's required buffer alignment (one AVX2 vector). */
inline constexpr std::size_t kSimdAlignment = 32;

/** A std::vector whose buffer starts on a 32-byte boundary. */
template <typename T>
using AlignedVector = std::vector<T, AlignedAllocator<T, kSimdAlignment>>;

} // namespace bigfish

#endif // BF_BASE_ALIGNED_HH
