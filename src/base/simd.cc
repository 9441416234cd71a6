#include "base/simd.hh"

#include <atomic>
#include <cstdlib>
#include <string>

#include "base/logging.hh"

namespace bigfish::simd {

namespace {

/** -1 = not yet resolved; otherwise the int value of the active Tag. */
std::atomic<int> g_active{-1};

Tag
clampToSupported(Tag tag)
{
    return supported(tag) ? tag : Tag::Scalar;
}

/** BF_SIMD override when set and recognized, else detect(). */
Tag
resolveInitial()
{
    // The one sanctioned environment read for kernel dispatch: like
    // BF_THREADS, it selects *how* work runs, never what the results
    // are — every Tag is bit-identical by construction.
    const char *env = std::getenv("BF_SIMD");
    if (env == nullptr || env[0] == '\0')
        return detect();
    const std::string want(env);
    Tag tag = detect();
    if (want == "scalar") {
        tag = Tag::Scalar;
    } else if (want == "avx2") {
        tag = Tag::Avx2;
    } else {
        warnOnce("simd/bad-env",
                 "ignoring BF_SIMD='" + want +
                     "' (want scalar or avx2); using " + name(tag));
        return tag;
    }
    const Tag effective = clampToSupported(tag);
    if (effective != tag)
        warnOnce("simd/unsupported-env",
                 "BF_SIMD='" + want +
                     "' is not supported on this CPU; using " +
                     name(effective));
    return effective;
}

} // namespace

const char *
name(Tag tag)
{
    switch (tag) {
    case Tag::Scalar:
        return "scalar";
    case Tag::Avx2:
        return "avx2";
    }
    return "scalar";
}

bool
supported(Tag tag)
{
#if defined(BF_SIMD_X86)
    switch (tag) {
    case Tag::Scalar:
        return true;
    case Tag::Avx2:
        return __builtin_cpu_supports("avx2") != 0;
    }
    return false;
#else
    return tag == Tag::Scalar;
#endif
}

Tag
detect()
{
    return supported(Tag::Avx2) ? Tag::Avx2 : Tag::Scalar;
}

Tag
active()
{
    int current = g_active.load(std::memory_order_acquire);
    if (current >= 0)
        return static_cast<Tag>(current);
    const Tag resolved = resolveInitial();
    // Another thread may race the first resolution; both compute the
    // same value (the env is stable), so either store wins harmlessly.
    g_active.store(static_cast<int>(resolved), std::memory_order_release);
    return resolved;
}

Tag
setActive(Tag tag)
{
    const Tag effective = clampToSupported(tag);
    g_active.store(static_cast<int>(effective),
                   std::memory_order_release);
    return effective;
}

} // namespace bigfish::simd
