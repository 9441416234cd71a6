/**
 * @file
 * Atomic file IO: write-temp-fsync-rename.
 *
 * Every durable artifact the suite produces — run artifact JSON, model
 * weights, stage-cache entries, the suite manifest — must never be
 * observable in a torn state. A kill -9 (or the stage cache's simulated
 * IoFaults::crashAfterRecords crash) at any instant must leave
 * either the previous complete file or the new complete file, never a
 * prefix. atomicWriteFile() provides that guarantee the classic POSIX
 * way: write the full content to `<path>.tmp`, fsync it, then rename(2)
 * over the destination (atomic within a filesystem).
 *
 * The helpers return Status rather than terminating: a full disk or a
 * read-only artifact directory is an expected operating condition for a
 * long unattended run (see DESIGN.md §9).
 */

#ifndef BF_BASE_ATOMIC_FILE_HH
#define BF_BASE_ATOMIC_FILE_HH

#include <string>

#include "base/status.hh"

namespace bigfish {

/**
 * Creates @p path and any missing parents, like `mkdir -p`. Returns OK
 * when the directory already exists; an IoError naming the path when
 * creation fails.
 */
[[nodiscard]] Status createDirectories(const std::string &path);

/**
 * Atomically replaces @p path with @p content via write-temp-fsync-
 * rename. On failure the destination is untouched and the temp file is
 * removed. Concurrent writers of the *same* path race on the temp name;
 * all callers in this tree are single-writer per path.
 */
[[nodiscard]] Status atomicWriteFile(const std::string &path,
                                     const std::string &content);

} // namespace bigfish

#endif // BF_BASE_ATOMIC_FILE_HH
