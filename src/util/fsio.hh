/**
 * @file
 * Crash-atomic file writes.
 *
 * Several artifacts in this repo are load-bearing across process
 * restarts: sweep checkpoints (resume after host death), cached FVMs
 * (characterize once), trained models. A crash
 * mid-write — including the spurious-crash class the fault injector
 * models — must never leave a truncated file that poisons the next
 * process's resume path. The fix is the classic one: write the full
 * content to "<path>.tmp" in the same directory, flush, then rename
 * over the destination. rename(2) within a filesystem is atomic, so
 * readers observe either the old file or the new one, never a prefix.
 */

#ifndef UVOLT_UTIL_FSIO_HH
#define UVOLT_UTIL_FSIO_HH

#include <string>
#include <string_view>

#include "util/error.hh"

namespace uvolt
{

/**
 * Write @a content to @a path crash-atomically: parent directories are
 * created, the bytes land in "<path>.tmp", and the temp file is renamed
 * over @a path only after a successful full write. On any failure the
 * temp file is removed and the previous @a path content (if any) is
 * left untouched. I/O failures come back as an Error carrying
 * @a error_code so callers keep their own taxonomy (e.g. a cached FVM
 * reports corruptCache).
 */
Expected<void> writeFileAtomic(const std::string &path,
                               std::string_view content,
                               Errc error_code = Errc::cacheMiss);

/**
 * Append one record to @a path in a single O_APPEND write. POSIX
 * guarantees the kernel serializes the offset advance for O_APPEND
 * writes, so concurrent appenders (parallel bench runs stamping the
 * same timeline) interleave whole records — never torn or overlapping
 * lines. A trailing newline is added when @a record does not end with
 * one; parent directories are created. Built for line-oriented logs
 * (the uvolt-run-v1 records of harness/run_record.hh, the records of a
 * sweep checkpoint log). The pipe-buffer bound (4 KB) does not apply to
 * regular files: Linux holds the inode lock across one write(2), and
 * Timeline.ConcurrentAppendersNeverTearRows shows 8 writers of records
 * up to 17 KB on a local filesystem, none torn. Network filesystems make
 * no such promise.
 */
Expected<void> appendFileRecord(const std::string &path,
                                std::string_view record,
                                Errc error_code = Errc::cacheMiss);

} // namespace uvolt

#endif // UVOLT_UTIL_FSIO_HH
