/**
 * @file
 * Serialized sweep checkpoints: crash recovery for the *host*, not just
 * the board. The paper's Listing-1 campaign is hours of wall-clock on
 * real hardware; a host-process death should not restart it from
 * scratch. A SweepCheckpoint (harness/experiment.hh) is saved after
 * every completed level and loaded by a later process, which resumes
 * the campaign bit-identically: completed points are trusted, the
 * interrupted level keeps its partial run counts, and the board's
 * run-jitter stream is fast-forwarded to the stored cursor.
 *
 * Format: an append-only log ("uvolt-sweep-checkpoint v2") of
 * line-oriented text, one key per line, vectors as counted lists.
 * Human-inspectable and stable across platforms.
 *  - A header, written once per log, holds the sweep's identity:
 *    valid, platform, pattern, ambient, runs per level, step, range.
 *  - Each record holds the levels completed since the previous save
 *    (one, when a sweep saves after every level) and the cursor after
 *    them: the level in progress, the run-jitter cursor runsStarted
 *    and the level's partial run counts.
 *  - Every section ends in a trailer line "end <length> <fnv1a>": the
 *    byte length of the section before that line and the 16-hex-digit
 *    FNV-1a digest of those bytes.
 *
 * A save appends one record in a single write. The whole log is
 * written atomically (temp file + rename) only when the file does not
 * already hold this checkpoint's earlier saves. A load takes the header
 * and the longest prefix of whole records, so a crash mid-append
 * resumes from the last whole level, as a rename would have.
 */

#ifndef UVOLT_HARNESS_CHECKPOINT_HH
#define UVOLT_HARNESS_CHECKPOINT_HH

#include <iosfwd>
#include <string>

#include "harness/experiment.hh"
#include "util/error.hh"

namespace uvolt::harness
{

/**
 * Save @a checkpoint (valid or not) to the log at @a path: append one
 * record with the completed points the log lacks and the current
 * cursor. The whole log is written atomically instead when
 * @a checkpoint.saved does not describe the file: a fresh or loaded
 * checkpoint, a new path, a file of another size, or fewer completed
 * points than the log holds. Updates @a checkpoint.saved. An I/O
 * failure is fatal.
 */
void saveCheckpointFile(SweepCheckpoint &checkpoint,
                        const std::string &path);

/**
 * Parse a checkpoint log: its header and the longest prefix of whole
 * records; a torn or corrupt record ends the log. With no whole record
 * there is nothing to resume, and the checkpoint loads with valid
 * false. badCheckpoint when the header is missing, torn or malformed,
 * or a whole record is malformed.
 */
Expected<SweepCheckpoint> loadCheckpoint(std::istream &in);

/** Load from a file; badCheckpoint when unreadable or malformed. */
Expected<SweepCheckpoint> loadCheckpointFile(const std::string &path);

/** Build the header of a fresh checkpoint for a campaign. */
SweepCheckpoint makeCheckpoint(const pmbus::Board &board,
                               const SweepOptions &options, int from_mv,
                               int down_to_mv);

/**
 * badCheckpoint unless @a checkpoint belongs to this board/pattern/
 * campaign shape (platform, pattern, runs per level, step, range).
 */
Expected<void> tryValidateCheckpoint(const SweepCheckpoint &checkpoint,
                                     const pmbus::Board &board,
                                     const SweepOptions &options,
                                     int from_mv, int down_to_mv);

} // namespace uvolt::harness

#endif // UVOLT_HARNESS_CHECKPOINT_HH
