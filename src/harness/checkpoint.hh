/**
 * @file
 * Serialized sweep checkpoints: crash recovery for the *host*, not just
 * the board. The paper's Listing-1 campaign is hours of wall-clock on
 * real hardware; a host-process death should not restart it from
 * scratch. A SweepCheckpoint (harness/experiment.hh) can be written to
 * a file after every completed level and loaded by a later
 * process, which resumes the campaign bit-identically: completed points
 * are trusted, the interrupted level keeps its partial run counts, and
 * the board's run-jitter stream is fast-forwarded to the stored cursor.
 *
 * Format: versioned line-oriented text ("uvolt-sweep-checkpoint v1"),
 * one key per line, vectors as counted lists. Human-inspectable and
 * stable across platforms.
 */

#ifndef UVOLT_HARNESS_CHECKPOINT_HH
#define UVOLT_HARNESS_CHECKPOINT_HH

#include <iosfwd>
#include <string>

#include "harness/experiment.hh"
#include "util/error.hh"

namespace uvolt::harness
{

/** Serialize a checkpoint (valid or not) atomically to a file. */
void saveCheckpointFile(const SweepCheckpoint &checkpoint,
                        const std::string &path);

/** Parse a checkpoint; badCheckpoint on malformed/mismatched input. */
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
