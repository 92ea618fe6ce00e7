#ifndef LEOPARD_DURABLE_WAL_H_
#define LEOPARD_DURABLE_WAL_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <vector>

#include "common/status.h"
#include "trace/trace.h"

namespace leopard {
namespace durable {

/// Write-ahead trace log for the verification server.
///
/// Every batch the server accepts is appended here *before* it is pushed
/// into the online verifier, so a crash loses nothing: on restart the
/// entries past the newest checkpoint's cut sequence are replayed into a
/// fresh verifier and the run continues with identical verdicts.
///
/// Layout: `<dir>/seg-<first_seq>.wal` segment files. Each segment starts
/// with an 8-byte magic ("LEOWAL01") and the u64 sequence number of its
/// first entry, followed by entries:
///
///   u8 kAddClient (1) | u32 client_id
///   u8 kTrace     (2) | <trace record, trace_io codec, client id inside>
///
/// Sequence numbers are implicit: header first_seq + entry index. When a
/// segment reaches the size threshold it is *sealed* — the trace-file
/// integrity footer (0xFF 'C' 'R' 'C' + crc32 of every preceding byte) is
/// appended and a new segment begins. The writer folds each flushed batch
/// into a running CRC, so rotation never reads the segment back. The
/// entry-kind bytes never collide with the 0xFF sentinel.
///
/// Durability model: appends are fflush()ed per batch, so the bytes live in
/// the OS page cache — they survive a SIGKILL of the process (the
/// crash/resume tests' fault model), not a kernel panic or power cut.
/// Sealed segments are CRC-verified on replay (any corruption is a hard
/// error); the active segment legitimately ends mid-entry after a crash,
/// so its torn tail is detected and truncated at the last whole entry.
class WalWriter {
 public:
  struct Options {
    /// Seal + rotate the active segment once it exceeds this many bytes.
    size_t segment_bytes = 64u << 20;
  };

  WalWriter() = default;
  ~WalWriter();
  WalWriter(const WalWriter&) = delete;
  WalWriter& operator=(const WalWriter&) = delete;

  /// Opens the log in `dir` (created if missing), with the next entry to be
  /// appended carrying sequence number `next_seq` — after recovery this is
  /// where replay stopped; 0 for a fresh state dir. A pre-existing active
  /// segment is sealed first so every segment's sequence range stays dense.
  Status Open(const std::string& dir, uint64_t next_seq,
              const Options& options);

  /// Appends a client registration / a trace. Buffered — call Sync() at
  /// batch boundaries to make the appends crash-durable.
  Status AppendAddClient(ClientId client);
  Status AppendTrace(const Trace& trace);

  /// Flushes buffered appends to the OS (fflush). Cheap; per-batch.
  Status Sync();

  /// Seals the active segment (CRC footer) and starts a new one. Called by
  /// the checkpointer so the cut lands on a segment boundary and fully
  /// pre-cut segments become garbage-collectable. No-op on an empty
  /// active segment.
  Status Rotate();

  /// Deletes sealed segments whose every entry has sequence < `seq`.
  /// Returns segments removed.
  size_t RemoveSegmentsBelow(uint64_t seq);

  /// Sequence number the next appended entry will carry — the checkpoint
  /// cut point.
  uint64_t next_seq() const { return next_seq_; }
  /// Segments currently on disk (sealed + active), for /statusz.
  uint64_t segment_count() const { return segment_count_; }
  /// Total entry bytes appended through this writer (excludes headers).
  uint64_t bytes_appended() const { return bytes_appended_; }

 private:
  Status OpenSegment();
  Status SealActive();
  /// The write+fflush half of Sync(), without the size-triggered rotation
  /// (Rotate() calls this; Sync() adds the rotation check on top).
  Status FlushPending();

  std::string dir_;
  Options options_;
  std::FILE* file_ = nullptr;
  std::string pending_;          ///< entries encoded since the last flush
  std::string segment_path_;
  size_t segment_size_ = 0;      ///< bytes written to the active segment
  uint32_t segment_crc_ = 0;     ///< CRC32 of those bytes (the seal footer)
  uint64_t next_seq_ = 0;
  uint64_t segment_count_ = 0;
  uint64_t bytes_appended_ = 0;
};

/// One decoded WAL entry handed to the replay callback.
struct WalEntry {
  enum class Kind : uint8_t { kAddClient = 1, kTrace = 2 };
  Kind kind = Kind::kTrace;
  uint64_t seq = 0;
  ClientId client = 0;  ///< kAddClient only
  Trace trace;          ///< kTrace only
};

struct WalReplayStats {
  uint64_t entries_replayed = 0;
  uint64_t entries_skipped = 0;  ///< seq below the checkpoint cut
  uint64_t segments_read = 0;
  uint64_t torn_bytes = 0;       ///< truncated tail of the active segment
  uint64_t next_seq = 0;         ///< where appending resumes
};

/// Replays every entry with seq >= `from_seq` in order, invoking `fn` for
/// each; a non-OK return from `fn` aborts the replay with that status.
/// Sealed segments must pass CRC verification; a torn tail on the final
/// (active) segment is truncated, not an error. An empty or missing
/// directory replays nothing (stats.next_seq = from_seq, 0 entries).
/// `truncate_torn = false` reports the torn tail in stats without touching
/// the file — for read-only inspection (the leopard_state tool).
Status WalReplay(const std::string& dir, uint64_t from_seq,
                 const std::function<Status(const WalEntry&)>& fn,
                 WalReplayStats* stats, bool truncate_torn = true);

}  // namespace durable
}  // namespace leopard

#endif  // LEOPARD_DURABLE_WAL_H_
