#ifndef LEOPARD_DURABLE_CHECKPOINT_H_
#define LEOPARD_DURABLE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace leopard {
namespace durable {

/// On-disk checkpoint store for the verification server.
///
/// A checkpoint is the complete serialized verifier state at a quiescent
/// point, stamped with the WAL *cut* — the sequence number of the first WAL
/// entry NOT reflected in it. Recovery loads the newest valid checkpoint
/// and replays the WAL from its cut.
///
/// Layout in the state directory:
///
///   ckpt-<cut>.bin   magic "LEOCKP06", then meta (cut, config fingerprint,
///                    shard count), the length-prefixed payload, and a
///                    crc32 of every preceding byte.
///   MANIFEST         magic "LEOMAN01" + the newest cut + crc32, written
///                    atomically (temp + rename) after the checkpoint file.
///
/// Corruption handling is fallback, not failure: a checkpoint whose CRC
/// does not match (torn write, bit rot) is skipped and the next-newest one
/// is tried — the WAL extends back far enough to cover any retained
/// checkpoint, so recovering from an older cut just replays more entries.
/// The store keeps the newest two checkpoints for exactly this reason and
/// prunes the rest after each successful Write().
class CheckpointStore {
 public:
  struct Meta {
    /// WAL sequence number of the first entry not covered by this
    /// checkpoint; replay resumes here.
    uint64_t cut = 0;
    /// Fingerprint of the verifier configuration that produced the state
    /// (serde::ConfigFingerprint). Loading under a different config would
    /// silently change verdicts, so a mismatch is a hard error.
    uint64_t config_fingerprint = 0;
    /// Shard count the state was saved with; must match to load.
    uint32_t n_shards = 1;
  };

  /// A checkpoint read back from disk, CRC-verified.
  struct Loaded {
    Meta meta;
    std::string payload;
    std::string path;
  };

  /// Creates `dir` if missing. Must be called before Write/LoadNewest.
  Status Init(const std::string& dir);

  /// Persists a checkpoint: writes ckpt-<cut>.bin (temp + rename), then the
  /// manifest, then prunes all but the newest two checkpoint files.
  Status Write(const Meta& meta, const std::string& payload);

  /// Loads the newest checkpoint that passes CRC verification, preferring
  /// the manifest's cut and falling back to older files on corruption.
  /// NotFound when the directory holds no usable checkpoint (fresh start).
  StatusOr<Loaded> LoadNewest() const;

  /// All checkpoint files present, as (cut, path) sorted ascending by cut.
  std::vector<std::pair<uint64_t, std::string>> List() const;

  /// Reads and CRC-verifies one checkpoint file (used by the leopard_state
  /// inspector and internally by LoadNewest).
  static StatusOr<Loaded> ReadCheckpoint(const std::string& path);

  const std::string& dir() const { return dir_; }

 private:
  std::string dir_;
};

}  // namespace durable
}  // namespace leopard

#endif  // LEOPARD_DURABLE_CHECKPOINT_H_
