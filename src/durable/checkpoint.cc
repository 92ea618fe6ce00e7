#include "durable/checkpoint.h"

#include <algorithm>
#include <cinttypes>
#include <cstring>
#include <filesystem>
#include <system_error>

#include "common/state_codec.h"
#include "durable/fs.h"
#include "trace/trace_io.h"

namespace leopard {
namespace durable {

namespace {

// The last two bytes version the payload layout. "04" dropped the server's
// txn -> client route table from the front of the payload; "05" replaces
// each active transaction's seen-shard mask in the sharded router state with
// the shards its terminal must reach; "06" stores each pipeline client's
// fetched count in place of the global-heap section and no longer stores
// the pipeline's watermark, which is rebuilt. An older file would be
// misread, so ReadCheckpoint rejects any other version by name.
constexpr char kCkptMagic[8] = {'L', 'E', 'O', 'C', 'K', 'P', '0', '6'};
constexpr size_t kCkptVersionAt = 6;  // "LEOCKP" prefix, then the version
constexpr char kManifestMagic[8] = {'L', 'E', 'O', 'M', 'A', 'N', '0', '1'};
constexpr size_t kKeepCheckpoints = 2;

std::string CheckpointName(uint64_t cut) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "ckpt-%020" PRIu64 ".bin", cut);
  return buf;
}

void AppendCrc(std::string& bytes) {
  const uint32_t crc = Crc32(bytes.data(), bytes.size());
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
  }
}

bool CheckTrailingCrc(const std::string& bytes) {
  if (bytes.size() < 4) return false;
  const size_t body = bytes.size() - 4;
  uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored |= static_cast<uint32_t>(static_cast<uint8_t>(bytes[body + i]))
              << (8 * i);
  }
  return Crc32(bytes.data(), body) == stored;
}

}  // namespace

Status CheckpointStore::Init(const std::string& dir) {
  dir_ = dir;
  return EnsureDir(dir_);
}

Status CheckpointStore::Write(const Meta& meta, const std::string& payload) {
  std::string bytes(kCkptMagic, sizeof(kCkptMagic));
  {
    StateWriter w(bytes);
    w.PutU64(meta.cut);
    w.PutU64(meta.config_fingerprint);
    w.PutU32(meta.n_shards);
    w.PutBytes(payload);
  }
  AppendCrc(bytes);
  const std::string path = dir_ + "/" + CheckpointName(meta.cut);
  Status s = WriteFileAtomic(path, bytes);
  if (!s.ok()) return s;

  // Manifest second: a crash between the two leaves the previous manifest
  // pointing at the previous (still present) checkpoint — always valid.
  std::string manifest(kManifestMagic, sizeof(kManifestMagic));
  {
    StateWriter w(manifest);
    w.PutU64(meta.cut);
  }
  AppendCrc(manifest);
  s = WriteFileAtomic(dir_ + "/MANIFEST", manifest);
  if (!s.ok()) return s;

  auto all = List();
  for (size_t i = 0; i + kKeepCheckpoints < all.size(); ++i) {
    std::error_code ec;
    std::filesystem::remove(all[i].second, ec);
  }
  return Status::Ok();
}

std::vector<std::pair<uint64_t, std::string>> CheckpointStore::List() const {
  std::vector<std::pair<uint64_t, std::string>> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir_, ec);
  if (ec) return out;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    uint64_t cut = 0;
    if (std::sscanf(name.c_str(), "ckpt-%" SCNu64 ".bin", &cut) == 1) {
      out.emplace_back(cut, entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

StatusOr<CheckpointStore::Loaded> CheckpointStore::ReadCheckpoint(
    const std::string& path) {
  auto bytes_or = ReadFileToString(path);
  if (!bytes_or.ok()) return bytes_or.status();
  const std::string& bytes = *bytes_or;
  if (bytes.size() < sizeof(kCkptMagic) + 4 ||
      std::memcmp(bytes.data(), kCkptMagic, kCkptVersionAt) != 0) {
    return Status::InvalidArgument("not a checkpoint file: " + path);
  }
  if (std::memcmp(bytes.data(), kCkptMagic, sizeof(kCkptMagic)) != 0) {
    return Status::InvalidArgument(
        "checkpoint " + path + " has format " + bytes.substr(0, 8) +
        ", this build reads " + std::string(kCkptMagic, sizeof(kCkptMagic)));
  }
  if (!CheckTrailingCrc(bytes)) {
    return Status::InvalidArgument("checkpoint CRC mismatch: " + path);
  }
  // CRC verified; decode the body (excluding the trailing crc32).
  const std::string body(bytes, 0, bytes.size() - 4);
  StateReader r(body, sizeof(kCkptMagic));
  Loaded loaded;
  loaded.path = path;
  Status s;
  if ((s = r.GetU64(loaded.meta.cut)).ok() &&
      (s = r.GetU64(loaded.meta.config_fingerprint)).ok() &&
      (s = r.GetU32(loaded.meta.n_shards)).ok()) {
    s = r.GetBytes(loaded.payload);
  }
  if (!s.ok()) {
    return Status::InvalidArgument("truncated checkpoint " + path + ": " +
                                   s.message());
  }
  return loaded;
}

StatusOr<CheckpointStore::Loaded> CheckpointStore::LoadNewest() const {
  // Candidate order: the manifest's cut first (it names the checkpoint whose
  // write fully completed), then every file on disk from newest to oldest.
  std::vector<std::string> candidates;
  auto manifest_or = ReadFileToString(dir_ + "/MANIFEST");
  if (manifest_or.ok() && CheckTrailingCrc(*manifest_or) &&
      manifest_or->size() >= sizeof(kManifestMagic) + 8 + 4 &&
      std::memcmp(manifest_or->data(), kManifestMagic,
                  sizeof(kManifestMagic)) == 0) {
    StateReader r(*manifest_or, sizeof(kManifestMagic));
    uint64_t cut = 0;
    if (r.GetU64(cut).ok()) {
      candidates.push_back(dir_ + "/" + CheckpointName(cut));
    }
  }
  auto all = List();
  for (auto it = all.rbegin(); it != all.rend(); ++it) {
    if (candidates.empty() || candidates.front() != it->second) {
      candidates.push_back(it->second);
    }
  }
  Status last_error = Status::NotFound("no checkpoint in " + dir_);
  for (const std::string& path : candidates) {
    auto loaded = ReadCheckpoint(path);
    if (loaded.ok()) return loaded;
    last_error = loaded.status();
  }
  return last_error;
}

}  // namespace durable
}  // namespace leopard
