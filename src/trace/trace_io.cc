#include "trace/trace_io.h"

#include <array>
#include <cstdio>
#include <cstring>
#include <fstream>

namespace leopard {

namespace {

constexpr char kMagic[8] = {'L', 'E', 'O', 'T', 'R', 'C', '0', '2'};

/// Footer sentinel: 0xFF can never start a record (op codes are <= 3).
constexpr char kCrcSentinel[4] = {'\xff', 'C', 'R', 'C'};
constexpr size_t kCrcFooterBytes = 8;  // sentinel + u32 checksum

/// Hard ceiling on read/write/absent set sizes. Every entry costs at least
/// 8 bytes on the wire, so any count beyond this is a corrupt or hostile
/// length field, not a real trace.
constexpr uint32_t kMaxSetEntries = 1u << 24;

void PutU8(std::string& out, uint8_t v) {
  out.push_back(static_cast<char>(v));
}
void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}
void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

class Reader {
 public:
  Reader(const std::string& bytes, size_t start)
      : bytes_(bytes), pos_(start) {}

  bool GetU8(uint8_t& v) {
    if (pos_ + 1 > bytes_.size()) return false;
    v = static_cast<uint8_t>(bytes_[pos_++]);
    return true;
  }
  bool GetU32(uint32_t& v) {
    if (pos_ + 4 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(bytes_[pos_++]))
           << (8 * i);
    }
    return true;
  }
  bool GetU64(uint64_t& v) {
    if (pos_ + 8 > bytes_.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(bytes_[pos_++]))
           << (8 * i);
    }
    return true;
  }
  /// True when a count field claiming `n` entries of `entry_bytes` each can
  /// still fit in the remaining input — checked *before* reserving, so an
  /// absurd length cannot trigger a huge allocation.
  bool CountFits(uint32_t n, size_t entry_bytes) const {
    return n <= kMaxSetEntries &&
           static_cast<uint64_t>(n) * entry_bytes <= bytes_.size() - pos_;
  }
  size_t pos() const { return pos_; }
  bool Done() const { return pos_ == bytes_.size(); }

 private:
  const std::string& bytes_;
  size_t pos_ = 0;
};

/// Slicing-by-8 tables for the reflected polynomial 0xEDB88320: kCrc[0] is
/// the classic bytewise table, kCrc[k][b] the CRC of byte b followed by k
/// zero bytes, so one lookup per byte of an 8-byte word folds the word in.
using Crc32Tables = std::array<std::array<uint32_t, 256>, 8>;

constexpr Crc32Tables MakeCrc32Tables() {
  Crc32Tables t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : c >> 1;
    t[0][i] = c;
  }
  for (size_t k = 1; k < t.size(); ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFF];
    }
  }
  return t;
}

constexpr Crc32Tables kCrc = MakeCrc32Tables();

uint32_t LoadLe32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32Update(uint32_t crc, const char* data, size_t n) {
  const auto* p = reinterpret_cast<const unsigned char*>(data);
  uint32_t c = ~crc;
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = c ^ LoadLe32(p);
    const uint32_t hi = LoadLe32(p + 4);
    c = kCrc[7][lo & 0xFF] ^ kCrc[6][(lo >> 8) & 0xFF] ^
        kCrc[5][(lo >> 16) & 0xFF] ^ kCrc[4][lo >> 24] ^
        kCrc[3][hi & 0xFF] ^ kCrc[2][(hi >> 8) & 0xFF] ^
        kCrc[1][(hi >> 16) & 0xFF] ^ kCrc[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) c = kCrc[0][(c ^ *p) & 0xFF] ^ (c >> 8);
  return ~c;
}

uint32_t Crc32(const char* data, size_t n) { return Crc32Update(0, data, n); }

// Bit 0x04 of the op byte flags an isolation-level tail: one u8 isolation
// level after the range footer. Emitted only for non-SERIALIZABLE traces, so
// an all-SER (or legacy) history encodes byte-identically to the pre-IL
// format and old decoders keep reading it. Op codes occupy the low two bits;
// 0xFF still unambiguously starts the CRC footer.
constexpr uint8_t kOpIlFlag = 0x04;

void AppendTraceRecord(std::string& out, const Trace& t) {
  const bool tagged = t.il != IsolationLevel::kSerializable;
  PutU8(out, static_cast<uint8_t>(t.op) | (tagged ? kOpIlFlag : 0));
  PutU32(out, t.client);
  PutU64(out, t.txn);
  PutU64(out, t.ts_bef());
  PutU64(out, t.ts_aft());
  PutU32(out, static_cast<uint32_t>(t.read_set.size()));
  for (const auto& r : t.read_set) {
    PutU64(out, r.key);
    PutU64(out, r.value);
  }
  PutU32(out, static_cast<uint32_t>(t.write_set.size()));
  for (const auto& w : t.write_set) {
    PutU64(out, w.key);
    PutU64(out, w.value);
  }
  PutU32(out, static_cast<uint32_t>(t.absent_reads.size()));
  for (Key k : t.absent_reads) PutU64(out, k);
  PutU8(out, t.for_update ? 1 : 0);
  PutU64(out, t.range_first);
  PutU32(out, t.range_count);
  if (tagged) PutU8(out, static_cast<uint8_t>(t.il));
}

Status DecodeTraceRecord(const std::string& bytes, size_t& pos, Trace& out) {
  Reader reader(bytes, pos);
  Trace t;
  uint8_t op = 0;
  uint32_t client = 0;
  uint64_t txn = 0, bef = 0, aft = 0;
  uint32_t n = 0;
  if (!reader.GetU8(op) || !reader.GetU32(client) || !reader.GetU64(txn) ||
      !reader.GetU64(bef) || !reader.GetU64(aft)) {
    return Status::InvalidArgument("truncated trace header");
  }
  if ((op & ~kOpIlFlag) > 3) return Status::InvalidArgument("invalid op code");
  const bool tagged = (op & kOpIlFlag) != 0;
  t.op = static_cast<OpType>(op & ~kOpIlFlag);
  t.client = client;
  t.txn = txn;
  t.interval = {bef, aft};
  if (!reader.GetU32(n)) return Status::InvalidArgument("truncated reads");
  if (!reader.CountFits(n, 16)) {
    return Status::InvalidArgument("absurd read-set length");
  }
  t.read_set.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    ReadAccess r;
    if (!reader.GetU64(r.key) || !reader.GetU64(r.value)) {
      return Status::InvalidArgument("truncated read entry");
    }
    t.read_set.push_back(r);
  }
  if (!reader.GetU32(n)) {
    return Status::InvalidArgument("truncated writes");
  }
  if (!reader.CountFits(n, 16)) {
    return Status::InvalidArgument("absurd write-set length");
  }
  t.write_set.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    WriteAccess w;
    if (!reader.GetU64(w.key) || !reader.GetU64(w.value)) {
      return Status::InvalidArgument("truncated write entry");
    }
    t.write_set.push_back(w);
  }
  if (!reader.GetU32(n)) {
    return Status::InvalidArgument("truncated absent reads");
  }
  if (!reader.CountFits(n, 8)) {
    return Status::InvalidArgument("absurd absent-read length");
  }
  t.absent_reads.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    Key k = 0;
    if (!reader.GetU64(k)) {
      return Status::InvalidArgument("truncated absent key");
    }
    t.absent_reads.push_back(k);
  }
  uint8_t for_update = 0;
  if (!reader.GetU8(for_update) || !reader.GetU64(t.range_first) ||
      !reader.GetU32(t.range_count)) {
    return Status::InvalidArgument("truncated trace footer");
  }
  if (for_update > 1) return Status::InvalidArgument("invalid for_update flag");
  t.for_update = for_update != 0;
  if (tagged) {
    uint8_t il = 0;
    if (!reader.GetU8(il)) {
      return Status::InvalidArgument("truncated isolation tail");
    }
    if (il > static_cast<uint8_t>(IsolationLevel::kSerializable)) {
      return Status::InvalidArgument("invalid isolation level");
    }
    t.il = static_cast<IsolationLevel>(il);
  }
  pos = reader.pos();
  out = std::move(t);
  return Status::Ok();
}

std::string EncodeTraces(const std::vector<Trace>& traces) {
  std::string out(kMagic, sizeof(kMagic));
  for (const Trace& t : traces) AppendTraceRecord(out, t);
  const uint32_t crc = Crc32(out.data(), out.size());
  out.append(kCrcSentinel, sizeof(kCrcSentinel));
  PutU32(out, crc);
  return out;
}

StatusOr<std::vector<Trace>> DecodeTraces(const std::string& bytes,
                                          bool* had_crc) {
  return DecodeTraces(bytes, DecodeOptions{}, had_crc);
}

StatusOr<std::vector<Trace>> DecodeTraces(const std::string& bytes,
                                          const DecodeOptions& options,
                                          bool* had_crc) {
  if (had_crc != nullptr) *had_crc = false;
  if (bytes.size() < sizeof(kMagic) ||
      std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::InvalidArgument("not a leopard trace file");
  }
  size_t pos = sizeof(kMagic);
  std::vector<Trace> out;
  while (pos < bytes.size()) {
    const size_t left = bytes.size() - pos;
    if (static_cast<uint8_t>(bytes[pos]) == 0xFF) {
      // 0xFF can only start the footer sentinel (op codes are <= 3), so
      // anything other than a complete, matching footer here is a file cut
      // mid-footer — integrity is unverifiable, never "legacy".
      if (left < kCrcFooterBytes ||
          std::memcmp(bytes.data() + pos, kCrcSentinel,
                      sizeof(kCrcSentinel)) != 0) {
        return Status::InvalidArgument(
            "truncated integrity footer (partial CRC sentinel at byte " +
            std::to_string(pos) + ")");
      }
      if (left > kCrcFooterBytes) {
        return Status::InvalidArgument("bytes after integrity footer");
      }
      uint32_t stored = 0;
      for (int i = 0; i < 4; ++i) {
        stored |= static_cast<uint32_t>(static_cast<uint8_t>(
                      bytes[pos + sizeof(kCrcSentinel) + i]))
                  << (8 * i);
      }
      const uint32_t computed = Crc32(bytes.data(), pos);
      if (stored != computed) {
        return Status::InvalidArgument("trace file checksum mismatch");
      }
      if (had_crc != nullptr) *had_crc = true;
      return out;
    }
    Trace t;
    Status s = DecodeTraceRecord(bytes, pos, t);
    if (!s.ok()) {
      return Status::InvalidArgument(
          s.message() + " (record " + std::to_string(out.size()) +
          " at byte " + std::to_string(pos) + ")");
    }
    out.push_back(std::move(t));
  }
  if (options.require_crc) {
    // A WAL/checkpoint stream always ends in a footer; its absence means
    // the tail was sliced off exactly at a record boundary.
    return Status::InvalidArgument(
        "missing integrity footer (file truncated at a record boundary?)");
  }
  return out;  // legacy file: no footer, nothing to verify
}

Status WriteTraceFile(const std::string& path,
                      const std::vector<Trace>& traces) {
  std::ofstream file(path, std::ios::binary | std::ios::trunc);
  if (!file) return Status::Internal("cannot open " + path + " for write");
  std::string bytes = EncodeTraces(traces);
  file.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!file) return Status::Internal("short write to " + path);
  return Status::Ok();
}

StatusOr<std::vector<Trace>> ReadTraceFile(const std::string& path) {
  std::ifstream file(path, std::ios::binary);
  if (!file) return Status::NotFound(path + ": cannot open");
  std::string bytes((std::istreambuf_iterator<char>(file)),
                    std::istreambuf_iterator<char>());
  bool had_crc = false;
  auto traces = DecodeTraces(bytes, &had_crc);
  if (!traces.ok()) {
    return Status(traces.status().code(),
                  path + ": " + traces.status().message());
  }
  if (!had_crc) {
    std::fprintf(stderr,
                 "[trace_io] warning: %s has no integrity footer "
                 "(pre-CRC writer); skipping checksum verification\n",
                 path.c_str());
  }
  return traces;
}

}  // namespace leopard
