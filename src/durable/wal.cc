#include "durable/wal.h"

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

constexpr char kMagic[8] = {'L', 'E', 'O', 'W', 'A', 'L', '0', '1'};
constexpr size_t kHeaderBytes = 16;  // magic + u64 first_seq
constexpr size_t kFooterBytes = 8;   // 0xFF 'C' 'R' 'C' + u32 crc32
constexpr char kFooterSentinel[4] = {'\xFF', 'C', 'R', 'C'};

std::string SegmentName(uint64_t first_seq) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "seg-%020" PRIu64 ".wal", first_seq);
  return buf;
}

/// Lists `dir`'s segment files as (first_seq, path), sorted by first_seq.
/// The zero-padded names make lexical and numeric order agree, but the seq
/// is parsed back out so a stray file cannot reorder the log.
std::vector<std::pair<uint64_t, std::string>> ListSegments(
    const std::string& dir) {
  std::vector<std::pair<uint64_t, std::string>> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const auto& entry : it) {
    const std::string name = entry.path().filename().string();
    uint64_t seq = 0;
    if (std::sscanf(name.c_str(), "seg-%" SCNu64 ".wal", &seq) == 1) {
      out.emplace_back(seq, entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

bool HasFooter(const std::string& bytes) {
  return bytes.size() >= kHeaderBytes + kFooterBytes &&
         std::memcmp(bytes.data() + bytes.size() - kFooterBytes,
                     kFooterSentinel, sizeof(kFooterSentinel)) == 0;
}

void AppendU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

/// The seal: footer sentinel + the CRC32 of every preceding segment byte.
std::string Footer(uint32_t crc) {
  std::string footer(kFooterSentinel, sizeof(kFooterSentinel));
  StateWriter(footer).PutU32(crc);
  return footer;
}

}  // namespace

WalWriter::~WalWriter() {
  if (file_ != nullptr) {
    std::fflush(file_);
    std::fclose(file_);
  }
}

Status WalWriter::Open(const std::string& dir, uint64_t next_seq,
                       const Options& options) {
  dir_ = dir;
  options_ = options;
  next_seq_ = next_seq;
  Status s = EnsureDir(dir_);
  if (!s.ok()) return s;

  // Seal whatever the previous incarnation left active (its torn tail was
  // already truncated by WalReplay), so this incarnation's entries start a
  // fresh segment and every sealed segment is CRC-covered.
  auto segments = ListSegments(dir_);
  segment_count_ = segments.size();
  if (!segments.empty()) {
    const std::string& last = segments.back().second;
    auto bytes = ReadFileToString(last);
    if (!bytes.ok()) return bytes.status();
    if (!HasFooter(*bytes)) {
      if (bytes->size() <= kHeaderBytes) {
        // Empty active segment: reuse its name rather than sealing a
        // zero-entry file (the next segment would collide on first_seq).
        std::error_code ec;
        std::filesystem::remove(last, ec);
        --segment_count_;
      } else {
        // The previous process's running CRC died with it: read it back.
        const uint32_t crc = Crc32(bytes->data(), bytes->size());
        s = WriteFileAtomic(last, *bytes + Footer(crc));
        if (!s.ok()) return s;
      }
    }
  }
  return OpenSegment();
}

Status WalWriter::OpenSegment() {
  segment_path_ = dir_ + "/" + SegmentName(next_seq_);
  file_ = std::fopen(segment_path_.c_str(), "wb");
  if (file_ == nullptr) {
    return Status::Internal("cannot create WAL segment " + segment_path_);
  }
  std::string header(kMagic, sizeof(kMagic));
  AppendU64(header, next_seq_);
  if (std::fwrite(header.data(), 1, header.size(), file_) != header.size() ||
      std::fflush(file_) != 0) {
    return Status::Internal("cannot write WAL header to " + segment_path_);
  }
  segment_size_ = header.size();
  segment_crc_ = Crc32(header.data(), header.size());
  ++segment_count_;
  return Status::Ok();
}

Status WalWriter::AppendAddClient(ClientId client) {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  pending_.push_back(static_cast<char>(WalEntry::Kind::kAddClient));
  for (int i = 0; i < 4; ++i) {
    pending_.push_back(static_cast<char>((client >> (8 * i)) & 0xff));
  }
  ++next_seq_;
  return Status::Ok();
}

Status WalWriter::AppendTrace(const Trace& trace) {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  pending_.push_back(static_cast<char>(WalEntry::Kind::kTrace));
  AppendTraceRecord(pending_, trace);
  ++next_seq_;
  return Status::Ok();
}

Status WalWriter::FlushPending() {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  if (!pending_.empty()) {
    if (std::fwrite(pending_.data(), 1, pending_.size(), file_) !=
        pending_.size()) {
      return Status::Internal("WAL write error on " + segment_path_);
    }
    segment_size_ += pending_.size();
    segment_crc_ = Crc32Update(segment_crc_, pending_.data(), pending_.size());
    bytes_appended_ += pending_.size();
    pending_.clear();
  }
  if (std::fflush(file_) != 0) {
    return Status::Internal("WAL flush error on " + segment_path_);
  }
  return Status::Ok();
}

Status WalWriter::Sync() {
  Status s = FlushPending();
  if (!s.ok()) return s;
  if (segment_size_ >= options_.segment_bytes) return Rotate();
  return Status::Ok();
}

Status WalWriter::Rotate() {
  if (file_ == nullptr) return Status::FailedPrecondition("WAL not open");
  if (segment_size_ <= kHeaderBytes && pending_.empty()) {
    return Status::Ok();  // nothing in the active segment yet
  }
  Status s = FlushPending();
  if (!s.ok()) return s;
  s = SealActive();
  if (!s.ok()) return s;
  return OpenSegment();
}

Status WalWriter::SealActive() {
  const std::string footer = Footer(segment_crc_);
  const bool ok =
      std::fwrite(footer.data(), 1, footer.size(), file_) == footer.size() &&
      std::fflush(file_) == 0;
  std::fclose(file_);
  file_ = nullptr;
  if (!ok) return Status::Internal("cannot seal " + segment_path_);
  return Status::Ok();
}

size_t WalWriter::RemoveSegmentsBelow(uint64_t seq) {
  auto segments = ListSegments(dir_);
  size_t removed = 0;
  // Segment i's entries all precede segment i+1's first_seq, so i is fully
  // below `seq` exactly when its successor starts at or below it. The
  // active segment (last) is never removed.
  for (size_t i = 0; i + 1 < segments.size(); ++i) {
    if (segments[i + 1].first > seq) break;
    if (segments[i].second == segment_path_) break;
    std::error_code ec;
    if (std::filesystem::remove(segments[i].second, ec) && !ec) {
      ++removed;
      --segment_count_;
    }
  }
  return removed;
}

Status WalReplay(const std::string& dir, uint64_t from_seq,
                 const std::function<Status(const WalEntry&)>& fn,
                 WalReplayStats* stats, bool truncate_torn) {
  WalReplayStats local;
  WalReplayStats& st = stats != nullptr ? *stats : local;
  st = WalReplayStats{};
  st.next_seq = from_seq;
  auto segments = ListSegments(dir);
  if (segments.empty()) return Status::Ok();
  if (segments.front().first > from_seq) {
    // Earlier segments were garbage-collected past the requested replay
    // point — the surviving log cannot reconstruct the state.
    return Status::FailedPrecondition(
        "WAL starts at sequence " + std::to_string(segments.front().first) +
        ", after the requested replay point " + std::to_string(from_seq));
  }

  uint64_t expected_first = segments.front().first;
  for (size_t i = 0; i < segments.size(); ++i) {
    const auto& [first_seq, path] = segments[i];
    if (first_seq != expected_first) {
      return Status::Internal("WAL gap: segment starting at " +
                              std::to_string(expected_first) +
                              " is missing (found " + path + ")");
    }
    auto bytes_or = ReadFileToString(path);
    if (!bytes_or.ok()) return bytes_or.status();
    std::string& bytes = *bytes_or;
    ++st.segments_read;
    if (bytes.size() < kHeaderBytes ||
        std::memcmp(bytes.data(), kMagic, sizeof(kMagic)) != 0) {
      return Status::InvalidArgument("bad WAL segment header: " + path);
    }
    {
      StateReader header(bytes, sizeof(kMagic));
      uint64_t hdr_seq = 0;
      Status s = header.GetU64(hdr_seq);
      if (!s.ok() || hdr_seq != first_seq) {
        return Status::InvalidArgument(
            "WAL segment name/header sequence mismatch: " + path);
      }
    }

    const bool sealed = HasFooter(bytes);
    const bool last = i + 1 == segments.size();
    if (!sealed && !last) {
      return Status::InvalidArgument(
          "unsealed WAL segment before the end of the log: " + path);
    }
    size_t end = bytes.size();
    if (sealed) {
      end -= kFooterBytes;
      uint32_t stored = 0;
      for (int b = 0; b < 4; ++b) {
        stored |= static_cast<uint32_t>(
                      static_cast<uint8_t>(bytes[end + 4 + b]))
                  << (8 * b);
      }
      if (Crc32(bytes.data(), end) != stored) {
        return Status::InvalidArgument("WAL segment CRC mismatch: " + path);
      }
    }

    size_t pos = kHeaderBytes;
    uint64_t seq = first_seq;
    while (pos < end) {
      const size_t entry_start = pos;
      const uint8_t kind = static_cast<uint8_t>(bytes[pos]);
      WalEntry entry;
      entry.seq = seq;
      Status decoded = Status::Ok();
      if (kind == static_cast<uint8_t>(WalEntry::Kind::kAddClient)) {
        if (end - pos < 5) {
          decoded = Status::InvalidArgument("truncated AddClient entry");
        } else {
          entry.kind = WalEntry::Kind::kAddClient;
          entry.client = 0;
          for (int b = 0; b < 4; ++b) {
            entry.client |= static_cast<ClientId>(
                                static_cast<uint8_t>(bytes[pos + 1 + b]))
                            << (8 * b);
          }
          pos += 5;
        }
      } else if (kind == static_cast<uint8_t>(WalEntry::Kind::kTrace)) {
        ++pos;
        entry.kind = WalEntry::Kind::kTrace;
        decoded = DecodeTraceRecord(bytes, pos, entry.trace);
      } else {
        decoded = Status::InvalidArgument("unknown WAL entry kind " +
                                          std::to_string(kind));
      }
      if (!decoded.ok()) {
        if (sealed) {
          return Status::InvalidArgument("corrupt entry in sealed segment " +
                                         path + ": " + decoded.message());
        }
        // Torn tail of the active segment: the crash landed mid-append.
        // Truncate to the last whole entry so the writer can seal cleanly.
        st.torn_bytes = bytes.size() - entry_start;
        if (truncate_torn) {
          std::error_code ec;
          std::filesystem::resize_file(path, entry_start, ec);
          if (ec) {
            return Status::Internal("cannot truncate torn WAL tail of " +
                                    path + ": " + ec.message());
          }
        }
        break;
      }
      if (seq >= from_seq) {
        Status s = fn(entry);
        if (!s.ok()) return s;
        ++st.entries_replayed;
      } else {
        ++st.entries_skipped;
      }
      ++seq;
    }
    expected_first = seq;
    st.next_seq = seq;
  }
  if (st.next_seq < from_seq) {
    return Status::FailedPrecondition(
        "WAL ends at sequence " + std::to_string(st.next_seq) +
        ", before the checkpoint cut " + std::to_string(from_seq));
  }
  return Status::Ok();
}

}  // namespace durable
}  // namespace leopard
