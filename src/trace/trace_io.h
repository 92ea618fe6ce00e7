#ifndef LEOPARD_TRACE_TRACE_IO_H_
#define LEOPARD_TRACE_TRACE_IO_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "trace/trace.h"

namespace leopard {

/// Binary trace-log serialization, so traces collected on client machines
/// can be shipped to and replayed by an offline verifier.
///
/// File layout: an 8-byte magic/version header, then one record per trace:
///   u8 op | u32 client | u64 txn | u64 ts_bef | u64 ts_aft |
///   u32 n_reads  { u64 key | u64 value } *
///   u32 n_writes { u64 key | u64 value } *
/// followed by an 8-byte integrity footer:
///   0xFF 'C' 'R' 'C' | u32 crc32
/// where crc32 (reflected, poly 0xEDB88320) covers every preceding byte.
/// The 0xFF sentinel cannot begin a record (op codes are <= 3), so the
/// footer is unambiguous. Files written before the footer existed decode
/// fine — the reader warns and skips verification. A present-but-wrong
/// checksum is a hard error. All integers little-endian.
///
/// Writers append traces of ONE client stream per file (ts_bef
/// non-decreasing), matching how the tracer collects them.

/// Writes `traces` to `path`, replacing any existing file.
Status WriteTraceFile(const std::string& path,
                      const std::vector<Trace>& traces);

/// Reads a trace file written by WriteTraceFile.
StatusOr<std::vector<Trace>> ReadTraceFile(const std::string& path);

/// In-memory encode/decode used by the file functions (and tests).
/// EncodeTraces appends the CRC32 footer; DecodeTraces verifies it when
/// present (sets *had_crc accordingly) and fails on a mismatch.
std::string EncodeTraces(const std::vector<Trace>& traces);

struct DecodeOptions {
  /// Reject a stream with no (or a truncated) CRC32 footer instead of
  /// treating it as a pre-CRC legacy file. Durable readers (WAL segments,
  /// checkpoint sections) set this: for them a missing footer means the
  /// file was truncated past a record boundary, not written by an old tool.
  bool require_crc = false;
};

StatusOr<std::vector<Trace>> DecodeTraces(const std::string& bytes,
                                          bool* had_crc = nullptr);
StatusOr<std::vector<Trace>> DecodeTraces(const std::string& bytes,
                                          const DecodeOptions& options,
                                          bool* had_crc = nullptr);

/// CRC32 (reflected, poly 0xEDB88320) used by the trace-file footer.
uint32_t Crc32(const char* data, size_t n);

/// Streaming form of Crc32: extends `crc`, the CRC of some prefix (0 for
/// the empty one), by `n` more bytes. Crc32Update(Crc32(a), b) equals the
/// CRC of a followed by b, so a writer can checksum a file as it appends.
uint32_t Crc32Update(uint32_t crc, const char* data, size_t n);

/// Record-level codec shared by the file format above and the network wire
/// protocol (src/net/wire): one trace record, no file header.
void AppendTraceRecord(std::string& out, const Trace& t);

/// Decodes one record from `bytes` starting at `pos`, advancing `pos` past
/// the record on success. Validates the op code, flags and set sizes
/// against the remaining bytes, so a corrupt length fails cleanly instead
/// of allocating gigabytes or yielding a partially-parsed trace.
Status DecodeTraceRecord(const std::string& bytes, size_t& pos, Trace& out);

}  // namespace leopard

#endif  // LEOPARD_TRACE_TRACE_IO_H_
