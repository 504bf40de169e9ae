// On-disk format of the crash-safe persistence plane (DESIGN.md §14).
//
// Two artifact kinds, both little-endian, both checksummed:
//
//  * Snapshot: one self-contained image of the control-plane state — the
//    LSDB link records with their LSA generations, the installed FEC table
//    (every demand's current route) stored in the arena pad-slot layout of
//    graph::PathArena, and the snapshot sequence number. Baselines are not
//    stored: recovery re-provisions them. Framed as magic (which carries the format version) + u64
//    payload length + payload + CRC32 over the payload. A snapshot is only ever published whole
//    (temp file + atomic rename, see store.hpp), so any framing or CRC
//    mismatch means corruption and decode_snapshot throws RecoveryError.
//
//  * WAL: a header (magic + the sequence number of the snapshot it
//    extends) followed by append-only records, each framed as
//    u32 length | payload | u32 CRC32 over (length || payload). Including
//    the length field under the CRC means a record cannot lie about its
//    own extent: a bit flip in either the length or the payload fails the
//    checksum. A crash mid-append leaves a torn tail — scan_wal stops at
//    the first record that does not check out and reports how many bytes
//    were valid, so recovery can truncate-and-warn instead of crashing.
//
// Decoders never trust input: every read is bounds-checked (BufReader
// throws RecoveryError on overrun), counts are validated against the
// remaining byte budget before any allocation, and path references are
// checked against the arena extent. tests/test_io_fuzz.cpp feeds
// truncated, bit-flipped and length-lying images under ASan/UBSan to hold
// the "clean RecoveryError, never UB" contract.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "graph/path_arena.hpp"
#include "graph/types.hpp"
#include "lsdb/lsdb.hpp"
#include "util/error.hpp"

namespace rbpc::persist {

/// Thrown when persisted state cannot be decoded (corrupt, truncated or
/// incompatible). Recovery treats a RecoveryError from a snapshot as "try
/// the previous one" and from a WAL tail as "truncate and warn"; it is
/// never fatal to the process.
class RecoveryError : public Error {
 public:
  explicit RecoveryError(const std::string& what) : Error(what) {}
};

/// Thrown on I/O syscall failures (open/write/fsync/rename). Distinct from
/// RecoveryError: an IoError on the write path is an environment problem,
/// not corrupt state.
class IoError : public Error {
 public:
  explicit IoError(const std::string& what) : Error(what) {}
};

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `len` bytes.
/// `seed` chains incremental computations: crc32(b, n) ==
/// crc32(b + k, n - k, crc32(b, k)).
std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed = 0);

// --- Bounded little-endian readers/writers ---------------------------------

class BufWriter {
 public:
  BufWriter() = default;
  /// Appends after the bytes already in `bytes` (take() hands them back).
  explicit BufWriter(std::vector<std::uint8_t> bytes)
      : bytes_(std::move(bytes)) {}

  void u8(std::uint8_t v) { bytes_.push_back(v); }
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void raw(const void* data, std::size_t len);
  void u32_span(std::span<const std::uint32_t> vs);

  const std::vector<std::uint8_t>& bytes() const { return bytes_; }
  std::vector<std::uint8_t> take() { return std::move(bytes_); }

 private:
  std::vector<std::uint8_t> bytes_;
};

/// Throws RecoveryError on any out-of-range read — the single choke point
/// that makes every decoder memory-safe on adversarial input.
class BufReader {
 public:
  explicit BufReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t u8();
  std::uint32_t u32();
  std::uint64_t u64();
  void u32_into(std::vector<std::uint32_t>& out, std::size_t count);

  std::size_t remaining() const { return bytes_.size() - pos_; }
  std::size_t pos() const { return pos_; }

 private:
  void need(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t pos_ = 0;
};

// --- Snapshot --------------------------------------------------------------

/// One demand's persisted FEC entry. Paths are PathRef handles into the
/// snapshot's arena section; an empty ref (len == 0) is "no route".
struct DemandRecord {
  std::uint32_t src = 0;
  std::uint32_t dst = 0;
  std::uint64_t stamp = 0;  ///< snapshot version of the last install
  graph::PathRef route;
};

/// The full control-plane image a snapshot file carries. `links` holds only
/// touched edges (down or nonzero generation); replaying them through
/// generation-gated apply reconstructs the LSDB (and hence the failure
/// mask) exactly. `arena_nodes`/`arena_edges` are the PathArena pad-slot
/// arrays the DemandRecord refs index into.
struct SnapshotState {
  std::uint64_t seq = 0;        ///< rotation sequence number
  std::uint32_t num_edges = 0;  ///< edge-id universe (compatibility check)
  std::vector<lsdb::LinkStateRecord> links;
  std::vector<DemandRecord> demands;
  std::vector<std::uint32_t> arena_nodes;
  std::vector<std::uint32_t> arena_edges;
};

std::vector<std::uint8_t> encode_snapshot(const SnapshotState& s);
/// Decodes and fully validates a snapshot image (framing, CRC, counts,
/// arena alignment, path-ref bounds). Throws RecoveryError on any defect.
SnapshotState decode_snapshot(std::span<const std::uint8_t> bytes);

// --- WAL -------------------------------------------------------------------

enum class WalType : std::uint8_t {
  kLinkEvent = 1,  ///< one applied LSA
  kFecInstall = 2, ///< one committed reroute (route change)
};

struct WalFecInstall {
  std::uint32_t demand = 0;
  std::uint64_t stamp = 0;
  std::vector<std::uint32_t> nodes;  ///< empty = "no route" installed
  std::vector<std::uint32_t> edges;  ///< nodes.size() - 1 entries (0 if empty)
};

/// Tagged union of the record kinds (plain struct; `type` selects which
/// member is meaningful).
struct WalRecord {
  WalType type = WalType::kLinkEvent;
  lsdb::LinkEvent link;
  WalFecInstall fec;
};

std::vector<std::uint8_t> encode_wal_header(std::uint64_t snapshot_seq);
std::vector<std::uint8_t> encode_wal_record(const WalRecord& rec);
/// Appends rec's framed image to `out` (the bytes encode_wal_record
/// returns). A group append encodes every record into one buffer this way.
void encode_wal_record_into(const WalRecord& rec,
                            std::vector<std::uint8_t>& out);

/// Result of scanning a WAL image: the valid record prefix plus where it
/// ended. `truncated` is true when a torn/corrupt tail was detected past
/// `valid_bytes` (the caller truncates the file there and keeps going).
struct WalScan {
  std::uint64_t snapshot_seq = 0;
  std::vector<WalRecord> records;
  std::uint64_t valid_bytes = 0;  ///< header + intact records
  bool truncated = false;
};

/// Scans a WAL image, stopping at the first record that fails framing, CRC
/// or payload validation. Throws RecoveryError only when the *header* is
/// unreadable (the file is unusable as a WAL at all); torn tails are
/// reported, not thrown.
WalScan scan_wal(std::span<const std::uint8_t> bytes);

/// On-disk identification. Snapshot format 2 dropped v1's per-demand
/// baseline refs and LSDB version; a v1 image fails the magic check.
inline constexpr char kSnapshotMagic[8] = {'R', 'B', 'P', 'C',
                                           'S', 'N', 'P', '2'};
inline constexpr char kWalMagic[8] = {'R', 'B', 'P', 'C', 'W', 'A', 'L', '1'};
inline constexpr std::uint64_t kWalHeaderBytes = 16;  ///< magic + u64 seq
/// Upper bound on one WAL record's payload — rejects absurd lengths before
/// any allocation (a million-hop path is ~8 MiB; this leaves headroom).
inline constexpr std::uint32_t kMaxWalRecordBytes = 1u << 26;

}  // namespace rbpc::persist
