// PersistentStore: snapshot rotation + WAL management over a PersistIo.
//
// Directory layout (one store per directory):
//
//   snap-<seq>.rbpc   the published snapshot for rotation <seq>
//   wal-<seq>.log     the WAL extending snapshot <seq>
//   snap-<seq>.tmp    an unpublished snapshot mid-write (crash debris)
//
// Rotation protocol (rotate()):
//
//   1. write snap-<new>.tmp fully, fsync, close;
//   2. rename snap-<new>.tmp -> snap-<new>.rbpc        <- the publish point
//   3. create wal-<new>.log with its header, fsync;
//   4. remove snap-<old>.rbpc and wal-<old>.log.
//
// Crash-consistency argument: the only step that makes a new snapshot
// visible is the atomic rename in (2), and the old snapshot+WAL are only
// removed in (4), strictly after the new pair is durable. A crash at any
// boundary therefore leaves at least one complete snapshot on disk once
// the first rotation ever finished — before (2) recovery sees only the old
// pair; between (2) and (4) it sees both and prefers the newest decodable
// one; debris (.tmp files, the superseded pair) is swept by the next
// recover(). A crash between (2) and (3) leaves a snapshot with no WAL:
// recover() treats that as an empty WAL and recreates it.
//
// The WAL side: records are framed and CRC'd individually (format.hpp), so
// a crash mid-append leaves a torn tail that scan_wal detects; recover()
// truncates the file back to the valid prefix and counts a warning —
// never a crash. With sync_each_record, a committed append is durable
// before the caller proceeds; without it, a crash loses a suffix of
// appends but never corrupts the prefix.
//
// append_group() writes several records with one write and (with
// sync_each_record) one fsync. Its bytes are exactly those of the same
// records appended one by one, so recovery cannot tell the two apart: a
// crash mid-group leaves a prefix of the group's records (the torn one
// truncated), never a hole.
//
// Thread safety: none — the owner serializes calls (RestorationService
// holds its persist mutex across append/rotate). recover() must be called
// first and once.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "persist/format.hpp"
#include "persist/io.hpp"

namespace rbpc::persist {

struct StoreOptions {
  std::string dir;
  /// fsync after every WAL append call (once per append_group). The crash
  /// sweep runs with this on (a committed reroute is durable); benches may
  /// trade it for throughput.
  bool sync_each_record = true;
};

/// What recover() found on disk.
struct RecoverResult {
  bool found = false;  ///< a decodable snapshot existed
  SnapshotState snapshot;
  std::vector<WalRecord> wal;   ///< valid record prefix of the matching WAL
  bool wal_truncated = false;   ///< a torn/corrupt WAL tail was cut off
  bool wal_rebuilt = false;     ///< WAL header unusable/missing; recreated
  std::size_t snapshots_skipped = 0;  ///< newer but undecodable snapshots
  std::uint64_t wal_bytes = 0;        ///< valid WAL bytes replayed
};

class PersistentStore {
 public:
  /// Does not touch the directory yet; recover() does.
  PersistentStore(PersistIo& io, StoreOptions options);
  ~PersistentStore();

  PersistentStore(const PersistentStore&) = delete;
  PersistentStore& operator=(const PersistentStore&) = delete;

  /// Scans the directory, loads the newest decodable snapshot, replays and
  /// (if torn) truncates its WAL, sweeps debris, and leaves the WAL open
  /// for append. When nothing decodable exists the store has no current
  /// snapshot: call rotate() with the initial state before append().
  RecoverResult recover();

  /// Appends one record to the current WAL (fsync per StoreOptions).
  void append(const WalRecord& rec);
  /// Appends `recs` in order with one encode buffer, one write and at most
  /// one fsync. Counters move as for recs.size() single appends.
  void append_group(std::span<const WalRecord> recs);

  /// Publishes `state` as the new snapshot via the rotation protocol above
  /// and starts a fresh WAL. Returns the assigned sequence number.
  std::uint64_t rotate(SnapshotState state);

  bool has_snapshot() const { return seq_ != 0; }
  std::uint64_t records_since_rotate() const { return records_since_; }

  // Local counters (also mirrored into the persist.* registry families).
  std::uint64_t appends() const { return appends_; }
  std::uint64_t bytes_appended() const { return bytes_appended_; }
  std::uint64_t rotations() const { return rotations_; }

  /// Removes every store file in `dir` (fresh-start helper for benches and
  /// tests; missing dir is fine).
  static void wipe(PersistIo& io, const std::string& dir);

 private:
  std::string snap_path(std::uint64_t seq, bool tmp) const;
  std::string wal_path(std::uint64_t seq) const;
  /// Creates wal-<seq>.log from scratch with a synced header.
  void open_fresh_wal(std::uint64_t seq);

  PersistIo& io_;
  StoreOptions options_;
  std::unique_ptr<PersistIo::Stream> wal_;
  std::uint64_t seq_ = 0;       ///< current snapshot (0 = none yet)
  std::uint64_t next_seq_ = 1;  ///< never reuses a sequence seen on disk
  bool recovered_ = false;
  std::uint64_t records_since_ = 0;
  std::uint64_t appends_ = 0;
  std::uint64_t bytes_appended_ = 0;
  std::uint64_t rotations_ = 0;
  std::vector<std::uint8_t> encode_buf_;  ///< reused by every append
};

}  // namespace rbpc::persist
