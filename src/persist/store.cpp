#include "persist/store.hpp"

#include <algorithm>
#include <charconv>
#include <optional>
#include <utility>

#include "obs/metrics.hpp"
#include "util/error.hpp"

namespace rbpc::persist {

namespace {

obs::MetricsRegistry& registry() { return obs::MetricsRegistry::global(); }

/// Parses "<prefix><seq><suffix>" file names; nullopt when `name` does not
/// match. Recovery must never trust file names blindly — a stray file in
/// the directory is ignored, not a crash.
std::optional<std::uint64_t> parse_seq(const std::string& name,
                                       const std::string& prefix,
                                       const std::string& suffix) {
  if (name.size() <= prefix.size() + suffix.size()) return std::nullopt;
  if (name.compare(0, prefix.size(), prefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix.size(), suffix.size(), suffix) != 0) {
    return std::nullopt;
  }
  const char* first = name.data() + prefix.size();
  const char* last = name.data() + name.size() - suffix.size();
  std::uint64_t seq = 0;
  const auto [ptr, ec] = std::from_chars(first, last, seq);
  if (ec != std::errc{} || ptr != last || seq == 0) return std::nullopt;
  return seq;
}

}  // namespace

PersistentStore::PersistentStore(PersistIo& io, StoreOptions options)
    : io_(io), options_(std::move(options)) {
  require(!options_.dir.empty(), "PersistentStore: empty directory");
}

PersistentStore::~PersistentStore() = default;

std::string PersistentStore::snap_path(std::uint64_t seq, bool tmp) const {
  return options_.dir + "/snap-" + std::to_string(seq) +
         (tmp ? ".tmp" : ".rbpc");
}

std::string PersistentStore::wal_path(std::uint64_t seq) const {
  return options_.dir + "/wal-" + std::to_string(seq) + ".log";
}

RecoverResult PersistentStore::recover() {
  require(!recovered_, "PersistentStore::recover: called twice");
  recovered_ = true;
  io_.make_dirs(options_.dir);

  std::vector<std::uint64_t> snaps;
  std::vector<std::string> debris;  // .tmp files and unknown-but-ours names
  for (const std::string& name : io_.list_dir(options_.dir)) {
    if (const auto seq = parse_seq(name, "snap-", ".rbpc")) {
      snaps.push_back(*seq);
      next_seq_ = std::max(next_seq_, *seq + 1);
    } else if (const auto wseq = parse_seq(name, "wal-", ".log")) {
      next_seq_ = std::max(next_seq_, *wseq + 1);
    } else if (const auto tseq = parse_seq(name, "snap-", ".tmp")) {
      debris.push_back(name);
      next_seq_ = std::max(next_seq_, *tseq + 1);
    }
    // Anything else in the directory is not ours; leave it alone.
  }
  std::sort(snaps.rbegin(), snaps.rend());

  RecoverResult res;
  std::vector<std::uint8_t> bytes;
  for (const std::uint64_t seq : snaps) {
    if (!io_.read_file(snap_path(seq, false), bytes)) continue;
    try {
      res.snapshot = decode_snapshot(bytes);
      res.found = true;
      seq_ = seq;
      break;
    } catch (const RecoveryError&) {
      // Bit rot / injected corruption: fall back to the previous snapshot.
      ++res.snapshots_skipped;
      registry().counter("persist.recovery.fallbacks").inc();
    }
  }

  if (res.found) {
    const std::string wpath = wal_path(seq_);
    if (io_.read_file(wpath, bytes)) {
      try {
        WalScan scan = scan_wal(bytes);
        if (scan.snapshot_seq != seq_) {
          throw RecoveryError("persist: WAL header names wrong snapshot");
        }
        res.wal = std::move(scan.records);
        res.wal_bytes = scan.valid_bytes;
        if (scan.truncated || scan.valid_bytes < bytes.size()) {
          // Torn tail: cut the file back to the valid prefix and warn.
          res.wal_truncated = true;
          registry().counter("persist.wal.truncated").inc();
          io_.truncate_file(wpath, scan.valid_bytes);
        }
        wal_ = io_.open_append(wpath);
      } catch (const RecoveryError&) {
        // Header unusable: the records are unattributable, so the safe
        // floor is the snapshot alone. Rebuild an empty WAL.
        res.wal_rebuilt = true;
        res.wal_truncated = true;
        registry().counter("persist.wal.truncated").inc();
        open_fresh_wal(seq_);
      }
    } else {
      // Crash between snapshot publish and WAL creation: an empty WAL.
      res.wal_rebuilt = true;
      open_fresh_wal(seq_);
    }
    records_since_ = res.wal.size();
  }

  // Sweep debris: unpublished temp files plus every snapshot/WAL pair other
  // than the one we recovered (superseded pairs a crashed rotation left, or
  // newer-but-corrupt ones we skipped). The recovered pair is never touched,
  // so a crash mid-sweep cannot lose state.
  for (const std::string& name : debris) {
    io_.remove_file(options_.dir + "/" + name);
  }
  for (const std::uint64_t seq : snaps) {
    if (res.found && seq == seq_) continue;
    io_.remove_file(snap_path(seq, false));
    io_.remove_file(wal_path(seq));
  }
  return res;
}

void PersistentStore::open_fresh_wal(std::uint64_t seq) {
  wal_ = io_.open_trunc(wal_path(seq));
  const std::vector<std::uint8_t> header = encode_wal_header(seq);
  wal_->write(header.data(), header.size());
  wal_->sync();
}

void PersistentStore::append(const WalRecord& rec) {
  append_group({&rec, 1});
}

void PersistentStore::append_group(std::span<const WalRecord> recs) {
  require(recovered_, "PersistentStore::append: recover() first");
  require(wal_ != nullptr && has_snapshot(),
          "PersistentStore::append: no snapshot yet (rotate() first)");
  if (recs.empty()) return;
  encode_buf_.clear();
  for (const WalRecord& rec : recs) encode_wal_record_into(rec, encode_buf_);
  wal_->write(encode_buf_.data(), encode_buf_.size());
  if (options_.sync_each_record) wal_->sync();
  records_since_ += recs.size();
  appends_ += recs.size();
  bytes_appended_ += encode_buf_.size();
  static obs::Counter appends_c = registry().counter("persist.wal.appends");
  static obs::Counter bytes_c = registry().counter("persist.wal.bytes");
  appends_c.add(recs.size());
  bytes_c.add(encode_buf_.size());
}

std::uint64_t PersistentStore::rotate(SnapshotState state) {
  require(recovered_, "PersistentStore::rotate: recover() first");
  const std::uint64_t old_seq = seq_;
  const std::uint64_t new_seq = next_seq_++;
  state.seq = new_seq;
  const std::vector<std::uint8_t> bytes = encode_snapshot(state);

  // 1. full image into the temp file, durable before publish
  const std::string tmp = snap_path(new_seq, true);
  {
    std::unique_ptr<PersistIo::Stream> s = io_.open_trunc(tmp);
    s->write(bytes.data(), bytes.size());
    s->sync();
  }
  // 2. the publish point
  io_.rename_file(tmp, snap_path(new_seq, false));
  // 3. fresh WAL extending the new snapshot
  open_fresh_wal(new_seq);
  // 4. only now retire the superseded pair
  if (old_seq != 0) {
    io_.remove_file(snap_path(old_seq, false));
    io_.remove_file(wal_path(old_seq));
  }

  seq_ = new_seq;
  records_since_ = 0;
  ++rotations_;
  static obs::Counter snaps_c = registry().counter("persist.snapshots");
  snaps_c.inc();
  registry().gauge("persist.snapshot.bytes").set(
      static_cast<std::int64_t>(bytes.size()));
  return new_seq;
}

void PersistentStore::wipe(PersistIo& io, const std::string& dir) {
  for (const std::string& name : io.list_dir(dir)) {
    if (parse_seq(name, "snap-", ".rbpc") || parse_seq(name, "wal-", ".log") ||
        parse_seq(name, "snap-", ".tmp")) {
      io.remove_file(dir + "/" + name);
    }
  }
}

}  // namespace rbpc::persist
