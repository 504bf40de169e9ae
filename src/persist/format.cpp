#include "persist/format.hpp"

#include <array>
#include <cstring>
#include <string>

namespace rbpc::persist {

namespace {

std::array<std::uint32_t, 256> make_crc_table() {
  std::array<std::uint32_t, 256> table{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
    }
    table[i] = c;
  }
  return table;
}

const std::array<std::uint32_t, 256>& crc_table() {
  static const std::array<std::uint32_t, 256> table = make_crc_table();
  return table;
}

[[noreturn]] void corrupt(const char* what) {
  throw RecoveryError(std::string("persist: corrupt image: ") + what);
}

}  // namespace

std::uint32_t crc32(const void* data, std::size_t len, std::uint32_t seed) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  const auto& table = crc_table();
  for (std::size_t i = 0; i < len; ++i) {
    c = table[(c ^ p[i]) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

// --- BufWriter -------------------------------------------------------------

void BufWriter::u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) bytes_.push_back((v >> (8 * i)) & 0xFFu);
}

void BufWriter::u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) bytes_.push_back((v >> (8 * i)) & 0xFFu);
}

void BufWriter::raw(const void* data, std::size_t len) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + len);
}

void BufWriter::u32_span(std::span<const std::uint32_t> vs) {
  for (const std::uint32_t v : vs) u32(v);
}

// --- BufReader -------------------------------------------------------------

void BufReader::need(std::size_t n) const {
  if (remaining() < n) corrupt("read past end of buffer");
}

std::uint8_t BufReader::u8() {
  need(1);
  return bytes_[pos_++];
}

std::uint32_t BufReader::u32() {
  need(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(bytes_[pos_ + i]) << (8 * i);
  }
  pos_ += 4;
  return v;
}

std::uint64_t BufReader::u64() {
  need(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(bytes_[pos_ + i]) << (8 * i);
  }
  pos_ += 8;
  return v;
}

void BufReader::u32_into(std::vector<std::uint32_t>& out, std::size_t count) {
  // Pre-validates the byte budget so a length-lying count cannot trigger a
  // huge allocation before the bounds check fires.
  if (count > remaining() / 4) corrupt("array count exceeds buffer");
  out.resize(count);
  for (std::size_t i = 0; i < count; ++i) out[i] = u32();
}

// --- Snapshot --------------------------------------------------------------

namespace {

void check_ref(const graph::PathRef& r, std::size_t arena_len,
               const char* what) {
  if (r.len == 0) {
    if (r.offset != 0) corrupt("empty path ref with nonzero offset");
    return;
  }
  const std::uint64_t end =
      static_cast<std::uint64_t>(r.offset) + static_cast<std::uint64_t>(r.len);
  if (end > arena_len) corrupt(what);
}

}  // namespace

std::vector<std::uint8_t> encode_snapshot(const SnapshotState& s) {
  BufWriter payload;
  payload.u64(s.seq);
  payload.u32(s.num_edges);
  payload.u32(static_cast<std::uint32_t>(s.links.size()));
  for (const lsdb::LinkStateRecord& l : s.links) {
    payload.u32(l.edge);
    payload.u8(l.down ? 1 : 0);
    payload.u64(l.generation);
  }
  payload.u32(static_cast<std::uint32_t>(s.demands.size()));
  for (const DemandRecord& d : s.demands) {
    payload.u32(d.src);
    payload.u32(d.dst);
    payload.u64(d.stamp);
    payload.u32(d.route.offset);
    payload.u32(d.route.len);
  }
  payload.u64(s.arena_nodes.size());
  payload.u32_span(s.arena_nodes);
  payload.u64(s.arena_edges.size());
  payload.u32_span(s.arena_edges);

  BufWriter out;
  out.raw(kSnapshotMagic, sizeof(kSnapshotMagic));
  out.u64(payload.bytes().size());
  out.raw(payload.bytes().data(), payload.bytes().size());
  out.u32(crc32(payload.bytes().data(), payload.bytes().size()));
  return out.take();
}

SnapshotState decode_snapshot(std::span<const std::uint8_t> bytes) {
  constexpr std::size_t kFraming = sizeof(kSnapshotMagic) + 8 + 4;
  if (bytes.size() < kFraming) corrupt("snapshot shorter than framing");
  if (std::memcmp(bytes.data(), kSnapshotMagic, sizeof(kSnapshotMagic)) != 0) {
    corrupt("snapshot magic mismatch");
  }
  BufReader frame(bytes.subspan(sizeof(kSnapshotMagic)));
  const std::uint64_t payload_len = frame.u64();
  // Exact-length check: a snapshot is published atomically, so trailing
  // garbage is as much a defect as a short read.
  if (payload_len != bytes.size() - kFraming) {
    corrupt("snapshot payload length mismatch");
  }
  const std::uint8_t* payload = bytes.data() + sizeof(kSnapshotMagic) + 8;
  BufReader crc_tail(
      bytes.subspan(sizeof(kSnapshotMagic) + 8 + payload_len));
  if (crc32(payload, payload_len) != crc_tail.u32()) {
    corrupt("snapshot CRC mismatch");
  }

  BufReader r(std::span<const std::uint8_t>(payload, payload_len));
  SnapshotState s;
  s.seq = r.u64();
  s.num_edges = r.u32();
  const std::uint32_t num_links = r.u32();
  if (num_links > r.remaining() / 13) corrupt("link count exceeds payload");
  s.links.reserve(num_links);
  for (std::uint32_t i = 0; i < num_links; ++i) {
    lsdb::LinkStateRecord l;
    l.edge = r.u32();
    const std::uint8_t down = r.u8();
    if (down > 1) corrupt("link down flag out of range");
    l.down = down != 0;
    l.generation = r.u64();
    if (l.edge >= s.num_edges) corrupt("link edge out of range");
    s.links.push_back(l);
  }
  const std::uint32_t num_demands = r.u32();
  if (num_demands > r.remaining() / 24) corrupt("demand count exceeds payload");
  s.demands.reserve(num_demands);
  for (std::uint32_t i = 0; i < num_demands; ++i) {
    DemandRecord d;
    d.src = r.u32();
    d.dst = r.u32();
    d.stamp = r.u64();
    d.route = graph::PathRef{r.u32(), r.u32()};
    s.demands.push_back(d);
  }
  r.u32_into(s.arena_nodes, r.u64());
  r.u32_into(s.arena_edges, r.u64());
  if (r.remaining() != 0) corrupt("snapshot payload has trailing bytes");
  // The pad-slot layout keeps both arrays index-aligned (path_arena.hpp).
  if (s.arena_nodes.size() != s.arena_edges.size()) {
    corrupt("arena arrays misaligned");
  }
  for (const DemandRecord& d : s.demands) {
    check_ref(d.route, s.arena_nodes.size(), "route ref out of arena");
  }
  return s;
}

// --- WAL -------------------------------------------------------------------

std::vector<std::uint8_t> encode_wal_header(std::uint64_t snapshot_seq) {
  BufWriter out;
  out.raw(kWalMagic, sizeof(kWalMagic));
  out.u64(snapshot_seq);
  RBPC_ASSERT(out.bytes().size() == kWalHeaderBytes);
  return out.take();
}

std::vector<std::uint8_t> encode_wal_record(const WalRecord& rec) {
  std::vector<std::uint8_t> out;
  encode_wal_record_into(rec, out);
  return out;
}

void encode_wal_record_into(const WalRecord& rec,
                            std::vector<std::uint8_t>& out) {
  const std::size_t start = out.size();
  BufWriter w(std::move(out));
  w.u32(0);  // payload length, patched once the payload is written
  w.u8(static_cast<std::uint8_t>(rec.type));
  switch (rec.type) {
    case WalType::kLinkEvent:
      w.u32(rec.link.edge);
      w.u8(rec.link.up ? 1 : 0);
      w.u64(rec.link.generation);
      break;
    case WalType::kFecInstall:
      w.u32(rec.fec.demand);
      w.u64(rec.fec.stamp);
      RBPC_ASSERT(rec.fec.nodes.empty()
                      ? rec.fec.edges.empty()
                      : rec.fec.edges.size() == rec.fec.nodes.size() - 1);
      w.u32(static_cast<std::uint32_t>(rec.fec.nodes.size()));
      w.u32_span(rec.fec.nodes);
      w.u32_span(rec.fec.edges);
      break;
  }
  out = w.take();
  const std::size_t len = out.size() - start - 4;
  for (int i = 0; i < 4; ++i) out[start + i] = (len >> (8 * i)) & 0xFFu;
  // The CRC covers the length prefix as well, so a record cannot lie about
  // its own extent without failing the checksum.
  const std::uint32_t crc = crc32(out.data() + start, out.size() - start);
  for (int i = 0; i < 4; ++i) out.push_back((crc >> (8 * i)) & 0xFFu);
}

namespace {

/// Decodes one CRC-validated record payload. Returns false (instead of
/// throwing) on any structural defect — the scan treats it as a torn tail.
bool decode_wal_payload(std::span<const std::uint8_t> payload,
                        WalRecord& out) {
  try {
    BufReader r(payload);
    const std::uint8_t type = r.u8();
    switch (type) {
      case static_cast<std::uint8_t>(WalType::kLinkEvent): {
        out.type = WalType::kLinkEvent;
        out.link.edge = r.u32();
        const std::uint8_t up = r.u8();
        if (up > 1) return false;
        out.link.up = up != 0;
        out.link.generation = r.u64();
        break;
      }
      case static_cast<std::uint8_t>(WalType::kFecInstall): {
        out.type = WalType::kFecInstall;
        out.fec.demand = r.u32();
        out.fec.stamp = r.u64();
        const std::uint32_t num_nodes = r.u32();
        r.u32_into(out.fec.nodes, num_nodes);
        r.u32_into(out.fec.edges, num_nodes == 0 ? 0 : num_nodes - 1);
        break;
      }
      default:
        return false;  // unknown record type (version skew): stop replay here
    }
    return r.remaining() == 0;
  } catch (const RecoveryError&) {
    return false;
  }
}

}  // namespace

WalScan scan_wal(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kWalHeaderBytes) corrupt("WAL shorter than header");
  if (std::memcmp(bytes.data(), kWalMagic, sizeof(kWalMagic)) != 0) {
    corrupt("WAL magic mismatch");
  }
  WalScan scan;
  {
    BufReader header(bytes.subspan(sizeof(kWalMagic), 8));
    scan.snapshot_seq = header.u64();
  }

  std::size_t pos = kWalHeaderBytes;
  for (;;) {
    const std::size_t rem = bytes.size() - pos;
    if (rem == 0) break;  // clean end
    if (rem < 8) {
      scan.truncated = true;  // not even a length + CRC: torn tail
      break;
    }
    BufReader len_r(bytes.subspan(pos, 4));
    const std::uint32_t len = len_r.u32();
    if (len == 0 || len > kMaxWalRecordBytes || 4u + len + 4u > rem) {
      scan.truncated = true;
      break;
    }
    BufReader crc_r(bytes.subspan(pos + 4 + len, 4));
    if (crc32(bytes.data() + pos, 4 + len) != crc_r.u32()) {
      scan.truncated = true;
      break;
    }
    WalRecord rec;
    if (!decode_wal_payload(bytes.subspan(pos + 4, len), rec)) {
      scan.truncated = true;
      break;
    }
    scan.records.push_back(std::move(rec));
    pos += 4 + len + 4;
  }
  scan.valid_bytes = pos;
  return scan;
}

}  // namespace rbpc::persist
