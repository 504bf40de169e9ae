#include "obs/request_trace.hpp"

namespace rbpc::obs {

const char* rung_name(Rung r) {
  switch (r) {
    case Rung::kCached:
      return "cached";
    case Rung::kCut:
      return "cut";
    case Rung::kRepaired:
      return "repaired";
    case Rung::kScratch:
      return "scratch";
    case Rung::kStaleFec:
      return "stale-fec";
    case Rung::kNoRoute:
      return "no-route";
  }
  return "unknown";
}

void RerouteRecord::pack(std::uint64_t words[kWords]) const {
  words[0] = request_id;
  words[1] = enqueue_ns;
  words[2] = start_ns;
  words[3] = snapshot_ns;
  words[4] = spf_ns;
  words[5] = decompose_ns;
  words[6] = install_ns;
  words[7] = done_ns;
  words[8] = snapshot_version;
  words[9] = (std::uint64_t{demand} << 32) | src;
  words[10] = (std::uint64_t{dst} << 32) | worker;
  words[11] = (std::uint64_t{group} << 16) | (std::uint64_t{rung} << 8) |
              flags;
}

RerouteRecord RerouteRecord::unpack(const std::uint64_t words[kWords]) {
  RerouteRecord r;
  r.request_id = words[0];
  r.enqueue_ns = words[1];
  r.start_ns = words[2];
  r.snapshot_ns = words[3];
  r.spf_ns = words[4];
  r.decompose_ns = words[5];
  r.install_ns = words[6];
  r.done_ns = words[7];
  r.snapshot_version = words[8];
  r.demand = static_cast<std::uint32_t>(words[9] >> 32);
  r.src = static_cast<std::uint32_t>(words[9]);
  r.dst = static_cast<std::uint32_t>(words[10] >> 32);
  r.worker = static_cast<std::uint32_t>(words[10]);
  r.rung = static_cast<std::uint8_t>(words[11] >> 8);
  r.flags = static_cast<std::uint8_t>(words[11]);
  r.group = static_cast<std::uint8_t>(words[11] >> 16);
  return r;
}

std::uint64_t next_request_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace rbpc::obs
