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
    case Rung::kNoRoute:
      return "no-route";
  }
  return "unknown";
}

std::uint64_t next_request_id() {
  static std::atomic<std::uint64_t> next{1};
  return next.fetch_add(1, std::memory_order_relaxed);
}

}  // namespace rbpc::obs
