#include "obs/flight_recorder.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <fstream>
#include <iostream>
#include <sstream>

#include "obs/trace.hpp"
#include "util/error.hpp"

namespace rbpc::obs {

namespace {

/// A record's slot image: std::bit_cast copies it exactly both ways.
using Words = std::array<std::uint64_t, RerouteRecord::kWords>;

std::size_t round_up_pow2(std::size_t n) {
  if (n < 2) return 2;
  return std::bit_ceil(n);
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t workers, std::size_t ring_size) {
  const std::size_t size = round_up_pow2(ring_size);
  mask_ = size - 1;
  num_rings_ = workers == 0 ? 1 : workers;
  rings_ = std::make_unique<Ring[]>(num_rings_);
  for (std::size_t r = 0; r < num_rings_; ++r) {
    rings_[r].slots = std::make_unique<Slot[]>(size);
  }
}

void FlightRecorder::publish(std::size_t worker, const RerouteRecord& rec) {
  RBPC_ASSERT(worker < num_rings_);
  Ring& ring = rings_[worker];
  const std::uint64_t h = ring.head.load(std::memory_order_relaxed);
  Slot& slot = ring.slots[h & mask_];
  // Seqlock publish: odd marks the write in progress; the final even value
  // encodes the generation, so a reader that raced us sees the change.
  slot.seq.store(2 * h + 1, std::memory_order_release);
  const Words words = std::bit_cast<Words>(rec);
  for (std::size_t w = 0; w < RerouteRecord::kWords; ++w) {
    slot.words[w].store(words[w], std::memory_order_relaxed);
  }
  slot.seq.store(2 * (h + 1), std::memory_order_release);
  ring.head.store(h + 1, std::memory_order_release);
  published_.fetch_add(1, std::memory_order_relaxed);
}

void FlightRecorder::collect_ring(const Ring& ring,
                                  std::vector<RerouteRecord>& out) const {
  for (std::size_t i = 0; i <= mask_; ++i) {
    const Slot& slot = ring.slots[i];
    bool settled = false;
    for (int attempt = 0; attempt < 4 && !settled; ++attempt) {
      const std::uint64_t seq1 = slot.seq.load(std::memory_order_acquire);
      if (seq1 == 0) {
        settled = true;  // never written: nothing to read
        break;
      }
      if (seq1 & 1) continue;  // mid-write; retry
      Words words;
      for (std::size_t w = 0; w < RerouteRecord::kWords; ++w) {
        words[w] = slot.words[w].load(std::memory_order_relaxed);
      }
      // Acquire re-read orders the word loads before it: an unchanged
      // sequence means no writer touched the slot while we copied.
      const std::uint64_t seq2 = slot.seq.load(std::memory_order_acquire);
      if (seq1 == seq2) {
        out.push_back(std::bit_cast<RerouteRecord>(words));
        settled = true;
      }
    }
    if (!settled) torn_.fetch_add(1, std::memory_order_relaxed);
  }
}

std::vector<RerouteRecord> FlightRecorder::collect() const {
  std::vector<RerouteRecord> out;
  out.reserve(num_rings_ * (mask_ + 1));
  for (std::size_t r = 0; r < num_rings_; ++r) collect_ring(rings_[r], out);
  std::sort(out.begin(), out.end(),
            [](const RerouteRecord& a, const RerouteRecord& b) {
              return a.done_ns != b.done_ns ? a.done_ns < b.done_ns
                                            : a.request_id < b.request_id;
            });
  return out;
}

namespace {

void append_record_json(std::ostringstream& os, const RerouteRecord& r) {
  const auto delta = [](std::uint64_t from, std::uint64_t to) -> std::uint64_t {
    return (from != 0 && to >= from) ? to - from : 0;
  };
  os << "    {\"request_id\": " << r.request_id << ", \"demand\": " << r.demand
     << ", \"src\": " << r.src << ", \"dst\": " << r.dst
     << ", \"worker\": " << r.worker << ", \"rung\": " << int{r.rung}
     << ", \"rung_name\": \"" << rung_name(static_cast<Rung>(r.rung)) << "\""
     << ", \"installed\": " << ((r.flags & kFlagInstalled) ? "true" : "false")
     << ", \"revalidated\": "
     << ((r.flags & kFlagRevalidated) ? "true" : "false")
     << ", \"recovery\": " << ((r.flags & kFlagRecovery) ? "true" : "false")
     << ", \"group\": " << int{r.group}
     << ", \"snapshot_version\": " << r.snapshot_version
     << ",\n     \"enqueue_ns\": " << r.enqueue_ns
     << ", \"start_ns\": " << r.start_ns
     << ", \"done_ns\": " << r.done_ns
     << ", \"queue_wait_ns\": " << delta(r.enqueue_ns, r.start_ns)
     << ", \"snapshot_pin_ns\": " << delta(r.start_ns, r.snapshot_ns)
     << ", \"spf_ns\": " << delta(r.snapshot_ns, r.spf_ns)
     << ", \"decompose_ns\": " << delta(r.spf_ns, r.decompose_ns)
     << ", \"install_ns\": "
     << delta(r.decompose_ns != 0 ? r.decompose_ns : r.spf_ns, r.install_ns)
     << ", \"total_ns\": " << delta(r.enqueue_ns, r.done_ns) << "}";
}

void append_trace_tail_json(std::ostringstream& os) {
  std::vector<TraceEvent> events = Tracer::global().events();
  std::sort(events.begin(), events.end(),
            [](const TraceEvent& a, const TraceEvent& b) {
              return a.ts_ns < b.ts_ns;
            });
  if (events.size() > FlightRecorder::kTraceTail) {
    events.erase(events.begin(),
                 events.end() - static_cast<std::ptrdiff_t>(
                                    FlightRecorder::kTraceTail));
  }
  os << "  \"trace_tail\": [";
  for (std::size_t i = 0; i < events.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    {\"name\": \"" << events[i].name
       << "\", \"tid\": " << events[i].tid
       << ", \"ts_ns\": " << events[i].ts_ns
       << ", \"dur_ns\": " << events[i].dur_ns << "}";
  }
  os << (events.empty() ? "" : "\n  ") << "]";
}

}  // namespace

std::string FlightRecorder::dump_json(std::string_view reason) const {
  const std::vector<RerouteRecord> records = collect();
  std::ostringstream os;
  os << "{\n  \"reason\": \"";
  detail::append_json_escaped(os, reason);
  os << "\",\n  \"published\": " << published()
     << ",\n  \"torn_reads\": " << torn_reads() << ",\n  \"records\": [";
  for (std::size_t i = 0; i < records.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n");
    append_record_json(os, records[i]);
  }
  os << (records.empty() ? "" : "\n  ") << "],\n";
  append_trace_tail_json(os);
  os << "\n}\n";
  return os.str();
}

bool FlightRecorder::dump_to_file(const std::string& path,
                                  std::string_view reason) const {
  std::ofstream out(path);
  out << dump_json(reason);
  if (!out) {
    std::cerr << "flight recorder: failed to write dump to " << path << "\n";
    return false;
  }
  std::cerr << "flight recorder: wrote dump to " << path << "\n";
  return true;
}

}  // namespace rbpc::obs
