#include "obs/metrics.hpp"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace rbpc::obs {

namespace detail {

std::size_t stripe_index() {
  static std::atomic<std::size_t> next{0};
  thread_local const std::size_t stripe =
      next.fetch_add(1, std::memory_order_relaxed) % kStripes;
  return stripe;
}

LatencyHistogram HistogramCells::snapshot() const {
  LatencyHistogram out;
  std::uint64_t sum = 0;
  for (const HistogramRow& row : rows) {
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      const std::uint64_t c = row.buckets[b].load(std::memory_order_relaxed);
      if (c != 0) out.add_bucket(b, c, 0);
    }
    sum += row.sum.load(std::memory_order_relaxed);
  }
  // Fold the exact value sum in separately: per-bucket sums are not
  // tracked, only the histogram-wide one.
  out.add_bucket(0, 0, sum);
  return out;
}

void HistogramCells::reset() {
  for (HistogramRow& row : rows) {
    for (auto& b : row.buckets) b.store(0, std::memory_order_relaxed);
    row.sum.store(0, std::memory_order_relaxed);
  }
  for (ExemplarCell& cell : exemplars) {
    cell.id.store(0, std::memory_order_relaxed);
    cell.value.store(0, std::memory_order_relaxed);
  }
}

}  // namespace detail

void Gauge::set_max(std::int64_t v) {
  if (cell_ == nullptr) return;
  std::int64_t cur = cell_->value.load(std::memory_order_relaxed);
  while (v > cur && !cell_->value.compare_exchange_weak(
                        cur, v, std::memory_order_relaxed)) {
  }
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter MetricsRegistry::counter(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    it = counters_
             .emplace(std::string(name),
                      std::make_unique<detail::CounterCells>())
             .first;
  }
  return Counter(it->second.get());
}

Gauge MetricsRegistry::gauge(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    it = gauges_
             .emplace(std::string(name), std::make_unique<detail::GaugeCell>())
             .first;
  }
  return Gauge(it->second.get());
}

Histogram MetricsRegistry::histogram(std::string_view name) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(name),
                      std::make_unique<detail::HistogramCells>())
             .first;
  }
  return Histogram(it->second.get());
}

MetricsRegistry::Snapshot MetricsRegistry::snapshot() const {
  Snapshot out;
  std::lock_guard<std::mutex> lock(mu_);
  out.counters.reserve(counters_.size());
  for (const auto& [name, cells] : counters_) {
    out.counters.push_back({name, cells->total()});
  }
  out.gauges.reserve(gauges_.size());
  for (const auto& [name, cell] : gauges_) {
    out.gauges.push_back({name, cell->value.load(std::memory_order_relaxed)});
  }
  out.histograms.reserve(histograms_.size());
  for (const auto& [name, cells] : histograms_) {
    Snapshot::HistogramSample sample;
    sample.name = name;
    sample.hist = cells->snapshot();
    bool any = false;
    std::vector<Snapshot::Exemplar> ex(LatencyHistogram::kBuckets);
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      ex[b].id = cells->exemplars[b].id.load(std::memory_order_relaxed);
      ex[b].value = cells->exemplars[b].value.load(std::memory_order_relaxed);
      any |= ex[b].id != 0;
    }
    if (any) sample.exemplars = std::move(ex);
    out.histograms.push_back(std::move(sample));
  }
  return out;
}

void MetricsRegistry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, cells] : counters_) cells->reset();
  for (auto& [name, cell] : gauges_)
    cell->value.store(0, std::memory_order_relaxed);
  for (auto& [name, cells] : histograms_) cells->reset();
}

namespace detail {

void append_json_escaped(std::ostringstream& os, std::string_view s) {
  for (const char c : s) {
    if (c == '"' || c == '\\') os << '\\';
    if (c == '\n') {
      os << "\\n";
      continue;
    }
    os << c;
  }
}

}  // namespace detail

namespace {

/// Highest nonempty bucket's upper bound (0 for empty histograms).
std::uint64_t hist_max_bound(const LatencyHistogram& h) {
  std::uint64_t max = 0;
  for (std::size_t i = 0; i < LatencyHistogram::kBuckets; ++i) {
    if (h.bucket_count(i) != 0) max = LatencyHistogram::bucket_hi(i);
  }
  return max;
}

}  // namespace

std::string MetricsRegistry::Snapshot::to_json() const {
  std::ostringstream os;
  os << "{\n  \"counters\": {";
  for (std::size_t i = 0; i < counters.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"";
    detail::append_json_escaped(os, counters[i].name);
    os << "\": " << counters[i].value;
  }
  os << (counters.empty() ? "" : "\n  ") << "},\n  \"gauges\": {";
  for (std::size_t i = 0; i < gauges.size(); ++i) {
    os << (i == 0 ? "\n" : ",\n") << "    \"";
    detail::append_json_escaped(os, gauges[i].name);
    os << "\": " << gauges[i].value;
  }
  os << (gauges.empty() ? "" : "\n  ") << "},\n  \"histograms\": {";
  for (std::size_t i = 0; i < histograms.size(); ++i) {
    const LatencyHistogram& h = histograms[i].hist;
    os << (i == 0 ? "\n" : ",\n") << "    \"";
    detail::append_json_escaped(os, histograms[i].name);
    os << "\": {\"count\": " << h.count() << ", \"sum\": " << h.sum();
    if (!h.empty()) {
      os << ", \"mean\": " << h.mean() << ", \"p50\": " << h.quantile(0.5)
         << ", \"p90\": " << h.quantile(0.9)
         << ", \"p99\": " << h.quantile(0.99)
         << ", \"max\": " << hist_max_bound(h);
    }
    os << ", \"buckets\": [";
    bool first = true;
    for (std::size_t b = 0; b < LatencyHistogram::kBuckets; ++b) {
      if (h.bucket_count(b) == 0) continue;
      if (!first) os << ", ";
      first = false;
      os << "[" << LatencyHistogram::bucket_lo(b) << ", "
         << LatencyHistogram::bucket_hi(b) << ", " << h.bucket_count(b)
         << "]";
    }
    os << "]}";
  }
  os << (histograms.empty() ? "" : "\n  ") << "}\n}\n";
  return os.str();
}

std::string MetricsRegistry::Snapshot::to_text() const {
  std::ostringstream os;
  for (const auto& c : counters) os << c.name << " " << c.value << "\n";
  for (const auto& g : gauges) os << g.name << " " << g.value << "\n";
  for (const auto& h : histograms) {
    os << h.name << "/count " << h.hist.count() << "\n";
    if (h.hist.empty()) continue;
    os << h.name << "/sum " << h.hist.sum() << "\n"
       << h.name << "/mean " << h.hist.mean() << "\n"
       << h.name << "/p50 " << h.hist.quantile(0.5) << "\n"
       << h.name << "/p90 " << h.hist.quantile(0.9) << "\n"
       << h.name << "/p99 " << h.hist.quantile(0.99) << "\n"
       << h.name << "/max " << hist_max_bound(h.hist) << "\n";
  }
  return os.str();
}

}  // namespace rbpc::obs
