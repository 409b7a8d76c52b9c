#include "stats/metrics.h"

#include <cinttypes>
#include <cstdio>

#include "stats/json.h"

namespace damkit::stats {

void MetricsRegistry::add(std::string_view name, uint64_t delta) {
  auto it = counters_.find(name);
  if (it == counters_.end()) {
    counters_.emplace(std::string(name), delta);
  } else {
    it->second += delta;
  }
}

void MetricsRegistry::set(std::string_view name, double value) {
  auto it = gauges_.find(name);
  if (it == gauges_.end()) {
    gauges_.emplace(std::string(name), value);
  } else {
    it->second = value;
  }
}

Histogram& MetricsRegistry::histo(std::string_view name) {
  auto it = histograms_.find(name);
  if (it == histograms_.end()) {
    it = histograms_.emplace(std::string(name), Histogram{}).first;
  }
  return it->second;
}

uint64_t MetricsRegistry::counter(std::string_view name) const {
  const auto it = counters_.find(name);
  return it == counters_.end() ? 0 : it->second;
}

double MetricsRegistry::gauge(std::string_view name) const {
  const auto it = gauges_.find(name);
  return it == gauges_.end() ? 0.0 : it->second;
}

const Histogram* MetricsRegistry::histogram(std::string_view name) const {
  const auto it = histograms_.find(name);
  return it == histograms_.end() ? nullptr : &it->second;
}

bool MetricsRegistry::has_counter(std::string_view name) const {
  return counters_.find(name) != counters_.end();
}

bool MetricsRegistry::has_gauge(std::string_view name) const {
  return gauges_.find(name) != gauges_.end();
}

void MetricsRegistry::merge(const MetricsRegistry& other) {
  for (const auto& [name, v] : other.counters_) add(name, v);
  for (const auto& [name, v] : other.gauges_) {
    const auto it = gauges_.find(name);
    if (it == gauges_.end()) {
      gauges_.emplace(name, v);
    } else if (v > it->second) {
      it->second = v;
    }
  }
  for (const auto& [name, h] : other.histograms_) histo(name).merge(h);
}

void MetricsRegistry::clear() {
  counters_.clear();
  gauges_.clear();
  histograms_.clear();
}

void MetricsRegistry::for_each_counter(
    const std::function<void(const std::string&, uint64_t)>& fn) const {
  for (const auto& [name, v] : counters_) fn(name, v);
}

void MetricsRegistry::for_each_gauge(
    const std::function<void(const std::string&, double)>& fn) const {
  for (const auto& [name, v] : gauges_) fn(name, v);
}

void MetricsRegistry::for_each_histogram(
    const std::function<void(const std::string&, const Histogram&)>& fn)
    const {
  for (const auto& [name, h] : histograms_) fn(name, h);
}

std::string MetricsRegistry::to_json() const {
  std::string out = "{\n  \"counters\": {";
  char buf[32];
  bool first = true;
  for (const auto& [name, v] : counters_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_string(out, name);
    std::snprintf(buf, sizeof(buf), ": %" PRIu64, v);
    out += buf;
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"gauges\": {";
  first = true;
  for (const auto& [name, v] : gauges_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_string(out, name);
    out += ": ";
    json_append_double(out, v);
  }
  out += first ? "},\n" : "\n  },\n";

  out += "  \"histograms\": {";
  first = true;
  for (const auto& [name, h] : histograms_) {
    out += first ? "\n    " : ",\n    ";
    first = false;
    json_append_string(out, name);
    std::snprintf(buf, sizeof(buf), ": {\"count\": %" PRIu64, h.count());
    out += buf;
    std::snprintf(buf, sizeof(buf), ", \"sum\": %" PRIu64, h.sum());
    out += buf;
    std::snprintf(buf, sizeof(buf), ", \"min\": %" PRIu64, h.min());
    out += buf;
    std::snprintf(buf, sizeof(buf), ", \"max\": %" PRIu64, h.max());
    out += buf;
    out += ", \"buckets\": [";
    bool first_bucket = true;
    h.for_each_bucket([&](int index, uint64_t /*floor*/, uint64_t count) {
      if (!first_bucket) out += ", ";
      first_bucket = false;
      std::snprintf(buf, sizeof(buf), "[%d, %" PRIu64 "]", index, count);
      out += buf;
    });
    out += "]}";
  }
  out += first ? "}\n" : "\n  }\n";
  out += "}\n";
  return out;
}

void export_histogram_summary(MetricsRegistry& reg, std::string_view name,
                              const Histogram& h) {
  const std::string base(name);
  reg.histo(base).merge(h);
  reg.add(base + ".count", h.count());
  reg.set(base + ".mean", h.mean());
  reg.set(base + ".p50", static_cast<double>(h.percentile(50.0)));
  reg.set(base + ".p99", static_cast<double>(h.percentile(99.0)));
  reg.set(base + ".p999", static_cast<double>(h.percentile(99.9)));
}

}  // namespace damkit::stats
