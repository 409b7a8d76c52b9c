#include "sim/trace.h"

#include <cerrno>
#include <cstdio>
#include <cstring>

namespace damkit::sim {

double IoTrace::sequential_fraction() const {
  if (records_.size() < 2) return records_.empty() ? 0.0 : 1.0;
  uint64_t sequential = 0;
  for (size_t i = 1; i < records_.size(); ++i) {
    if (records_[i].offset == records_[i - 1].offset + records_[i - 1].length) {
      ++sequential;
    }
  }
  return static_cast<double>(sequential) /
         static_cast<double>(records_.size() - 1);
}

double IoTrace::mean_seek_bytes() const {
  if (records_.size() < 2) return 0.0;
  double total = 0.0;
  for (size_t i = 1; i < records_.size(); ++i) {
    const uint64_t expected = records_[i - 1].offset + records_[i - 1].length;
    const uint64_t actual = records_[i].offset;
    total += static_cast<double>(expected > actual ? expected - actual
                                                   : actual - expected);
  }
  return total / static_cast<double>(records_.size() - 1);
}

uint64_t IoTrace::total_bytes() const {
  uint64_t bytes = 0;
  for (const auto& r : records_) bytes += r.length;
  return bytes;
}

std::string IoTrace::to_csv() const {
  std::string out = "kind,offset,length,submit,start,finish\n";
  char line[160];
  for (const auto& r : records_) {
    std::snprintf(line, sizeof(line), "%c,%llu,%llu,%llu,%llu,%llu\n",
                  r.kind == IoKind::kRead ? 'R' : 'W',
                  static_cast<unsigned long long>(r.offset),
                  static_cast<unsigned long long>(r.length),
                  static_cast<unsigned long long>(r.submit),
                  static_cast<unsigned long long>(r.start),
                  static_cast<unsigned long long>(r.finish));
    out += line;
  }
  return out;
}

StatusOr<IoTrace> IoTrace::from_csv(const std::string& csv) {
  IoTrace trace;
  size_t pos = csv.find('\n');  // skip header
  if (pos == std::string::npos) {
    return Status::invalid_argument("trace CSV missing header");
  }
  ++pos;
  while (pos < csv.size()) {
    size_t eol = csv.find('\n', pos);
    if (eol == std::string::npos) eol = csv.size();
    const std::string line = csv.substr(pos, eol - pos);
    pos = eol + 1;
    if (line.empty()) continue;
    char kind = 0;
    unsigned long long off = 0, len = 0, submit = 0, start = 0, finish = 0;
    const int n = std::sscanf(line.c_str(), "%c,%llu,%llu,%llu,%llu,%llu",
                              &kind, &off, &len, &submit, &start, &finish);
    if (n != 6) {
      return Status::invalid_argument("malformed trace line: " + line);
    }
    if (kind != 'R' && kind != 'W') {
      return Status::invalid_argument(std::string("bad trace kind: ") + kind);
    }
    const IoKind io_kind = kind == 'R' ? IoKind::kRead : IoKind::kWrite;
    trace.records_.push_back({io_kind, off, len, submit, start, finish});
  }
  return trace;
}

bool IoTrace::save(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::string csv = to_csv();
  const size_t n = std::fwrite(csv.data(), 1, csv.size(), f);
  const bool ok = (n == csv.size()) && std::fclose(f) == 0;
  if (n != csv.size()) std::fclose(f);
  return ok;
}

StatusOr<IoTrace> IoTrace::load(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "r");
  if (f == nullptr) {
    return Status::not_found("cannot open trace " + path + ": " +
                             std::strerror(errno));
  }
  std::string csv;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0) csv.append(buf, n);
  const bool read_failed = std::ferror(f) != 0;
  const int read_errno = errno;
  std::fclose(f);
  if (read_failed) {
    return Status::invalid_argument("cannot read trace " + path + ": " +
                                    std::strerror(read_errno));
  }
  return from_csv(csv);
}

SimTime replay_trace(Device& dev, const IoTrace& trace) {
  SimTime now = 0;
  for (const auto& r : trace.records()) {
    now = dev.submit({r.kind, r.offset, r.length}, now).finish;
  }
  return now;
}

// Out-of-line member of Device (declared in device.h).
void Device::record_trace(const IoRequest& req, const IoCompletion& c,
                          SimTime submit) {
  trace_->record(req, c, submit);
}

}  // namespace damkit::sim
