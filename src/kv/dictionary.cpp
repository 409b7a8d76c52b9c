#include "kv/dictionary.h"

#include "util/bytes.h"

namespace damkit::kv {

std::string encode_counter(uint64_t v) {
  std::string out(8, '\0');
  store_u64(reinterpret_cast<uint8_t*>(out.data()), v);
  return out;
}

uint64_t decode_counter(std::string_view v) {
  if (v.size() != 8) return 0;  // non-counter values count as zero
  return load_u64(reinterpret_cast<const uint8_t*>(v.data()));
}

std::string add_to_counter(const std::optional<std::string>& counter,
                           int64_t delta) {
  const uint64_t base = counter.has_value() ? decode_counter(*counter) : 0;
  return encode_counter(base + static_cast<uint64_t>(delta));
}

Dictionary::~Dictionary() = default;

void Dictionary::put(std::string_view key, std::string_view value) {
  DAMKIT_CHECK_OK(try_put(key, value));
}

std::optional<std::string> Dictionary::get(std::string_view key) {
  StatusOr<std::optional<std::string>> got = try_get(key);
  DAMKIT_CHECK_OK(got.status());
  return std::move(got).value();
}

void Dictionary::erase(std::string_view key) {
  DAMKIT_CHECK_OK(try_erase(key));
}

void Dictionary::upsert(std::string_view key, int64_t delta) {
  DAMKIT_CHECK_OK(try_upsert(key, delta));
}

std::vector<std::pair<std::string, std::string>> Dictionary::range_scan(
    std::string_view lo, size_t limit) {
  StatusOr<std::vector<std::pair<std::string, std::string>>> rows =
      try_range_scan(lo, limit);
  DAMKIT_CHECK_OK(rows.status());
  return std::move(rows).value();
}

void Dictionary::flush() { DAMKIT_CHECK_OK(checkpoint()); }

void Dictionary::set_event_trace(stats::TraceBuffer* /*events*/) {}

void Dictionary::abandon() {}

}  // namespace damkit::kv
