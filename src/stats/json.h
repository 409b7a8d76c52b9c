// Minimal JSON writing for the metrics exporter: stream-free, with stable
// formatting (sorted keys come from the caller; doubles render with
// round-trip precision). No external dependencies by design — the CI
// bench-smoke job must run on a bare toolchain image.
#pragma once

#include <string>
#include <string_view>

namespace damkit::stats {

/// Append a JSON string literal (quotes + escapes) to `out`.
void json_append_string(std::string& out, std::string_view s);
/// Append a double with enough digits to round-trip bit-exactly; integral
/// values render without an exponent where possible. Non-finite values
/// (NaN, ±Inf) have no JSON literal and are serialized as `null`.
void json_append_double(std::string& out, double v);

}  // namespace damkit::stats
