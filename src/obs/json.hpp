// JSON value encoding for the observability subsystem: RunLogger lines and
// the flight-recorder export. Reading JSON back is test-only
// (tests/support/json_reader.hpp).
#pragma once

#include <string>

namespace mdl::obs {

/// Escapes `s` for inclusion inside a JSON string literal (no quotes added).
std::string json_escape(const std::string& s);

/// Formats a double as a JSON token; non-finite values become `null` (JSON
/// has no inf/nan). Integral values print without an exponent.
std::string json_number(double v);

}  // namespace mdl::obs
