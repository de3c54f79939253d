// JSON spelling shared by every serializer (sweep documents, traces,
// telemetry): deterministic bytes for identical values, so two outputs of
// the same run compare byte for byte.
#pragma once

#include <cstdint>
#include <string>

namespace pase::obs {

// The shortest form of a double that parses back exactly, except that an
// integral value below 2^53 whose shortest form needs an exponent prints
// as a plain integer (80, not 8e+01). Inf and NaN become null.
void append_json_number(std::string& out, double v);

void append_json_uint(std::string& out, std::uint64_t v);

// A quoted string with '"', '\\' and control characters escaped.
void append_json_string(std::string& out, const std::string& s);

}  // namespace pase::obs
