#pragma once
// The string escape and number clamp shared by every hand-written JSON
// writer: the metrics registry, the span tracer, progress lines, batch
// reports and the `cbq bench` / `cbq soak` reports.

#include <string>
#include <string_view>

namespace cbq::obs {

/// `s` ready to sit between JSON double quotes: `"` and `\` are
/// backslash-escaped, control characters become \u00XX.
std::string jsonEscape(std::string_view s);

/// JSON has no NaN/Inf; non-finite values are written as 0.
double jsonFinite(double v);

}  // namespace cbq::obs
