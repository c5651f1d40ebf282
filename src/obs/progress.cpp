#include "obs/progress.hpp"

#include <ostream>
#include <sstream>

#include "obs/json.hpp"

namespace cbq::obs {

namespace {

void field(std::ostream& out, const char* key, const std::string& value,
           bool& first) {
  if (value.empty()) return;
  out << (first ? "" : ", ") << '"' << key << "\": \"" << jsonEscape(value)
      << '"';
  first = false;
}

}  // namespace

void ProgressStreamer::emit(const ProgressEvent& ev) {
  // Build the line outside the lock; write + flush inside.
  std::ostringstream line;
  bool first = true;
  field(line, "kind", ev.kind, first);
  field(line, "problem", ev.problem, first);
  field(line, "engine", ev.engine, first);
  field(line, "verdict", ev.verdict, first);
  field(line, "detail", ev.detail, first);
  if (ev.bound >= 0) {
    line << (first ? "" : ", ") << "\"bound\": " << ev.bound;
    first = false;
  }
  if (ev.effort > 0.0) {
    line << (first ? "" : ", ") << "\"effort\": " << jsonFinite(ev.effort);
    first = false;
  }
  if (ev.effortDelta > 0.0) {
    line << (first ? "" : ", ")
         << "\"effort_delta\": " << jsonFinite(ev.effortDelta);
    first = false;
  }
  line << (first ? "" : ", ") << "\"seconds\": " << jsonFinite(ev.seconds);
  first = false;
  if (ev.kind == "slice")
    line << ", \"advanced\": " << (ev.advanced ? "true" : "false");

  const util::MutexLock lock(mu_);
  *out_ << '{' << line.str() << "}\n" << std::flush;
}

}  // namespace cbq::obs
