#include "span_fold.hpp"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <iomanip>
#include <stdexcept>

namespace cbqbench {

void SpanFold::merge(const SpanFold& other) {
  for (const auto& [key, t] : other.byKey) {
    SpanTotals& mine = byKey[key];
    mine.count += t.count;
    mine.inclusiveNs += t.inclusiveNs;
    mine.selfNs += t.selfNs;
    mine.phaseNs += t.phaseNs;
  }
  containerNs += other.containerNs;
  unattributedNs += other.unattributedNs;
  spans += other.spans;
}

SpanTotals SpanFold::at(const std::string& key) const {
  const auto it = byKey.find(key);
  return it == byKey.end() ? SpanTotals{} : it->second;
}

namespace {

bool isPhase(const SpanEvent& s) {
  return s.category == "engine" || s.category == "bdd";
}

bool isContainer(const SpanEvent& s) {
  return s.category == "sched" ||
         (s.category == "bench" && s.name == "resume");
}

}  // namespace

void foldThread(std::vector<SpanEvent> spans, SpanFold& out) {
  std::sort(spans.begin(), spans.end(),
            [](const SpanEvent& a, const SpanEvent& b) {
              return a.startNs != b.startNs ? a.startNs < b.startNs
                                            : a.endNs > b.endNs;
            });
  struct Frame {
    const SpanEvent* span;
    SpanTotals* totals;
    std::int64_t childNs = 0;       // direct children
    std::int64_t phaseChildNs = 0;  // nearest nested phases (phases only)
    std::int64_t coveredNs = 0;     // outermost phases (containers only)
    int nearestPhase = -1;          // stack index, -1 = none
    int nearestContainer = -1;
  };
  std::vector<Frame> stack;
  const auto pop = [&] {
    const Frame& f = stack.back();
    const std::int64_t dur = f.span->endNs - f.span->startNs;
    f.totals->selfNs += dur - f.childNs;
    if (isPhase(*f.span)) f.totals->phaseNs += dur - f.phaseChildNs;
    if (isContainer(*f.span)) {
      out.containerNs += dur;
      out.unattributedNs += dur - f.coveredNs;
    }
    stack.pop_back();
  };
  for (const SpanEvent& s : spans) {
    while (!stack.empty() && s.endNs > stack.back().span->endNs) pop();
    const std::int64_t dur = s.endNs - s.startNs;
    SpanTotals& t = out.byKey[s.category + '/' + s.name];
    ++t.count;
    t.inclusiveNs += dur;
    ++out.spans;

    Frame f{&s, &t};
    if (!stack.empty()) {
      Frame& parent = stack.back();
      parent.childNs += dur;
      f.nearestPhase = parent.nearestPhase;
      f.nearestContainer = parent.nearestContainer;
    }
    if (isPhase(s)) {
      if (f.nearestPhase >= 0)
        stack[static_cast<std::size_t>(f.nearestPhase)].phaseChildNs += dur;
      else if (f.nearestContainer >= 0)
        stack[static_cast<std::size_t>(f.nearestContainer)].coveredNs += dur;
      f.nearestPhase = static_cast<int>(stack.size());
    }
    if (isContainer(s)) f.nearestContainer = static_cast<int>(stack.size());
    stack.push_back(f);
  }
  while (!stack.empty()) pop();
}

// ----- Chrome trace-event parsing --------------------------------------------

namespace {

/// Position just past `"key": ` in `line`, or npos.
std::size_t valueAt(const std::string& line, const char* key) {
  const std::string pat = std::string("\"") + key + "\": ";
  const std::size_t at = line.find(pat);
  return at == std::string::npos ? at : at + pat.size();
}

bool readString(const std::string& line, const char* key, std::string& out) {
  std::size_t i = valueAt(line, key);
  if (i == std::string::npos || i >= line.size() || line[i] != '"')
    return false;
  out.clear();
  for (++i; i < line.size(); ++i) {
    if (line[i] == '"') return true;
    if (line[i] == '\\' && i + 1 < line.size()) ++i;
    out += line[i];
  }
  return false;
}

bool readNumber(const std::string& line, const char* key, double& out) {
  const std::size_t i = valueAt(line, key);
  if (i == std::string::npos) return false;
  char* end = nullptr;
  out = std::strtod(line.c_str() + i, &end);
  return end != line.c_str() + i;
}

}  // namespace

SpanFolder::SpanFolder()
    : std::ostream(nullptr), buf_(std::make_unique<LineBuf>()) {
  rdbuf(buf_.get());
  // The writer prints microseconds as doubles; three fixed decimals keep
  // every timestamp exact to the nanosecond.
  *this << std::fixed << std::setprecision(3);
}

SpanFolder::LineBuf::int_type SpanFolder::LineBuf::overflow(int_type ch) {
  if (ch == traits_type::eof()) return traits_type::not_eof(ch);
  if (ch == '\n')
    endLine();
  else
    line_ += static_cast<char>(ch);
  return ch;
}

std::streamsize SpanFolder::LineBuf::xsputn(const char* s,
                                            std::streamsize n) {
  for (std::streamsize i = 0; i < n; ++i) {
    if (s[i] == '\n')
      endLine();
    else
      line_ += s[i];
  }
  return n;
}

void SpanFolder::LineBuf::endLine() {
  std::string kind;
  if (readString(line_, "ph", kind) && kind == "X") {
    SpanEvent ev;
    double tid = 0.0, ts = 0.0, dur = 0.0;
    if (readNumber(line_, "tid", tid) && readNumber(line_, "ts", ts) &&
        readNumber(line_, "dur", dur) &&
        readString(line_, "cat", ev.category) &&
        readString(line_, "name", ev.name)) {
      ev.tid = static_cast<std::uint32_t>(tid);
      ev.startNs = std::llround(ts * 1000.0);
      ev.endNs = ev.startNs + std::llround(dur * 1000.0);
      threads[ev.tid].push_back(std::move(ev));
    } else {
      ++malformed;
    }
  }
  line_.clear();
}

SpanFold SpanFolder::finish() {
  flush();
  if (buf_->malformed > 0)
    throw std::runtime_error("unparsable span lines in the trace: " +
                             std::to_string(buf_->malformed));
  SpanFold fold;
  for (auto& [tid, spans] : buf_->threads) foldThread(std::move(spans), fold);
  buf_->threads.clear();
  return fold;
}

}  // namespace cbqbench
