#pragma once
// Folds the program's span trace into per-name totals.
//
// The tracer (obs/tracer.hpp) keeps spans in per-thread rings and hands
// them out only as Chrome trace-event JSON. SpanFolder is an ostream that
// parses that JSON line by line as obs::writeChromeTrace writes it, so a
// trace of millions of spans is folded without holding its text. Spans
// on one thread nest (they are RAII scopes), so sorting a thread's spans
// by (start, longest first) and walking them with a stack recovers the
// call tree.
//
// Per span key ("category/name") it accumulates:
//  * count, inclusive ns, and self ns — the span's duration minus the
//    part of it its direct child spans cover;
//  * phase ns for engine phases (categories `engine` and `bdd`): the
//    duration minus nested engine phases, so a compaction inside a
//    fixpoint check is not counted twice while the SAT, sweep and
//    quantification work a phase calls stays in it.
// Container spans (the benchmark's own `bench/resume` and the slice
// scheduler's `sched/<engine>`) hold the engine phases; the part of a
// container that no phase covers is accumulated as `unattributedNs`.

#include <cstdint>
#include <map>
#include <memory>
#include <ostream>
#include <streambuf>
#include <string>
#include <vector>

namespace cbqbench {

struct SpanTotals {
  std::uint64_t count = 0;
  std::int64_t inclusiveNs = 0;
  std::int64_t selfNs = 0;
  std::int64_t phaseNs = 0;  ///< engine phases only (see above)
};

struct SpanFold {
  std::map<std::string, SpanTotals> byKey;  ///< key: "category/name"
  std::int64_t containerNs = 0;
  std::int64_t unattributedNs = 0;
  std::uint64_t spans = 0;

  void merge(const SpanFold& other);
  /// Totals for `key`; zeros when no such span was recorded.
  [[nodiscard]] SpanTotals at(const std::string& key) const;
};

/// One parsed trace event (times in ns since the trace anchor).
struct SpanEvent {
  std::uint32_t tid = 0;
  std::int64_t startNs = 0;
  std::int64_t endNs = 0;
  std::string category;
  std::string name;
};

/// Folds the spans of one thread (any order) into `out`.
void foldThread(std::vector<SpanEvent> spans, SpanFold& out);

/// An output stream that parses obs::writeChromeTrace output. Call
/// finish() after the write to fold what was parsed.
class SpanFolder : public std::ostream {
 public:
  SpanFolder();
  /// Folds every parsed span and returns the totals. Throws
  /// std::runtime_error when a trace line could not be parsed.
  SpanFold finish();

 private:
  class LineBuf : public std::streambuf {
   public:
    std::map<std::uint32_t, std::vector<SpanEvent>> threads;
    std::size_t malformed = 0;

   protected:
    int_type overflow(int_type ch) override;
    std::streamsize xsputn(const char* s, std::streamsize n) override;

   private:
    void endLine();
    std::string line_;
  };
  std::unique_ptr<LineBuf> buf_;
};

}  // namespace cbqbench
