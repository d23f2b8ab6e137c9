// In-memory spans of the benchmark's traced run.
//
// The traced run records, from the benchmark's own code, one span per
// call into a layer's public entry point: name, start, end, parent
// span and request id. Spans stay in memory (one log per client
// thread, no locking) and are written out as JSON lines at exit.
#ifndef APUAMA_E2E_BENCH_SPANS_H_
#define APUAMA_E2E_BENCH_SPANS_H_

#include <cstdint>
#include <string>
#include <vector>

namespace apuama::e2e {

/// Monotonic clock in nanoseconds.
int64_t NowNs();

struct SpanRecord {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root span of its request
  uint64_t request = 0;
  std::string name;      // "<layer>.<entry point>", e.g. "apuama.read"
  std::string cls;       // request class ("Q5", "customer", "refresh")
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  /// False for a span timed beside its parent rather than as part of
  /// it (a step the plan cache serves on the request path): it does
  /// not count toward the parent's covered time.
  bool nested = true;

  int64_t duration_ns() const { return end_ns - start_ns; }
};

/// Span log of one client thread. Ids are unique across logs because
/// each log draws from its own `id_base`.
class SpanLog {
 public:
  explicit SpanLog(uint64_t id_base) : next_id_(id_base) {}

  uint64_t NewRequest() { return ++next_id_; }
  uint64_t Record(const std::string& name, const std::string& cls,
                  uint64_t parent, uint64_t request, int64_t start_ns,
                  int64_t end_ns, bool nested = true);

  const std::vector<SpanRecord>& spans() const { return spans_; }

 private:
  uint64_t next_id_;
  std::vector<SpanRecord> spans_;
};

/// Self time of every span: its duration minus the length of the
/// union of its nested children's intervals, floored at 0. Aligned
/// with `spans`.
std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

/// Writes one JSON object per span (with its self time) to `path`.
bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans,
                const std::vector<int64_t>& self_ns);

}  // namespace apuama::e2e

#endif  // APUAMA_E2E_BENCH_SPANS_H_
