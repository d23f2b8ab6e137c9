#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace apuama::e2e {

int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t SpanLog::Record(const std::string& name, const std::string& cls,
                         uint64_t parent, uint64_t request, int64_t start_ns,
                         int64_t end_ns, bool nested) {
  SpanRecord s;
  s.id = ++next_id_;
  s.parent = parent;
  s.request = request;
  s.name = name;
  s.cls = cls;
  s.start_ns = start_ns;
  s.end_ns = end_ns;
  s.nested = nested;
  spans_.push_back(std::move(s));
  return spans_.back().id;
}

std::vector<int64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  std::unordered_map<uint64_t, std::vector<std::pair<int64_t, int64_t>>>
      children;
  for (const SpanRecord& s : spans) {
    if (s.parent != 0 && s.nested) {
      children[s.parent].emplace_back(s.start_ns, s.end_ns);
    }
  }
  std::vector<int64_t> self;
  self.reserve(spans.size());
  for (const SpanRecord& s : spans) {
    int64_t covered = 0;
    auto it = children.find(s.id);
    if (it != children.end()) {
      auto& iv = it->second;
      std::sort(iv.begin(), iv.end());
      int64_t lo = iv[0].first, hi = iv[0].second;
      for (const auto& [a, b] : iv) {
        if (a > hi) {
          covered += hi - lo;
          lo = a;
          hi = b;
        } else {
          hi = std::max(hi, b);
        }
      }
      covered += hi - lo;
    }
    self.push_back(std::max<int64_t>(0, s.duration_ns() - covered));
  }
  return self;
}

bool WriteSpans(const std::string& path, const std::vector<SpanRecord>& spans,
                const std::vector<int64_t>& self_ns) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"request\": %llu, \"span\": %llu, \"parent\": %llu, "
                 "\"name\": \"%s\", \"class\": \"%s\", \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"self_ns\": %lld, \"nested\": %s}\n",
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent), s.name.c_str(),
                 s.cls.c_str(), static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<long long>(self_ns[i]),
                 s.nested ? "true" : "false");
  }
  return std::fclose(f) == 0;
}

}  // namespace apuama::e2e
