#include "trace.h"

#include <algorithm>
#include <fstream>

namespace perfbench {

int Tracer::open(const char* name) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start_ns = ns(Clock::now());
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(s);
  const auto index = static_cast<std::int32_t>(spans_.size() - 1);
  open_.push_back(index);
  return index;
}

void Tracer::close(int index) {
  if (index < 0) return;
  spans_[static_cast<std::size_t>(index)].end_ns = ns(Clock::now());
  // Spans close in LIFO order; tolerate a missed close by unwinding to it.
  while (!open_.empty()) {
    const std::int32_t top = open_.back();
    open_.pop_back();
    if (top == index) break;
  }
}

void Tracer::record(const char* name, Clock::time_point start,
                    Clock::time_point end) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start_ns = ns(start);
  s.end_ns = ns(end);
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(s);
}

std::vector<std::int64_t> self_times_ns(const std::vector<Span>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const std::int32_t p = spans[i].parent;
    if (p >= 0 && static_cast<std::size_t>(p) < spans.size()) {
      children[static_cast<std::size_t>(p)].push_back(i);
    }
  }
  std::vector<std::int64_t> self(spans.size(), 0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::vector<std::pair<std::int64_t, std::int64_t>> iv;
    for (const std::size_t c : children[i]) {
      const std::int64_t a = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t b = std::min(spans[c].end_ns, s.end_ns);
      if (a < b) iv.emplace_back(a, b);
    }
    std::sort(iv.begin(), iv.end());
    std::int64_t covered = 0;
    std::int64_t cur_a = 0, cur_b = 0;
    bool have = false;
    for (const auto& [a, b] : iv) {
      if (have && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (have) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      have = true;
    }
    if (have) covered += cur_b - cur_a;
    self[i] = (s.end_ns - s.start_ns) - covered;
  }
  return self;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  const std::vector<std::int64_t> self = self_times_ns(spans_);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\": " << i << ", \"run\": " << s.run << ", \"name\": \""
        << s.name << "\", \"start_ns\": " << s.start_ns
        << ", \"end_ns\": " << s.end_ns << ", \"parent\": " << s.parent
        << ", \"self_ns\": " << self[i] << "}\n";
  }
  out.flush();
  return out.good();
}

}  // namespace perfbench
