#pragma once
/// \file spans.hpp
/// In-memory span recorder of the traced run. A span is (name, start, end,
/// parent); spans are kept in a preallocated vector while the run measures
/// and written out as JSON lines when it ends. A span's self time is its
/// duration minus the part of its interval covered by its children.

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int32_t parent = -1;  ///< index of the parent span, -1 for a root
};

/// Self time of a span covering [start, end): its duration minus the union
/// of the child intervals, each clipped to the parent's interval.
inline std::int64_t self_time_ns(
    std::int64_t start, std::int64_t end,
    std::vector<std::pair<std::int64_t, std::int64_t>> children) {
  std::sort(children.begin(), children.end());
  std::int64_t covered = 0;
  std::int64_t cursor = start;
  for (auto [b, e] : children) {
    b = std::max(b, cursor);
    e = std::min(e, end);
    if (e <= b) continue;
    covered += e - b;
    cursor = e;
  }
  return (end - start) - covered;
}

class SpanRecorder {
 public:
  explicit SpanRecorder(std::size_t capacity) { spans_.reserve(capacity); }

  /// Opens a span and returns its index, or -1 once the preallocated
  /// capacity is used up (counted in dropped(), never reallocating).
  std::int32_t open(const char* name, std::int32_t parent = -1) {
    if (spans_.size() == spans_.capacity()) {
      ++dropped_;
      return -1;
    }
    spans_.push_back({name, now_ns(), 0, parent});
    return static_cast<std::int32_t>(spans_.size() - 1);
  }

  void close(std::int32_t id) {
    if (id >= 0) spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// Self time of every span, by index.
  [[nodiscard]] std::vector<std::int64_t> self_times() const {
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans_.size());
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                              s.end_ns);
      }
    }
    std::vector<std::int64_t> out(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      out[i] = self_time_ns(spans_[i].start_ns, spans_[i].end_ns,
                            std::move(kids[i]));
    }
    return out;
  }

  /// Writes one JSON object per span: id, name, start, end, parent, self.
  bool write_jsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const std::vector<std::int64_t> self = self_times();
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "{\"id\": %zu, \"name\": \"%s\", \"start_ns\": %lld, "
                   "\"end_ns\": %lld, \"parent\": %d, \"self_ns\": %lld}\n",
                   i, s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(self[i]));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

/// RAII span on an optional recorder: a null recorder records nothing, so
/// the untraced run pays one branch per boundary.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* rec, const char* name, std::int32_t parent = -1)
      : rec_(rec), id_(rec != nullptr ? rec->open(name, parent) : -1) {}
  ~ScopedSpan() {
    if (rec_ != nullptr) rec_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  SpanRecorder* rec_;
  std::int32_t id_;
};

}  // namespace perfbench
