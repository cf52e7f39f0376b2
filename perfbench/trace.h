// In-memory span recorder for the benchmark driver.
//
// The driver wraps its calls into tokyonet's public entry points in
// ScopedSpans: each records its name, thread, start, end and parent
// span. Spans stay in memory until the driver asks for them; nothing is
// written while a measured phase runs. When tracing is off a ScopedSpan
// costs one relaxed atomic load.
//
// A span's parent is the innermost open span on the constructing
// thread, unless one is passed explicitly (work a span hands to another
// thread, such as a shard scan on a prefetcher thread, names the pass
// that caused it).
#pragma once

#include <filesystem>
#include <string>
#include <string_view>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock (arbitrary epoch).
[[nodiscard]] double now_s() noexcept;

/// Process CPU time (all threads), in seconds.
[[nodiscard]] double cpu_s() noexcept;

inline constexpr int kNoSpan = -1;

struct Span {
  std::string name;
  int id = kNoSpan;
  int parent = kNoSpan;
  int thread = 0;  // small dense id, 0 for the first thread that traced
  double start = 0.0;
  double end = 0.0;

  [[nodiscard]] double duration() const noexcept { return end - start; }
};

class Trace {
 public:
  static void set_enabled(bool on) noexcept;
  [[nodiscard]] static bool enabled() noexcept;
  /// Every span closed so far, ordered by id.
  [[nodiscard]] static std::vector<Span> spans();
};

class ScopedSpan {
 public:
  static constexpr int kInherit = -2;

  /// `name` is copied only when tracing is on.
  explicit ScopedSpan(std::string_view name, int parent = kInherit);
  ~ScopedSpan();

  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// This span's id (kNoSpan when tracing was off at construction).
  [[nodiscard]] int id() const noexcept { return id_; }

 private:
  std::string name_;
  int id_ = kNoSpan;
  int parent_ = kNoSpan;
  int saved_current_ = kNoSpan;
  double start_ = 0.0;
};

/// Self time of every span, indexed like `spans`: its duration minus
/// the part of it that its children's intervals cover.
[[nodiscard]] std::vector<double> self_times(const std::vector<Span>& spans);

/// Writes `spans` as Chrome trace-event JSON ("X" complete events, one
/// track per thread), loadable in Perfetto or chrome://tracing.
/// `metadata_json` must be a JSON object; it is stored as "otherData".
[[nodiscard]] bool write_chrome_trace(const std::filesystem::path& path,
                                      const std::vector<Span>& spans,
                                      const std::string& metadata_json);

}  // namespace perfbench
