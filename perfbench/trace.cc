#include "trace.h"

#include <time.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <mutex>
#include <utility>

#include "report/table.h"

namespace perfbench {

namespace {

std::atomic<bool> g_enabled{false};
std::atomic<int> g_next_span{0};
std::atomic<int> g_next_thread{0};

std::mutex g_mu;
std::vector<Span>& recorded() {
  static std::vector<Span> spans;
  return spans;
}

thread_local int t_current = kNoSpan;
thread_local int t_thread = -1;

int thread_index() {
  if (t_thread < 0) t_thread = g_next_thread.fetch_add(1);
  return t_thread;
}

}  // namespace

double now_s() noexcept {
  using namespace std::chrono;
  return duration<double>(steady_clock::now().time_since_epoch()).count();
}

double cpu_s() noexcept {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

void Trace::set_enabled(bool on) noexcept {
  g_enabled.store(on, std::memory_order_relaxed);
}

bool Trace::enabled() noexcept {
  return g_enabled.load(std::memory_order_relaxed);
}

std::vector<Span> Trace::spans() {
  std::vector<Span> out;
  {
    std::lock_guard<std::mutex> lk(g_mu);
    out = recorded();
  }
  std::sort(out.begin(), out.end(),
            [](const Span& a, const Span& b) { return a.id < b.id; });
  return out;
}

ScopedSpan::ScopedSpan(std::string_view name, int parent) {
  if (!Trace::enabled()) return;
  name_ = name;
  id_ = g_next_span.fetch_add(1);
  parent_ = parent == kInherit ? t_current : parent;
  saved_current_ = t_current;
  t_current = id_;
  start_ = now_s();
}

ScopedSpan::~ScopedSpan() {
  if (id_ == kNoSpan) return;
  const double end = now_s();
  t_current = saved_current_;
  Span s{std::move(name_), id_, parent_, thread_index(), start_, end};
  std::lock_guard<std::mutex> lk(g_mu);
  recorded().push_back(std::move(s));
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  // Children's intervals per parent, clipped to the parent and merged,
  // so concurrent children (shard scans on several threads) are not
  // subtracted twice.
  std::vector<std::size_t> pos_of_id;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto id = static_cast<std::size_t>(spans[i].id);
    if (id >= pos_of_id.size()) pos_of_id.resize(id + 1, spans.size());
    pos_of_id[id] = i;
  }
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const auto p = static_cast<std::size_t>(s.parent);
    if (p >= pos_of_id.size() || pos_of_id[p] == spans.size()) continue;
    kids[pos_of_id[p]].emplace_back(s.start, s.end);
  }
  std::vector<double> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double lo = spans[i].start;  // everything before lo is counted
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, lo);
      const double to = std::min(b, spans[i].end);
      if (to > from) {
        covered += to - from;
        lo = to;
      }
    }
    self[i] = spans[i].duration() - covered;
  }
  return self;
}

bool write_chrome_trace(const std::filesystem::path& path,
                        const std::vector<Span>& spans,
                        const std::string& metadata_json) {
  std::error_code ec;
  std::filesystem::create_directories(path.parent_path(), ec);
  std::ofstream out(path);
  if (!out) return false;
  const double t0 = spans.empty() ? 0.0 : std::min_element(
      spans.begin(), spans.end(), [](const Span& a, const Span& b) {
        return a.start < b.start;
      })->start;
  const std::vector<double> self = self_times(spans);
  out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << metadata_json
      << ",\"traceEvents\":[";
  char buf[256];
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof buf,
                  "\"ph\":\"X\",\"pid\":1,\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                  "\"args\":{\"id\":%d,\"parent\":%d,\"self_us\":%.3f}}",
                  s.thread, (s.start - t0) * 1e6, s.duration() * 1e6, s.id,
                  s.parent, self[i] * 1e6);
    std::string event = i == 0 ? "\n{\"name\":" : ",\n{\"name\":";
    tokyonet::report::append_json_string(event, s.name);
    event += ",\"cat\":";
    tokyonet::report::append_json_string(
        event, std::string_view(s.name).substr(0, s.name.find('.')));
    out << event << "," << buf;
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

}  // namespace perfbench
