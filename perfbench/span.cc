#include "span.h"

#include <atomic>
#include <chrono>
#include <cstdio>
#include <mutex>

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

std::atomic<bool> g_enabled{false};
const Clock::time_point g_epoch = Clock::now();

std::mutex g_mutex;  // Guards everything below.
std::vector<SpanRecord> g_spans;
std::string g_category = "setup";
int g_next_id = 0;
int g_next_thread = 0;

struct ThreadState {
  int thread = -1;
  std::vector<int> open;  // Ids of this thread's open spans, innermost last.
};
thread_local ThreadState t_state;

double Now() {
  return std::chrono::duration<double>(Clock::now() - g_epoch).count();
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

void EnableSpans(bool enabled) {
  g_enabled.store(enabled, std::memory_order_relaxed);
}

bool SpansEnabled() { return g_enabled.load(std::memory_order_relaxed); }

std::string SpanCategory() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_category;
}

void SetSpanCategory(const std::string& category) {
  std::lock_guard<std::mutex> lock(g_mutex);
  g_category = category;
}

Span::Span(const char* name) {
  if (!SpansEnabled()) return;
  active_ = true;
  record_.name = name;
  {
    std::lock_guard<std::mutex> lock(g_mutex);
    if (t_state.thread < 0) t_state.thread = g_next_thread++;
    record_.id = g_next_id++;
    record_.category = g_category;
  }
  record_.thread = t_state.thread;
  record_.parent = t_state.open.empty() ? -1 : t_state.open.back();
  t_state.open.push_back(record_.id);
  record_.start_s = Now();
}

Span::~Span() {
  if (!active_) return;
  record_.end_s = Now();
  t_state.open.pop_back();
  std::lock_guard<std::mutex> lock(g_mutex);
  g_spans.push_back(std::move(record_));
}

void Span::Arg(const char* key, double value) {
  if (!active_) return;
  for (auto& [name, total] : record_.args) {
    if (name == key) {
      total += value;
      return;
    }
  }
  record_.args.emplace_back(key, value);
}

std::vector<SpanRecord> RecordedSpans() {
  std::lock_guard<std::mutex> lock(g_mutex);
  return g_spans;
}

neuroprint::Status WriteChromeTrace(const std::string& path,
                                    const std::vector<SpanRecord>& spans) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    return neuroprint::Status::IOError("cannot write trace " + path);
  }
  std::fprintf(f, "[\n");
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%d,"
                 "\"parent\":%d",
                 JsonEscape(s.name).c_str(), JsonEscape(s.category).c_str(),
                 s.thread, s.start_s * 1e6, (s.end_s - s.start_s) * 1e6, s.id,
                 s.parent);
    for (const auto& [key, value] : s.args) {
      std::fprintf(f, ",\"%s\":%.17g", JsonEscape(key).c_str(), value);
    }
    std::fprintf(f, "}}%s\n", i + 1 < spans.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  const bool ok = std::ferror(f) == 0;
  if (std::fclose(f) != 0 || !ok) {
    return neuroprint::Status::IOError("short write to trace " + path);
  }
  return neuroprint::Status::OK();
}

}  // namespace perfbench
