// perfbench_run: runs one benchmark workload in this process and writes
// its raw measurements (set-up times, per-pass clocks, per-op latency
// samples, output-check tallies, the run environment) as JSON. run.py
// builds this binary, turns the raw record into the metrics BENCHMARK.json
// names, and prints the result line.
//
// Usage:
//   perfbench_run --workload NAME --seed N --seconds S --trace 0|1
//                 --data DIR --out RAW.json [--trace-out TRACE.json]
//                 [--tiny]
//
// Set-up runs kSetups times and the last one's inputs are kept. Passes
// then repeat until --seconds have elapsed (and at least the workload's
// MinPasses). With --trace 1 the untraced passes are followed by the same
// number of seconds of traced passes, and the spans are written once, at
// the end, as chrome-trace JSON.

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "linalg/simd/simd.h"
#include "span.h"
#include "util/thread_pool.h"
#include "workloads.h"

namespace {

constexpr int kSetups = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  bool tiny = false;
  std::string data_dir;
  std::string out;
  std::string trace_out;
};

bool ParseArgs(int argc, char** argv, Args& args) {
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* v = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--tiny") {
      args.tiny = true;
      continue;
    }
    if (v == nullptr) return false;
    ++i;
    if (arg == "--workload") {
      args.workload = v;
    } else if (arg == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
      have_seed = true;
    } else if (arg == "--seconds") {
      args.seconds = std::atof(v);
    } else if (arg == "--trace") {
      args.trace = std::string(v) == "1";
    } else if (arg == "--data") {
      args.data_dir = v;
    } else if (arg == "--out") {
      args.out = v;
    } else if (arg == "--trace-out") {
      args.trace_out = v;
    } else {
      return false;
    }
  }
  return !args.workload.empty() && have_seed && args.seconds > 0.0 &&
         !args.data_dir.empty() && !args.out.empty() &&
         (!args.trace || !args.trace_out.empty());
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

void WriteNumbers(std::FILE* f, const std::vector<double>& values) {
  std::fprintf(f, "[");
  for (std::size_t i = 0; i < values.size(); ++i) {
    std::fprintf(f, "%s%.9g", i == 0 ? "" : ",", values[i]);
  }
  std::fprintf(f, "]");
}

struct PassOut {
  bool traced = false;
  double wall_s = 0.0;
  double cpu_s = 0.0;
  perfbench::PassRecord record;
};

double SecondsSince(std::chrono::steady_clock::time_point t0) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
      .count();
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    std::fprintf(stderr,
                 "usage: perfbench_run --workload NAME --seed N --seconds S "
                 "--trace 0|1 --data DIR --out FILE [--trace-out FILE] "
                 "[--tiny]\n");
    return 2;
  }
  perfbench::RunSettings settings;
  settings.seed = args.seed;
  settings.threads = std::clamp<std::size_t>(
      std::thread::hardware_concurrency(), 1, 4);
  settings.tiny = args.tiny;
  settings.data_dir = args.data_dir + "/" + args.workload;
  neuroprint::SetDefaultThreadCount(settings.threads);

  auto workload = perfbench::MakeWorkload(args.workload, settings);
  if (workload == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }

  perfbench::EnableSpans(args.trace);
  perfbench::SetSpanCategory("setup");
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    const neuroprint::Status status = workload->Setup();
    if (!status.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", status.ToString().c_str());
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
  }

  std::vector<PassOut> passes;
  auto run_passes = [&](bool traced) {
    perfbench::EnableSpans(traced);
    perfbench::SetSpanCategory("pass");
    const auto t0 = std::chrono::steady_clock::now();
    for (std::size_t n = 0;
         n < workload->MinPasses() || SecondsSince(t0) < args.seconds; ++n) {
      PassOut pass;
      pass.traced = traced;
      perfbench::Meter meter;
      workload->Pass(meter, pass.record);
      pass.wall_s = meter.wall_s();
      pass.cpu_s = meter.cpu_s();
      passes.push_back(std::move(pass));
    }
    perfbench::EnableSpans(false);
  };
  run_passes(false);
  if (args.trace) run_passes(true);

  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const double peak_rss_mb = static_cast<double>(usage.ru_maxrss) / 1024.0;

  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", args.out.c_str());
    return 1;
  }
  namespace simd = neuroprint::linalg::simd;
  std::fprintf(f, "{\"workload\":%s,\"seed\":%llu,\"threads\":%zu,",
               JsonString(args.workload).c_str(),
               static_cast<unsigned long long>(args.seed), settings.threads);
  std::fprintf(f, "\"isa\":%s,\"build_type\":%s,\"tiny\":%s,",
               JsonString(simd::IsaName(simd::ActiveIsa())).c_str(),
               JsonString(PERFBENCH_BUILD_TYPE).c_str(),
               args.tiny ? "true" : "false");
  std::fprintf(f, "\"dimensions\":{");
  bool first = true;
  for (const auto& [key, value] : workload->Dimensions()) {
    std::fprintf(f, "%s%s:%.9g", first ? "" : ",", JsonString(key).c_str(),
                 value);
    first = false;
  }
  std::fprintf(f, "},\"peak_rss_mb\":%.6f,\"setup_s\":", peak_rss_mb);
  WriteNumbers(f, setup_s);
  std::fprintf(f, ",\"passes\":[\n");
  for (std::size_t p = 0; p < passes.size(); ++p) {
    const PassOut& pass = passes[p];
    const perfbench::PassRecord& r = pass.record;
    std::fprintf(f,
                 "{\"traced\":%s,\"wall_s\":%.9g,\"cpu_s\":%.9g,"
                 "\"known_build_s\":%.9g,\"ops\":%zu,\"hits\":%.9g,"
                 "\"trials\":%.9g,\"attempted\":%zu,\"failed\":%zu,"
                 "\"failures\":[",
                 pass.traced ? "true" : "false", pass.wall_s, pass.cpu_s,
                 r.known_build_s, r.ops, r.hits, r.trials, r.attempted,
                 r.failed);
    for (std::size_t i = 0; i < r.failures.size(); ++i) {
      std::fprintf(f, "%s%s", i == 0 ? "" : ",",
                   JsonString(r.failures[i]).c_str());
    }
    std::fprintf(f, "],\"samples_ms\":{");
    first = true;
    for (const auto& [op, samples] : r.samples_ms) {
      std::fprintf(f, "%s%s:", first ? "" : ",", JsonString(op).c_str());
      WriteNumbers(f, samples);
      first = false;
    }
    std::fprintf(f, "}}%s\n", p + 1 < passes.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) {
    std::fprintf(stderr, "short write to %s\n", args.out.c_str());
    return 1;
  }

  if (args.trace) {
    const neuroprint::Status written = perfbench::WriteChromeTrace(
        args.trace_out, perfbench::RecordedSpans());
    if (!written.ok()) {
      std::fprintf(stderr, "%s\n", written.ToString().c_str());
      return 1;
    }
  }
  std::error_code ec;
  std::filesystem::remove_all(settings.data_dir, ec);
  return 0;
}
