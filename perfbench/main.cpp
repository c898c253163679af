// perfbench: the repository benchmark.
//
//   perfbench --workload <fm-n64|oracle-n128|chaos-net> --seed N
//             --seconds S --trace <0|1>
//
// --trace 0 measures the end-to-end metrics on the untraced program;
// --trace 1 reruns the same inputs with every layer behind a timing
// decorator and prints the per-layer metrics. Stdout ends with a stamp
// line (host, SIMD path, compiler, build type, seed, sample counts) and
// then one JSON result line: {"correct", "attempted", "failed", "metrics"}.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <new>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>

#if defined(__x86_64__) || defined(__i386__)
#include <cpuid.h>
#endif

#include "field/fp_simd.h"
#include "layers.h"
#include "workloads.h"

// Counting allocator: sim.allocs_per_beat is the per-thread delta across a
// timed span. Thread-local, so sweep workers never contend on it.
namespace {
thread_local std::uint64_t t_allocations = 0;
}  // namespace

std::uint64_t perfbench::thread_allocations() { return t_allocations; }

void* operator new(std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  ++t_allocations;
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

// 17 significant digits: reads back as the same double.
std::string json_number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string cpu_model() {
#if defined(__x86_64__) || defined(__i386__)
  unsigned regs[12] = {};
  if (__get_cpuid_max(0x80000000u, nullptr) >= 0x80000004u) {
    for (unsigned i = 0; i < 3; ++i) {
      __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                  &regs[4 * i + 2], &regs[4 * i + 3]);
    }
    std::string s(reinterpret_cast<const char*>(regs), sizeof regs);
    s = s.substr(0, s.find('\0'));
    const auto b = s.find_first_not_of(' ');
    const auto e = s.find_last_not_of(' ');
    if (b != std::string::npos) return s.substr(b, e - b + 1);
  }
#endif
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

// Keeps AVX2 and scalar, or optimized and debug, numbers from being read
// as one series.
std::string stamp_line(const perfbench::RunOptions& o,
                       const perfbench::RunResult& r) {
  std::ostringstream os;
  os << "{\"stamp\": {\"workload\": " << json_string(o.workload)
     << ", \"seed\": " << o.seed << ", \"trace\": " << (o.trace ? 1 : 0)
     << ", \"seconds\": " << json_number(o.seconds)
     << ", \"nproc\": " << std::thread::hardware_concurrency()
     << ", \"cpu\": " << json_string(cpu_model())
     << ", \"simd\": " << json_string(ssbft::m61simd::backend_name())
     << ", \"compiler\": " << json_string(compiler())
     << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
     << ", \"beat_samples\": " << r.beat_samples
     << ", \"unit_samples\": " << r.unit_samples << "}}";
  return os.str();
}

std::string result_line(const perfbench::RunResult& r) {
  std::ostringstream os;
  os << "{\"correct\": " << (r.correct ? "true" : "false")
     << ", \"attempted\": " << r.attempted << ", \"failed\": " << r.failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    const perfbench::Metric& m = r.metrics[i];
    os << (i ? ", " : "") << json_string(m.name)
       << ": {\"value\": " << json_number(m.value)
       << ", \"unit\": " << json_string(m.unit) << "}";
  }
  os << "}}";
  return os.str();
}

int usage(const char* why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload <";
  const auto& names = perfbench::workload_names();
  for (std::size_t i = 0; i < names.size(); ++i) {
    std::cerr << (i ? "|" : "") << names[i];
  }
  std::cerr << "> --seed N --seconds S --trace <0|1>\n";
  return 2;
}

bool parse_u64(const std::string& s, std::uint64_t* out) {
  if (s.empty() || s.find_first_not_of("0123456789") != std::string::npos) {
    return false;
  }
  try {
    *out = std::stoull(s);
  } catch (const std::exception&) {
    return false;
  }
  return true;
}

// Seeds may be negative; they map to their two's-complement bits.
bool parse_seed(const std::string& s, std::uint64_t* out) {
  if (s.size() > 1 && s[0] == '-' && parse_u64(s.substr(1), out)) {
    *out = ~*out + 1;
    return true;
  }
  return parse_u64(s, out);
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunOptions o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    std::uint64_t v = 0;
    if (arg == "--workload") {
      o.workload = val;
      have_workload = true;
    } else if (arg == "--seed" && parse_seed(val, &v)) {
      o.seed = v;
    } else if (arg == "--seconds" && parse_u64(val, &v) && v >= 1 &&
               v <= 600) {
      o.seconds = static_cast<double>(v);
    } else if (arg == "--trace" && (val == "0" || val == "1")) {
      o.trace = val == "1";
    } else {
      return usage(("bad argument " + arg + " " + val).c_str());
    }
  }
  if (!have_workload) return usage("--workload is required");

  perfbench::RunResult r;
  try {
    r = perfbench::run_workload(o);
  } catch (const std::invalid_argument& e) {
    return usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
  for (const std::string& p : r.problems) {
    std::cerr << "perfbench: check failed: " << p << "\n";
  }
  std::cout << stamp_line(o, r) << "\n" << result_line(r) << std::endl;
  return 0;
}
