// perfbench_bin: one repetition of one ECFault benchmark workload.
//
//   perfbench_bin paper_suite|scale_1m|codec --seed N [--trace 0|1]
//                 [--smoke] [--trace-out FILE]
//   perfbench_bin selfcheck --seed N [--smoke]
//   perfbench_bin record
//
// A repetition prints one JSON object: wall_s, setup_s, peak_rss_mib, ops,
// failed, errors, digest, the codec rates, headline outputs and, with
// --trace 1, the per-layer metrics. run.py drives it; see README.md.
#include <sys/resource.h>

#include <cmath>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <string>

#include "bench.h"
#include "gf/gf_kernels.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace perfbench {
namespace {

std::string number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string object(const Metrics& m) {
  std::string out = "{";
  for (const auto& [name, v] : m) {
    if (out.size() > 1) out += ",";
    out += json_quote(name) + ":" + number(v);
  }
  return out + "}";
}

// Peak resident set of this process (VmHWM), in MiB.
double peak_rss_mib() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double seconds(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) +
         static_cast<double>(tv.tv_usec) * 1e-6;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_bin paper_suite|scale_1m|codec --seed N "
               "[--trace 0|1] [--smoke] [--trace-out FILE]\n"
               "       perfbench_bin selfcheck --seed N [--smoke]\n"
               "       perfbench_bin record\n");
  return 2;
}

int print_record() {
#if defined(__clang__)
  const std::string compiler = std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  const std::string compiler = std::string("gcc ") + __VERSION__;
#else
  const std::string compiler = "unknown";
#endif
#ifdef ECF_DCHECKS_ENABLED
  const bool dchecks = true;
#else
  const bool dchecks = false;
#endif
  std::printf(
      "{\"build_type\":%s,\"dchecks\":%s,\"compiler\":%s,\"gf_kernel\":%s}\n",
      json_quote(PERFBENCH_BUILD_TYPE).c_str(), dchecks ? "true" : "false",
      json_quote(compiler).c_str(),
      json_quote(ecf::gf::kernels().name).c_str());
  return 0;
}

int run_selfcheck(const Options& opt) {
  std::string why;
  bool ok = false;
  try {
    ok = composition_matches(opt, &why);
  } catch (const std::exception& e) {
    why = e.what();
  }
  std::printf("{\"ok\":%s,\"why\":%s}\n", ok ? "true" : "false",
              json_quote(why).c_str());
  return 0;
}

int run_workload(const Options& opt) {
  Recorder rec(opt.traced);
  RepResult res;
  if (opt.workload == "paper_suite") {
    res = run_paper_suite(opt, rec);
  } else if (opt.workload == "scale_1m") {
    res = run_scale_1m(opt, rec);
  } else if (opt.workload == "codec") {
    res = run_codec(opt, rec);
  } else {
    return usage();
  }
  const double rss = peak_rss_mib();
  if (opt.traced) {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    double attributed = 0;
    for (const auto& [layer, s] : rec.self_times()) attributed += s;
    res.layers["trace.wall_s"] = res.wall_s;
    res.layers["trace.unattributed_s"] = res.wall_s - attributed;
    res.layers["proc.user_s"] = seconds(ru.ru_utime);
    res.layers["proc.sys_s"] = seconds(ru.ru_stime);
    res.layers["proc.minor_faults"] = static_cast<double>(ru.ru_minflt);
    if (opt.workload == "codec") {
      for (const auto& [name, v] : gf_probe(opt.smoke)) res.layers[name] = v;
    }
    rec.write(opt.trace_out);
  }
  std::string errors = "[";
  for (const std::string& e : res.errors) {
    if (errors.size() > 1) errors += ",";
    errors += json_quote(e);
  }
  errors += "]";
  char digest[32];
  std::snprintf(digest, sizeof(digest), "%016llx",
                static_cast<unsigned long long>(res.digest.value()));
  std::printf(
      "{\"workload\":%s,\"wall_s\":%s,\"setup_s\":%s,\"peak_rss_mib\":%s,"
      "\"ops\":%llu,\"failed\":%llu,\"errors\":%s,\"digest\":\"%s\","
      "\"rates\":%s,\"layers\":%s,\"outputs\":%s}\n",
      json_quote(opt.workload).c_str(), number(res.wall_s).c_str(),
      number(res.setup_s).c_str(), number(rss).c_str(),
      static_cast<unsigned long long>(res.ops),
      static_cast<unsigned long long>(res.failed), errors.c_str(), digest,
      object(res.rates).c_str(), object(res.layers).c_str(),
      object(res.outputs).c_str());
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  Options opt;
  opt.workload = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--seed" && has_value) {
      opt.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--trace" && has_value) {
      opt.traced = std::string(argv[++i]) == "1";
    } else if (arg == "--trace-out" && has_value) {
      opt.trace_out = argv[++i];
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      return usage();
    }
  }
  try {
    if (opt.workload == "record") return print_record();
    if (opt.workload == "selfcheck") return run_selfcheck(opt);
    return run_workload(opt);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_bin: %s\n", e.what());
    return 1;
  }
}
