// Shared pieces of perfbench_bin, the measuring half of the ECFault
// benchmark; perfbench/run.py drives it.
//
// One invocation of perfbench_bin runs ONE repetition of one workload in a
// fresh process, so the process's peak RSS is that workload's own
// high-water, and prints what it measured as one JSON object. run.py
// repeats it for the run's duration and reports medians.
#pragma once

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "cluster/types.h"
#include "sim/engine.h"

namespace perfbench {

inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline std::string json_quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

// Flat metric name -> value.
using Metrics = std::map<std::string, double>;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  bool traced = false;
  // Reduced sizes, for the benchmark's own tests only.
  bool smoke = false;
  // Where a traced repetition writes its spans (empty = nowhere).
  std::string trace_out;
};

// FNV-1a over a canonical rendering of outputs. Doubles are rendered in
// hexfloat, so the digest changes iff some output bit changes.
class Digest {
 public:
  void add(const std::string& s) {
    for (const unsigned char c : s) mix(c);
    mix(0xff);
  }
  void add(double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    add(std::string(buf));
  }
  void add(std::uint64_t v) { add(std::to_string(v)); }
  // Bulk bytes (codec buffers), folded a 64-bit word at a time.
  void add_bytes(const std::uint8_t* p, std::size_t n) {
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
      std::uint64_t word = 0;
      std::memcpy(&word, p + i, 8);
      mix(word);
    }
    for (; i < n; ++i) mix(p[i]);
    mix(n);
  }
  std::uint64_t value() const { return h_; }

 private:
  void mix(std::uint64_t v) {
    h_ ^= v;
    h_ *= 0x100000001b3ull;
  }
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};

// Wall-clock attribution for one repetition.
//
// Spans are taken in the benchmark's own files, around calls into the
// simulator's public API; nothing in src/ is instrumented. Per-event time
// comes from Engine::set_post_event_hook: the hook fires after each event,
// and the EngineStats::executed_by_tag counter that advanced names the
// event's tag. The interval since the previous hook (engine pop + handler)
// goes to that tag's layer. Log-sink time nests inside events and phases
// and is subtracted from their self time. When off, every entry point is a
// plain call.
class Recorder {
 public:
  explicit Recorder(bool on) : on_(on), origin_(now_s()) {}
  Recorder(const Recorder&) = delete;
  Recorder& operator=(const Recorder&) = delete;

  bool on() const { return on_; }

  // Spans recorded until the next call share this experiment id.
  void begin_experiment(const std::string& name);

  // Runs fn; when on, its self time is attributed to `layer` (a per-layer
  // metric name in seconds) and a span is kept.
  template <class Fn>
  void phase(const char* layer, Fn&& fn) {
    if (!on_) {
      fn();
      return;
    }
    const double t0 = now_s();
    const double sink0 = sink_s_;
    fn();
    const double dur = now_s() - t0;
    const double nested = sink_s_ - sink0;
    add_self(layer, dur - nested);
    spans_.push_back({exp_, layer, t0 - origin_, dur, nested});
  }

  // A sink that times and counts every log record passed to `inner`.
  ecf::cluster::LogSinkFn wrap_sink(ecf::cluster::LogSinkFn inner);

  // Per-event attribution around Engine::run: attach() installs the hook,
  // detach() removes it and keeps the whole run as one span.
  void attach(ecf::sim::Engine& engine);
  void detach(ecf::sim::Engine& engine);

  // Self time (seconds) charged directly to a layer.
  void add_self(const std::string& layer, double s) { self_[layer] += s; }
  // Aggregate of one kind of codec call, kept for the span file.
  void add_calls(const std::string& name, std::uint64_t count, double sum_s,
                 double max_s);

  // Attributed seconds per layer; log-sink time is under ecfault.sink_s.
  Metrics self_times() const;
  std::uint64_t log_records() const { return log_records_; }
  // Wall time inside Engine::run, summed over experiments.
  double run_s() const { return run_s_; }

  // Spans, per-experiment event aggregates and call aggregates as JSON
  // lines.
  void write(const std::string& path) const;

 private:
  struct Span {
    int exp;
    std::string name;
    double start_s;
    double dur_s;
    double nested_sink_s;
  };
  struct Agg {
    std::uint64_t count = 0;
    double sum_s = 0;
    double max_s = 0;
    void add(double s) {
      ++count;
      sum_s += s;
      if (s > max_s) max_s = s;
    }
  };

  void on_event(const ecf::sim::Engine& engine);

  bool on_;
  double origin_;
  int exp_ = -1;
  std::vector<std::string> exp_names_;
  std::vector<Span> spans_;
  std::vector<std::vector<Agg>> events_;  // [experiment][sim::EventTag]
  std::map<std::string, Agg> calls_;
  Metrics self_;
  double sink_s_ = 0;
  std::uint64_t log_records_ = 0;
  double run_s_ = 0;
  // Hook state.
  std::vector<std::uint64_t> seen_;
  double last_ = 0;
  double sink_at_last_ = 0;
  double run_start_ = 0;
  double sink_at_run_start_ = 0;
};

// One repetition's measurements.
struct RepResult {
  double wall_s = 0;
  double setup_s = 0;
  std::uint64_t ops = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> errors;  // the first few failures, for the log
  Digest digest;
  Metrics rates;    // codec GB/s (codec job only)
  Metrics layers;   // per-layer counters and times (traced repetitions)
  Metrics outputs;  // a few headline outputs, for the log

  void fail(const std::string& why) {
    ++failed;
    if (errors.size() < 8) errors.push_back(why);
  }
};

RepResult run_paper_suite(const Options& opt, Recorder& rec);
RepResult run_scale_1m(const Options& opt, Recorder& rec);
RepResult run_codec(const Options& opt, Recorder& rec);

// GF kernel throughput at the codec sizes (the gf.* per-layer metrics).
Metrics gf_probe(bool smoke);

// Runs one profile through the benchmark's composition and through
// ecfault::Coordinator::run_experiment; false, with a reason, when any
// output differs.
bool composition_matches(const Options& opt, std::string* why);

}  // namespace perfbench
