// Recorder (bench.h): spans, per-event attribution and the span file.
#include <algorithm>
#include <iterator>

#include "bench.h"

namespace perfbench {
namespace {

namespace sim = ecf::sim;

// The per-layer metric an event's wall time is charged to, by its tag.
const char* tag_layer(std::size_t tag) {
  switch (static_cast<sim::EventTag>(tag)) {
    case sim::EventTag::kHeartbeat: return "cluster.heartbeat_s";
    case sim::EventTag::kMonitor: return "cluster.monitor_s";
    case sim::EventTag::kRecovery: return "cluster.recovery_s";
    case sim::EventTag::kScrub: return "cluster.scrub_s";
    case sim::EventTag::kClient: return "cluster.client_s";
    case sim::EventTag::kKeepAlive: return "nvmeof.keepalive_s";
    case sim::EventTag::kReconnect: return "nvmeof.reconnect_s";
    case sim::EventTag::kIostat: return "ecfault.iostat_s";
    case sim::EventTag::kFault: return "ecfault.fault_s";
    default: return "sim.generic_s";
  }
}

}  // namespace

void Recorder::begin_experiment(const std::string& name) {
  if (!on_) return;
  exp_ = static_cast<int>(exp_names_.size());
  exp_names_.push_back(name);
  events_.emplace_back(sim::kNumEventTags);
}

ecf::cluster::LogSinkFn Recorder::wrap_sink(ecf::cluster::LogSinkFn inner) {
  if (!on_) return inner;
  return [this, inner = std::move(inner)](const ecf::cluster::LogRecord& rec) {
    const double t0 = now_s();
    inner(rec);
    sink_s_ += now_s() - t0;
    ++log_records_;
  };
}

void Recorder::attach(sim::Engine& engine) {
  if (!on_) return;
  const auto& by_tag = engine.stats().executed_by_tag;
  seen_.assign(std::begin(by_tag), std::end(by_tag));
  run_start_ = last_ = now_s();
  sink_at_run_start_ = sink_at_last_ = sink_s_;
  engine.set_post_event_hook([this, &engine] { on_event(engine); });
}

void Recorder::on_event(const sim::Engine& engine) {
  const double t = now_s();
  const auto& by_tag = engine.stats().executed_by_tag;
  std::size_t tag = 0;
  while (tag < seen_.size() && by_tag[tag] == seen_[tag]) ++tag;
  if (tag == seen_.size()) return;  // no counter moved: nothing to charge
  ++seen_[tag];
  events_[static_cast<std::size_t>(exp_)][tag].add(
      (t - last_) - (sink_s_ - sink_at_last_));
  last_ = t;
  sink_at_last_ = sink_s_;
}

void Recorder::detach(sim::Engine& engine) {
  if (!on_) return;
  engine.set_post_event_hook(nullptr);
  const double dur = now_s() - run_start_;
  run_s_ += dur;
  spans_.push_back({exp_, "sim.run", run_start_ - origin_, dur,
                    sink_s_ - sink_at_run_start_});
  const std::vector<Agg>& aggs = events_[static_cast<std::size_t>(exp_)];
  for (std::size_t tag = 0; tag < aggs.size(); ++tag) {
    self_[tag_layer(tag)] += aggs[tag].sum_s;
  }
}

void Recorder::add_calls(const std::string& name, std::uint64_t count,
                         double sum_s, double max_s) {
  if (!on_) return;
  Agg& a = calls_[name];
  a.count += count;
  a.sum_s += sum_s;
  a.max_s = std::max(a.max_s, max_s);
}

Metrics Recorder::self_times() const {
  Metrics out = self_;
  if (on_) out["ecfault.sink_s"] += sink_s_;
  return out;
}

void Recorder::write(const std::string& path) const {
  if (!on_ || path.empty()) return;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return;
  for (std::size_t e = 0; e < exp_names_.size(); ++e) {
    std::fprintf(f, "{\"kind\":\"experiment\",\"exp\":%zu,\"name\":%s}\n", e,
                 json_quote(exp_names_[e]).c_str());
    for (std::size_t tag = 0; tag < events_[e].size(); ++tag) {
      const Agg& a = events_[e][tag];
      if (a.count == 0) continue;
      std::fprintf(f,
                   "{\"kind\":\"events\",\"exp\":%zu,\"tag\":\"%s\","
                   "\"layer\":\"%s\",\"count\":%llu,\"sum_s\":%.9g,"
                   "\"max_s\":%.9g}\n",
                   e, sim::to_string(static_cast<sim::EventTag>(tag)),
                   tag_layer(tag), static_cast<unsigned long long>(a.count),
                   a.sum_s, a.max_s);
    }
  }
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"kind\":\"span\",\"exp\":%d,\"name\":%s,\"start_s\":%.9f,"
                 "\"dur_s\":%.9g,\"nested_sink_s\":%.9g}\n",
                 s.exp, json_quote(s.name).c_str(), s.start_s, s.dur_s,
                 s.nested_sink_s);
  }
  for (const auto& [name, a] : calls_) {
    std::fprintf(f,
                 "{\"kind\":\"calls\",\"name\":%s,\"count\":%llu,"
                 "\"sum_s\":%.9g,\"max_s\":%.9g}\n",
                 json_quote(name).c_str(),
                 static_cast<unsigned long long>(a.count), a.sum_s, a.max_s);
  }
  std::fclose(f);
}

}  // namespace perfbench
