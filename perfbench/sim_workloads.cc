// The simulation workloads, paper_suite and scale_1m.
//
// Every experiment runs through Coordinator::run_experiment's public steps,
// composed here (compose()) so each step can be timed from outside;
// composition_matches() checks the composition against the Coordinator
// itself. The profiles are copies of bench/bench_common.h,
// bench/bench_fig*.cc, bench/bench_table3_wa.cc and
// examples/scale_campaign.cpp, so later edits there leave these workloads
// unchanged. Fields not named keep their ClusterConfig defaults, and no
// default-off knob is set.
#include <algorithm>
#include <cmath>
#include <exception>
#include <optional>
#include <utility>

#include "bench.h"
#include "cluster/cluster.h"
#include "ecfault/coordinator.h"
#include "ecfault/fault_injector.h"
#include "ecfault/logger.h"
#include "ecfault/msgbus.h"
#include "ecfault/timeline.h"
#include "ecfault/worker.h"
#include "sim/hardware_profiles.h"
#include "util/bytes.h"

namespace perfbench {
namespace {

namespace cluster = ecf::cluster;
namespace ecfault = ecf::ecfault;
namespace sim = ecf::sim;
namespace util = ecf::util;

using ecfault::ExperimentProfile;
using ecfault::ExperimentResult;

struct Experiment {
  std::string name;
  ExperimentProfile profile;  // one seeded run
};

const char* code_label(bool clay) { return clay ? "clay" : "rs"; }

void set_code(ExperimentProfile& p, bool clay) {
  p.name = clay ? "clay(12,9,11)" : "rs(12,9)";
  if (clay) {
    p.cluster.pool.ec_profile = {
        {"plugin", "clay"}, {"k", "9"}, {"m", "3"}, {"d", "11"}};
  } else {
    p.cluster.pool.ec_profile = {{"plugin", "jerasure"},
                                 {"technique", "reed_sol_van"},
                                 {"k", "9"},
                                 {"m", "3"}};
  }
}

// The paper's default experiment (§4.1) as bench/bench_common.h builds it
// at workload_scale 1.0: 30 hosts x 2 OSDs, 64 MB objects, pg_num 256, one
// host failure, three seeded runs.
ExperimentProfile paper_default(bool clay, std::uint64_t objects) {
  ExperimentProfile p;
  set_code(p, clay);
  p.cluster.workload.num_objects = objects;
  p.fault.level = ecfault::FaultLevel::kNode;
  p.fault.count = 1;
  p.runs = 3;
  return p;
}

// Coordinator::run_profile's seeds: seed, seed + 1, ...
void add_runs(std::vector<Experiment>& out, const std::string& name,
              ExperimentProfile p, std::uint64_t seed) {
  const int runs = p.runs;
  p.runs = 1;
  for (int run = 0; run < runs; ++run) {
    p.cluster.seed = seed + static_cast<std::uint64_t>(run);
    out.push_back({name + " run" + std::to_string(run), p});
  }
}

// Fig. 2a-d, Fig. 3 and the §4.3 object sweep: 97 experiments.
std::vector<Experiment> paper_experiments(std::uint64_t seed, bool smoke) {
  const std::uint64_t objects = smoke ? 200 : 10000;
  const auto base = [&](bool clay) {
    ExperimentProfile p = paper_default(clay, objects);
    p.runs = smoke ? 1 : 3;
    return p;
  };
  std::vector<Experiment> out;

  // Fig. 2a: BlueStore cache schemes (Table 2), normalized to RS+autotune.
  {
    ExperimentProfile p = base(false);
    p.cluster.cache = cluster::CacheConfig::autotuned();
    add_runs(out, "fig2a base", p, seed);
  }
  const std::pair<const char*, cluster::CacheConfig> schemes[] = {
      {"kv", cluster::CacheConfig::kv_optimized()},
      {"data", cluster::CacheConfig::data_optimized()},
      {"autotune", cluster::CacheConfig::autotuned()}};
  for (const auto& [label, cache] : schemes) {
    for (const bool clay : {false, true}) {
      ExperimentProfile p = base(clay);
      p.cluster.cache = cache;
      add_runs(out, std::string("fig2a ") + label + " " + code_label(clay), p,
               seed);
    }
  }
  // Fig. 2b: pg_num, normalized to RS @ 256.
  {
    ExperimentProfile p = base(false);
    p.cluster.pool.pg_num = 256;
    add_runs(out, "fig2b base", p, seed);
  }
  for (const int pg_num : {1, 16, 256}) {
    for (const bool clay : {false, true}) {
      ExperimentProfile p = base(clay);
      p.cluster.pool.pg_num = pg_num;
      add_runs(out,
               "fig2b pg" + std::to_string(pg_num) + " " + code_label(clay),
               p, seed);
    }
  }
  // Fig. 2c: stripe unit, normalized to RS @ 4 KiB.
  {
    ExperimentProfile p = base(false);
    p.cluster.pool.stripe_unit = util::Bytes(4 * util::KiB);
    add_runs(out, "fig2c base", p, seed);
  }
  for (const std::uint64_t su :
       {4 * util::KiB, 4 * util::MiB, 64 * util::MiB}) {
    for (const bool clay : {false, true}) {
      ExperimentProfile p = base(clay);
      p.cluster.pool.stripe_unit = util::Bytes(su);
      add_runs(out, "fig2c su" + std::to_string(su) + " " + code_label(clay),
               p, seed);
    }
  }
  // Fig. 2d: failure modes; failure domain OSD, 3 OSDs per host.
  const auto fig2d = [&](bool clay, int count, ecfault::FaultTopology topo) {
    ExperimentProfile p = base(clay);
    p.cluster.osds_per_host = 3;
    p.cluster.pool.failure_domain = cluster::FailureDomain::kOsd;
    p.fault.level = ecfault::FaultLevel::kDevice;
    p.fault.count = count;
    p.fault.topology = topo;
    return p;
  };
  add_runs(out, "fig2d base",
           fig2d(false, 1, ecfault::FaultTopology::kAnywhere), seed);
  for (const int count : {2, 3}) {
    for (const auto topo : {ecfault::FaultTopology::kSameHost,
                            ecfault::FaultTopology::kDifferentHosts}) {
      for (const bool clay : {false, true}) {
        const char* where =
            topo == ecfault::FaultTopology::kSameHost ? " same " : " diff ";
        add_runs(out, "fig2d " + std::to_string(count) + where +
                          code_label(clay),
                 fig2d(clay, count, topo), seed);
      }
    }
  }
  // Fig. 3's timeline and the §4.3 object sweep, one run each.
  {
    ExperimentProfile p = paper_default(false, objects);
    p.runs = 1;
    add_runs(out, "fig3 timeline", p, seed);
  }
  for (const std::uint64_t n :
       {2500ull, 5000ull, 8000ull, 10000ull, 15000ull, 20000ull}) {
    ExperimentProfile p = paper_default(false, smoke ? n / 50 : n);
    p.runs = 1;
    add_runs(out, "fig3 sweep" + std::to_string(n), p, seed);
  }
  return out;
}

// examples/scale_campaign.cpp's profile with engine_lanes left at its
// default: 300 hosts x 2 OSDs, 2048 PGs, 1M x 4 MiB objects, one host
// failure at t = 2 s, zipfian open-loop clients (2000 ops/s, 90% 64 KiB
// reads, theta 0.99) for 180 s of simulated time.
ExperimentProfile scale_profile(bool clay, std::uint64_t seed, bool smoke) {
  ExperimentProfile p;
  set_code(p, clay);
  p.cluster.num_hosts = smoke ? 60 : 300;
  p.cluster.osds_per_host = 2;
  p.cluster.pool.pg_num = smoke ? 256 : 2048;
  p.cluster.workload.num_objects = smoke ? 20000 : 1000000;
  p.cluster.workload.object_size = util::Bytes(4 * util::MiB);
  p.cluster.protocol.down_out_interval_s = 30.0;
  p.cluster.protocol.heartbeat_grace_s = 5.0;
  p.cluster.client.ops_per_s = 2000;
  p.cluster.client.read_fraction = 0.9;
  p.cluster.client.op_bytes = util::Bytes(64 * util::KiB);
  p.cluster.client.zipf_theta = 0.99;
  p.cluster.client.horizon_s = util::SimSec(smoke ? 30.0 : 180.0);
  p.cluster.seed = seed;
  p.fault.level = ecfault::FaultLevel::kNode;
  p.fault.count = 1;
  p.fault.inject_at_s = util::SimSec(2.0);
  p.runs = 1;
  return p;
}

// One composed experiment plus what the Coordinator does not return.
struct Composed {
  ExperimentResult result;
  double setup_s = 0;
  ecf::nvmeof::Fabric::Totals fabric;
  cluster::Cluster::PoolStats pools;
};

// Coordinator::run_experiment (src/ecfault/coordinator.cc), step by step.
Composed compose(const ExperimentProfile& profile, Recorder& rec) {
  Composed out;
  ecfault::MsgBus bus;
  ecfault::LoggerFleet loggers(&bus);
  cluster::ClusterConfig cfg = profile.cluster;
  if (profile.fabric == "tcp") {
    cfg.hw.fabric = sim::tcp_fabric();
  } else if (profile.fabric == "rdma") {
    cfg.hw.fabric = sim::rdma_fabric();
  }
  cluster::LogSinkFn sink = rec.wrap_sink(loggers.sink());

  // Set-up: everything before the first simulated event.
  const double t0 = now_s();
  std::optional<cluster::Cluster> holder;
  rec.phase("cluster.ctor_s", [&] { holder.emplace(cfg, std::move(sink)); });
  cluster::Cluster& cl = *holder;
  rec.phase("cluster.create_pool_s", [&] { cl.create_pool(); });
  rec.phase("cluster.apply_workload_s", [&] { cl.apply_workload(); });
  rec.phase("cluster.start_client_load_s", [&] { cl.start_client_load(); });
  cl.start_scrub();
  out.setup_s = now_s() - t0;

  // One Worker per node; the injector plans, the Workers pull the levers.
  std::vector<ecfault::Worker> workers;
  ecfault::InjectionPlan plan;
  rec.phase("ecfault.fault_s", [&] {
    workers.reserve(static_cast<std::size_t>(profile.cluster.num_hosts));
    for (cluster::HostId h = 0; h < profile.cluster.num_hosts; ++h) {
      workers.emplace_back(&cl, h, &bus);
    }
    const ecfault::FaultInjector injector(cl);
    plan = injector.plan(profile.fault);
    const double fraction = profile.fault.corrupt_fraction;
    cl.engine().schedule(
        profile.fault.inject_at_s,
        [&cl, &workers, plan, fraction] {
          switch (plan.level) {
            case ecfault::FaultLevel::kNode:
              for (const cluster::HostId h : plan.node_victims) {
                workers[static_cast<std::size_t>(h)].apply_node_fault();
              }
              break;
            case ecfault::FaultLevel::kDevice:
              for (const cluster::OsdId o : plan.device_victims) {
                workers[static_cast<std::size_t>(cl.host_of(o))]
                    .apply_device_fault(o);
              }
              break;
            case ecfault::FaultLevel::kCorruption:
              for (const cluster::OsdId o : plan.device_victims) {
                workers[static_cast<std::size_t>(cl.host_of(o))]
                    .apply_corruption_fault(o, fraction);
              }
              break;
          }
        },
        sim::EventTag::kFault);
    for (const ecfault::NetworkFaultSpec& nspec : profile.network_faults) {
      const std::vector<cluster::HostId> victims =
          injector.plan_network(nspec);
      cl.engine().schedule(
          nspec.inject_at_s,
          [&workers, nspec, victims] {
            for (const cluster::HostId h : victims) {
              ecfault::Worker& w = workers[static_cast<std::size_t>(h)];
              switch (nspec.kind) {
                case ecfault::NetFaultKind::kLinkLatency:
                  w.apply_link_latency(nspec.latency_s, nspec.jitter_s);
                  break;
                case ecfault::NetFaultKind::kBandwidthCap:
                  w.apply_bandwidth_cap(nspec.bandwidth_bytes_per_s);
                  break;
                case ecfault::NetFaultKind::kPacketLoss:
                  w.apply_packet_loss(nspec.loss_rate);
                  break;
                case ecfault::NetFaultKind::kLinkFlap:
                  w.apply_link_flap(nspec.down_for_s);
                  break;
                case ecfault::NetFaultKind::kPartition:
                  w.apply_partition(nspec.down_for_s);
                  break;
              }
            }
          },
          sim::EventTag::kFault);
    }
  });

  rec.attach(cl.engine());
  out.result.report = cl.run_to_recovery();
  rec.detach(cl.engine());
  {
    std::vector<cluster::LogRecord> merged;
    rec.phase("ecfault.merge_s", [&] { merged = loggers.merged(); });
    rec.phase("ecfault.timeline_s", [&] {
      out.result.timeline = ecfault::analyze_timeline(merged);
    });
  }
  out.result.injected = plan;
  out.result.actual_wa = cl.actual_wa();
  out.result.stored_bytes = cl.total_stored_bytes();
  out.result.meta_bytes = cl.total_meta_bytes();
  out.result.log_records_published = bus.total_published();
  out.result.code_name = cl.code().name();
  out.fabric = cl.fabric().totals();
  out.pools = cl.pool_stats();
  return out;
}

// Why an experiment fails the benchmark's checks ("" when it passes).
std::string check(const ExperimentResult& r) {
  const cluster::RecoveryReport& rep = r.report;
  if (!rep.complete) return "recovery did not complete";
  const ecfault::Timeline& tl = r.timeline;
  if (!tl.valid()) return "the log-derived timeline is incomplete";
  // Log records carry their timestamps to 6 decimals.
  constexpr double kTolerance = 2e-6;
  if (std::fabs(tl.detection_time - rep.detection_time) > kTolerance ||
      std::fabs(tl.checking_period() - rep.checking_period()) > kTolerance ||
      std::fabs(tl.total() - rep.total()) > kTolerance) {
    char buf[192];
    std::snprintf(buf, sizeof(buf),
                  "timeline (checking %.6f s, total %.6f s) disagrees with "
                  "the report (%.6f s, %.6f s)",
                  tl.checking_period(), tl.total(), rep.checking_period(),
                  rep.total());
    return buf;
  }
  return "";
}

// The simulated outputs a figure is drawn from.
void digest_outputs(Digest& d, const std::string& name,
                    const ExperimentResult& r) {
  const cluster::RecoveryReport& rep = r.report;
  d.add(name);
  d.add(rep.checking_period());
  d.add(rep.ec_recovery_period());
  d.add(rep.bytes_read_for_recovery);
  d.add(rep.bytes_written_for_recovery);
  d.add(rep.bytes_on_wire_for_recovery);
  d.add(rep.objects_repaired);
  d.add(rep.repairs_wasted);
  d.add(rep.client_ops);
  d.add(rep.degraded_reads);
  for (const double q : {0.5, 0.99, 0.999}) d.add(rep.client_percentile(q));
  d.add(r.actual_wa);
  d.add(r.timeline.checking_period());
  d.add(r.timeline.total());
}

// Every output of one experiment, rendered exactly, in a fixed order.
std::vector<std::pair<std::string, std::string>> fields(
    const ExperimentResult& r) {
  std::vector<std::pair<std::string, std::string>> out;
  const auto num = [&out](const char* name, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%a", v);
    out.emplace_back(name, buf);
  };
  const auto count = [&out](const char* name, std::uint64_t v) {
    out.emplace_back(name, std::to_string(v));
  };
  const cluster::RecoveryReport& rep = r.report;
  num("failure_time", rep.failure_time);
  num("detection_time", rep.detection_time);
  num("recovery_start_time", rep.recovery_start_time);
  num("recovery_end_time", rep.recovery_end_time);
  count("complete", rep.complete);
  count("corruptions_injected", rep.corruptions_injected);
  count("corruptions_found", rep.corruptions_found);
  count("corruptions_repaired", rep.corruptions_repaired);
  count("pgs_scrubbed", rep.pgs_scrubbed);
  count("client_ops", rep.client_ops);
  count("degraded_reads", rep.degraded_reads);
  num("client_p50", rep.client_percentile(0.5));
  num("client_p99", rep.client_percentile(0.99));
  num("client_mean", rep.mean_client_latency());
  count("bytes_read_for_recovery", rep.bytes_read_for_recovery);
  count("bytes_written_for_recovery", rep.bytes_written_for_recovery);
  count("bytes_on_wire_for_recovery", rep.bytes_on_wire_for_recovery);
  count("objects_repaired", rep.objects_repaired);
  count("repairs_wasted", rep.repairs_wasted);
  count("epochs_published", static_cast<std::uint64_t>(rep.epochs_published));
  num("fabric_transport_wait_s", rep.fabric_transport_wait_s);
  count("fabric_retries", rep.fabric_retries);
  count("fabric_reconnects", rep.fabric_reconnects);
  const sim::EngineStats& es = rep.engine_stats;
  count("events_scheduled", es.scheduled);
  count("events_executed", es.executed);
  count("events_cancelled", es.cancelled);
  count("callbacks_spilled", es.spilled_callbacks);
  count("peak_queue_depth", es.peak_queue_depth);
  num("timeline_detection", r.timeline.detection_time);
  num("timeline_recovery_start", r.timeline.recovery_start);
  num("timeline_recovery_end", r.timeline.recovery_end);
  count("timeline_events", r.timeline.events.size());
  std::string victims;
  for (const cluster::OsdId o : r.injected.device_victims) {
    victims += "osd" + std::to_string(o) + " ";
  }
  for (const cluster::HostId h : r.injected.node_victims) {
    victims += "host" + std::to_string(h) + " ";
  }
  out.emplace_back("injected", victims);
  num("actual_wa", r.actual_wa);
  count("stored_bytes", r.stored_bytes);
  count("meta_bytes", r.meta_bytes);
  count("log_records_published", r.log_records_published);
  out.emplace_back("code_name", r.code_name);
  return out;
}

// Counters summed (peaks and slabs: maxed) over a repetition's experiments.
struct Counters {
  Metrics m;

  void max(const std::string& name, double v) {
    m[name] = std::max(m[name], v);
  }
  void add(const Composed& c) {
    const cluster::RecoveryReport& rep = c.result.report;
    const sim::EngineStats& es = rep.engine_stats;
    m["sim.events_executed"] += static_cast<double>(es.executed);
    m["sim.events_scheduled"] += static_cast<double>(es.scheduled);
    m["sim.events_cancelled"] += static_cast<double>(es.cancelled);
    m["sim.callbacks_spilled"] += static_cast<double>(es.spilled_callbacks);
    max("sim.peak_queue_depth", static_cast<double>(es.peak_queue_depth));
    m["sim.wheel_parked"] += static_cast<double>(es.wheel_parked);
    m["sim.wheel_cascades"] += static_cast<double>(es.wheel_cascades);
    const std::pair<sim::EventTag, const char*> tags[] = {
        {sim::EventTag::kRecovery, "recovery"},
        {sim::EventTag::kClient, "client"},
        {sim::EventTag::kHeartbeat, "heartbeat"},
        {sim::EventTag::kMonitor, "monitor"},
        {sim::EventTag::kScrub, "scrub"}};
    for (const auto& [tag, name] : tags) {
      m[std::string("cluster.") + name + "_events"] += static_cast<double>(
          es.executed_by_tag[static_cast<std::size_t>(tag)]);
    }
    m["nvmeof.commands"] += static_cast<double>(c.fabric.commands);
    m["nvmeof.retries"] += static_cast<double>(c.fabric.retries);
    m["nvmeof.reconnects"] += static_cast<double>(c.fabric.reconnects);
    m["cluster.objects_repaired"] += static_cast<double>(rep.objects_repaired);
    m["cluster.repairs_wasted"] += static_cast<double>(rep.repairs_wasted);
    m["cluster.client_ops"] += static_cast<double>(rep.client_ops);
    m["cluster.degraded_reads"] += static_cast<double>(rep.degraded_reads);
    max("cluster.client_op_slabs", static_cast<double>(c.pools.client_op_slabs));
    max("cluster.repair_batch_slabs",
        static_cast<double>(c.pools.repair_batch_slabs));
    m["ecfault.published"] +=
        static_cast<double>(c.result.log_records_published);
  }
};

// Per-layer metrics of a traced repetition.
void finish_layers(RepResult& res, const Counters& counts,
                   const Recorder& rec) {
  if (!rec.on()) return;
  Metrics& l = res.layers;
  l = counts.m;
  for (const auto& [layer, s] : rec.self_times()) l[layer] += s;
  const double events = l["sim.events_executed"];
  l["sim.ns_per_event"] = events > 0 ? rec.run_s() / events * 1e9 : 0;
  const double repairs =
      l["cluster.objects_repaired"] + l["cluster.repairs_wasted"];
  l["cluster.repair_useful_ratio"] =
      repairs > 0 ? l["cluster.objects_repaired"] / repairs : 0;
  const double records = static_cast<double>(rec.log_records());
  l["ecfault.log_records"] = records;
  l["ecfault.publish_ratio"] =
      records > 0 ? l["ecfault.published"] / records : 0;
}

// Runs, checks and digests one experiment; nullopt when it threw.
std::optional<Composed> run_one(const Experiment& e, Recorder& rec,
                                RepResult& res, Counters& counts) {
  rec.begin_experiment(e.name);
  ++res.ops;
  try {
    Composed c = compose(e.profile, rec);
    res.setup_s += c.setup_s;
    const std::string bad = check(c.result);
    if (!bad.empty()) res.fail(e.name + ": " + bad);
    digest_outputs(res.digest, e.name, c.result);
    counts.add(c);
    return c;
  } catch (const std::exception& ex) {
    res.fail(e.name + ": " + ex.what());
    return std::nullopt;
  }
}

}  // namespace

RepResult run_paper_suite(const Options& opt, Recorder& rec) {
  RepResult res;
  Counters counts;
  const std::vector<Experiment> exps = paper_experiments(opt.seed, opt.smoke);
  const double t0 = now_s();
  double total_s = 0;
  for (const Experiment& e : exps) {
    const std::optional<Composed> c = run_one(e, rec, res, counts);
    if (!c) continue;
    total_s += c->result.report.total();
    if (e.name == "fig3 timeline run0") {
      res.outputs["fig3.recovery_start_s"] = c->result.timeline.recovery_start;
      res.outputs["fig3.recovery_end_s"] = c->result.timeline.recovery_end;
    }
  }
  res.outputs["mean_recovery_s"] = total_s / static_cast<double>(exps.size());

  // Table 3: actual WA of RS(12,9) and RS(15,12) after the default
  // workload; set-up only, no simulated events.
  for (const auto& [name, k] : {std::pair<const char*, int>{"table3 J1", 9},
                                std::pair<const char*, int>{"table3 J2", 12}}) {
    rec.begin_experiment(name);
    ++res.ops;
    cluster::ClusterConfig cfg;
    cfg.pool.ec_profile = {
        {"plugin", "jerasure"}, {"k", std::to_string(k)}, {"m", "3"}};
    cfg.seed = opt.seed;
    if (opt.smoke) cfg.workload.num_objects = 200;
    const double s0 = now_s();
    std::optional<cluster::Cluster> cl;
    rec.phase("cluster.ctor_s", [&] { cl.emplace(cfg); });
    rec.phase("cluster.create_pool_s", [&] { cl->create_pool(); });
    rec.phase("cluster.apply_workload_s", [&] { cl->apply_workload(); });
    res.setup_s += now_s() - s0;
    const double theoretical = (k + 3.0) / k;
    const double actual = cl->actual_wa();
    if (!(std::isfinite(actual) && actual > theoretical)) {
      res.fail(std::string(name) + ": actual WA " + std::to_string(actual) +
               " is not above n/k");
    }
    res.digest.add(std::string(name));
    res.digest.add(actual);
    res.outputs[std::string(name == std::string("table3 J1") ? "table3.j1_wa"
                                                             : "table3.j2_wa")] =
        actual;
  }
  res.wall_s = now_s() - t0;
  finish_layers(res, counts, rec);
  return res;
}

RepResult run_scale_1m(const Options& opt, Recorder& rec) {
  RepResult res;
  Counters counts;
  const double t0 = now_s();
  for (const bool clay : {false, true}) {
    const Experiment e{std::string("scale ") + code_label(clay),
                       scale_profile(clay, opt.seed, opt.smoke)};
    const std::optional<Composed> c = run_one(e, rec, res, counts);
    if (!c) continue;
    const cluster::RecoveryReport& rep = c->result.report;
    const std::string key = code_label(clay);
    res.outputs[key + ".recovery_s"] = rep.ec_recovery_period();
    res.outputs[key + ".client_p99_ms"] = 1e3 * rep.client_percentile(0.99);
    res.outputs[key + ".degraded_reads"] =
        static_cast<double>(rep.degraded_reads);
  }
  res.wall_s = now_s() - t0;
  finish_layers(res, counts, rec);
  return res;
}

bool composition_matches(const Options& opt, std::string* why) {
  ExperimentProfile p = paper_default(false, opt.smoke ? 200 : 1000);
  p.runs = 1;
  p.cluster.seed = opt.seed;
  Recorder off(false);
  const auto mine = fields(compose(p, off).result);
  const auto ref = fields(ecfault::Coordinator::run_experiment(p));
  for (std::size_t i = 0; i < mine.size(); ++i) {
    if (mine[i] != ref[i]) {
      *why = mine[i].first + ": composed " + mine[i].second +
             ", Coordinator " + ref[i].second;
      return false;
    }
  }
  return true;
}

}  // namespace perfbench
