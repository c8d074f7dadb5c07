// The NVMe-oF fabric: initiator↔target connections, queue pairs, and the
// keep-alive/reconnect state machine.
//
// One Fabric instance models the whole experiment's storage network. Each
// host registers a Link (its fabric port, see transport.h); each provisioned
// namespace gets a Connection from its initiator host to the target, with N
// I/O queue pairs (no admin queue: keep-alives are counted, not queued). All
// block I/O the cluster issues flows through Connection::read/write, which
// charge, in order: qpair backpressure, the request capsule over the shared
// link, the backing sim::Disk (starting at capsule arrival), and the
// response transfer — returning both the completion time and how much of it
// was transport (not disk), so experiment logs can attribute recovery time
// to the network.
//
// Connection health follows the NVMe-oF host model:
//
//           keep-alive misses (KATO)        backoff attempt, link up
//   CONNECTED ------------------> TIMED_OUT/RECONNECTING ----> CONNECTED
//                                     |  elapsed > ctrl_loss_tmo
//                                     v
//                                  FAILED  (device vanishes; EIO upward)
//
// The machine is event-driven: timers are armed only when a down window
// opens (an idle healthy fabric schedules nothing, so default runs keep
// their event streams — and results — bit-identical to pre-fabric builds).
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "nvmeof/nvmeof.h"
#include "nvmeof/qpair.h"
#include "nvmeof/transport.h"
#include "util/thread_annotations.h"

#include <mutex>

namespace ecf::nvmeof {

using ConnectionId = std::int32_t;
inline constexpr ConnectionId kNoConnection = -1;

enum class ConnState { kConnected, kTimedOut, kReconnecting, kFailed };
const char* to_string(ConnState s);

// Read-only snapshot of one host link's live load, for congestion-aware
// placement decisions (the cluster's load-aware helper selection). All
// fields derive from state the fabric already tracks; taking a view never
// mutates anything or schedules events.
struct FabricLoadView {
  double tx_backlog_s = 0;   // queued seconds on the host's tx server
  double rx_backlog_s = 0;   // queued seconds on the host's rx server
  std::uint64_t bytes_carried = 0;  // cumulative payload over the link
  int in_flight = 0;         // outstanding commands across the host's
                             // I/O queue pairs
};

struct ConnectionStats {
  std::uint64_t commands = 0;
  std::uint64_t retries = 0;          // retransmitted commands (loss, down)
  std::uint64_t keepalives = 0;       // keep-alives sent (counted, not queued)
  std::uint64_t reconnect_attempts = 0;
  std::uint64_t reconnects = 0;       // successful re-establishments
  std::uint64_t bytes_read = 0;       // payload bytes moved target->host
  std::uint64_t bytes_written = 0;    // payload bytes moved host->target
  double transport_wait_s = 0;        // non-disk time across all commands
  double backpressure_wait_s = 0;     // subset: waiting for a qpair slot
};

class Fabric {
 public:
  // Events worth a log line (state transitions, reconnects); wired by the
  // cluster into its log sink so they reach the merged timeline. Cold
  // path — fires on state transitions, not per event, so std::function's
  // copyability matters more than its allocation.
  using EventFn =
      std::function<void(ConnectionId, const std::string& message)>;  // ecf-analyze: allow(std-function)
  // Fired when a connection exhausts ctrl_loss_tmo and goes FAILED — the
  // initiator-side device vanishes (the cluster treats it like a yanked
  // subsystem). Cold path, as above.
  using FailedFn = std::function<void(ConnectionId)>;  // ecf-analyze: allow(std-function)

  Fabric(sim::Engine* engine, sim::FabricParams params, std::uint64_t seed);
  ~Fabric();

  Fabric(const Fabric&) = delete;
  Fabric& operator=(const Fabric&) = delete;

  const sim::FabricParams& params() const { return transport_.params(); }
  void set_on_event(EventFn fn) { on_event_ = std::move(fn); }
  void set_on_failed(FailedFn fn) { on_failed_ = std::move(fn); }

  // --- topology -------------------------------------------------------------
  // Register a host's fabric port; returns its index (dense, in call order).
  int add_host(std::string name);
  int num_hosts() const { return static_cast<int>(links_.size()); }

  // Establish initiator_host -> target path for `nqn`, backed by `disk`.
  // I/O queue pairs are created per FabricParams.
  ConnectionId connect(int initiator_host, const Nqn& nqn, sim::Disk* disk,
                       sim::SimTime now);
  // Tear the path down (subsystem removed / device failed). In-flight
  // semantics match a yanked device: the backing disk object survives, so
  // already-issued commands still run out their reservations.
  void disconnect(ConnectionId id, sim::SimTime now);

  // --- data path ------------------------------------------------------------
  struct IoResult {
    sim::SimTime complete = 0;
    double transport_wait_s = 0;  // qpair + request + response + stalls
    std::uint32_t retries = 0;
  };
  // nullopt = EIO: the connection was torn down (disconnect) or went
  // FAILED. While merely TIMED_OUT/RECONNECTING, commands stall on the
  // down window instead of failing (the NVMe host freezes I/O until
  // ctrl_loss_tmo expires).
  std::optional<IoResult> read(ConnectionId id, std::uint64_t bytes,
                               std::uint64_t ios, sim::SimTime extra_disk_s);
  std::optional<IoResult> write(ConnectionId id, std::uint64_t bytes,
                                std::uint64_t ios, sim::SimTime extra_disk_s);

  // --- network fault levers (per host link) ----------------------------------
  void set_link_latency(int host, double latency_s, double jitter_s);
  void set_link_bandwidth_cap(int host, double bytes_per_s);  // 0 = uncapped
  void set_packet_loss(int host, double rate);
  // Open (or extend) a down window on the host's link. Arms the keep-alive
  // machinery on every connection using the link: windows shorter than the
  // keep-alive interval only stall commands; longer ones drive the
  // TIMED_OUT -> RECONNECTING -> CONNECTED/FAILED transition.
  void set_link_down(int host, double down_for_s);
  void restore_link(int host);  // close the window now

  // --- introspection ---------------------------------------------------------
  ConnState state(ConnectionId id) const;
  const ConnectionStats& stats(ConnectionId id) const;
  const Link& link(int host) const;
  int connection_in_flight(ConnectionId id) const;  // across I/O qpairs
  // Live congestion snapshot of a host's link at `now` (see FabricLoadView).
  FabricLoadView load_view(int host, sim::SimTime now) const;
  // Aggregated I/O-qpair depth histogram for a connection.
  std::vector<std::uint64_t> depth_histogram(ConnectionId id) const;
  struct Totals {
    std::uint64_t commands = 0;
    std::uint64_t retries = 0;
    std::uint64_t reconnects = 0;
    double transport_wait_s = 0;
  };
  Totals totals() const;

 private:
  struct Connection {
    int host = -1;
    Nqn nqn;
    sim::Disk* disk = nullptr;
    ConnState state = ConnState::kConnected;
    bool open = false;              // false after disconnect()
    bool ka_armed = false;          // a keep-alive check event is pending
    sim::SimTime timed_out_at = 0;  // when keep-alive declared the loss
    double next_backoff_s = 0;
    std::vector<QueuePair> io_qpairs;
    ConnectionStats stats;

    Connection(const sim::FabricParams& p, int host_idx, Nqn name,
               sim::Disk* d);
  };

  std::optional<IoResult> submit(ConnectionId id, bool is_read,
                                 std::uint64_t bytes, std::uint64_t ios,
                                 sim::SimTime extra_disk_s);
  void arm_keepalive(ConnectionId id);
  void keepalive_fire(ConnectionId id);
  void reconnect_attempt(ConnectionId id);
  void emit(ConnectionId id, const std::string& message);

  sim::Engine* engine_;
  Transport transport_;
  std::vector<std::string> host_names_;
  std::vector<Link> links_;
  std::vector<Connection> connections_;
  EventFn on_event_;
  FailedFn on_failed_;
};

// Process-wide fabric telemetry, aggregated across every Fabric instance —
// campaigns run variants on a worker pool, so concurrently-running
// simulations flush here from different threads. Flushes happen once per
// Fabric lifetime (destructor), never on the per-command path.
class FabricTelemetry {
 public:
  struct Snapshot {
    std::uint64_t fabrics = 0;
    std::uint64_t connections = 0;
    std::uint64_t commands = 0;
    std::uint64_t retries = 0;
    std::uint64_t reconnects = 0;
  };

  void record_fabric(const Fabric::Totals& totals, std::uint64_t connections)
      ECF_EXCLUDES(mu_);
  Snapshot snapshot() const ECF_EXCLUDES(mu_);
  void reset() ECF_EXCLUDES(mu_);

 private:
  mutable std::mutex mu_;
  std::uint64_t fabrics_ ECF_GUARDED_BY(mu_) = 0;
  std::uint64_t connections_ ECF_GUARDED_BY(mu_) = 0;
  std::uint64_t commands_ ECF_GUARDED_BY(mu_) = 0;
  std::uint64_t retries_ ECF_GUARDED_BY(mu_) = 0;
  std::uint64_t reconnects_ ECF_GUARDED_BY(mu_) = 0;
};

FabricTelemetry& fabric_telemetry();

}  // namespace ecf::nvmeof
