#include "nvmeof/fabric.h"

#include <algorithm>
#include <cstdio>
#include <utility>

#include "util/check.h"

namespace ecf::nvmeof {

const char* to_string(ConnState s) {
  switch (s) {
    case ConnState::kConnected:
      return "CONNECTED";
    case ConnState::kTimedOut:
      return "TIMED_OUT";
    case ConnState::kReconnecting:
      return "RECONNECTING";
    case ConnState::kFailed:
      return "FAILED";
  }
  return "?";
}

Fabric::Connection::Connection(const sim::FabricParams& p, int host_idx,
                               Nqn name, sim::Disk* d)
    : host(host_idx),
      nqn(std::move(name)),
      disk(d),
      open(true),
      next_backoff_s(p.reconnect_backoff_s) {
  const int n = std::max(1, p.io_qpairs);
  const int depth = std::max(1, p.qpair_depth);
  io_qpairs.reserve(static_cast<std::size_t>(n));
  for (int q = 0; q < n; ++q) io_qpairs.emplace_back(q + 1, depth);
}

Fabric::Fabric(sim::Engine* engine, sim::FabricParams params,
               std::uint64_t seed)
    : engine_(engine), transport_(params, seed) {
  ECF_CHECK(engine != nullptr) << " fabric needs an engine";
}

Fabric::~Fabric() {
  fabric_telemetry().record_fabric(totals(), connections_.size());
}

int Fabric::add_host(std::string name) {
  host_names_.push_back(std::move(name));
  links_.emplace_back();
  return static_cast<int>(links_.size()) - 1;
}

ConnectionId Fabric::connect(int initiator_host, const Nqn& nqn,
                             sim::Disk* disk, sim::SimTime /*now*/) {
  ECF_CHECK_GE(initiator_host, 0) << " fabric host";
  ECF_CHECK_LT(initiator_host, static_cast<int>(links_.size()))
      << " fabric host";
  ECF_CHECK(disk != nullptr) << " fabric connect needs a backing disk";
  connections_.emplace_back(transport_.params(), initiator_host, nqn, disk);
  return static_cast<ConnectionId>(connections_.size()) - 1;
}

void Fabric::disconnect(ConnectionId id, sim::SimTime /*now*/) {
  ECF_CHECK_GE(id, 0) << " fabric connection";
  ECF_CHECK_LT(id, static_cast<ConnectionId>(connections_.size()))
      << " fabric connection";
  Connection& c = connections_[static_cast<std::size_t>(id)];
  if (!c.open) return;
  c.open = false;
  c.disk = nullptr;
}

std::optional<Fabric::IoResult> Fabric::read(ConnectionId id,
                                             std::uint64_t bytes,
                                             std::uint64_t ios,
                                             sim::SimTime extra_disk_s) {
  return submit(id, /*is_read=*/true, bytes, ios, extra_disk_s);
}

std::optional<Fabric::IoResult> Fabric::write(ConnectionId id,
                                              std::uint64_t bytes,
                                              std::uint64_t ios,
                                              sim::SimTime extra_disk_s) {
  return submit(id, /*is_read=*/false, bytes, ios, extra_disk_s);
}

std::optional<Fabric::IoResult> Fabric::submit(ConnectionId id, bool is_read,
                                               std::uint64_t bytes,
                                               std::uint64_t ios,
                                               sim::SimTime extra_disk_s) {
  ECF_CHECK_GE(id, 0) << " fabric connection";
  ECF_CHECK_LT(id, static_cast<ConnectionId>(connections_.size()))
      << " fabric connection";
  Connection& c = connections_[static_cast<std::size_t>(id)];
  if (!c.open || c.state == ConnState::kFailed || c.disk == nullptr) {
    return std::nullopt;  // EIO: device is gone from the initiator
  }

  sim::Engine& eng = *engine_;
  const sim::SimTime now = eng.now();
  Link& link = links_[static_cast<std::size_t>(c.host)];
  ConnectionStats& st = c.stats;
  ++st.commands;
  if (is_read) {
    st.bytes_read += bytes;
  } else {
    st.bytes_written += bytes;
  }

  // Round-robin command distribution over the I/O queue pairs.
  QueuePair& qp =
      c.io_qpairs[(st.commands - 1) % c.io_qpairs.size()];

  // Ideal fabric, healthy link: pure accounting, and the disk sees exactly
  // the call it would have seen without a fabric (bit-identical results).
  if (transport_.inert(link, now)) {
    const sim::SimTime complete =
        is_read ? c.disk->read(eng, bytes, ios, extra_disk_s)
                : c.disk->write(eng, bytes, ios, extra_disk_s);
    const QueuePair::Slot slot = qp.submit(now, /*enforce=*/false);
    qp.commit(slot, complete);
    return IoResult{complete, 0.0, 0};
  }

  const bool enforce = transport_.params().enforce_qpair_depth;
  const QueuePair::Slot slot = qp.submit(now, enforce);
  st.backpressure_wait_s += slot.start - now;

  // Request capsule to the target (write commands carry the data inline).
  const Transport::HopResult req = transport_.transfer(
      eng, link, /*to_target=*/true, slot.start, is_read ? 0 : bytes);
  // Device executes once the command has fully arrived.
  const sim::SimTime disk_start = req.arrive;
  const sim::SimTime disk_done =
      is_read ? c.disk->read_at(eng, disk_start, bytes, ios, extra_disk_s)
              : c.disk->write_at(eng, disk_start, bytes, ios, extra_disk_s);
  // Response back to the host (read data / write completion).
  const Transport::HopResult resp = transport_.transfer(
      eng, link, /*to_target=*/false, disk_done, is_read ? bytes : 0);
  qp.commit(slot, resp.arrive);

  IoResult out;
  out.complete = resp.arrive;
  out.retries = req.retries + resp.retries;
  // Everything that is not device service time is transport time.
  out.transport_wait_s = (resp.arrive - now) - (disk_done - disk_start);
  st.retries += out.retries;
  st.transport_wait_s += out.transport_wait_s;
  return out;
}

void Fabric::set_link_latency(int host, double latency_s, double jitter_s) {
  ECF_CHECK_GE(host, 0) << " fabric host";
  ECF_CHECK_LT(host, static_cast<int>(links_.size())) << " fabric host";
  links_[static_cast<std::size_t>(host)].extra_latency_s =
      util::SimSec(latency_s);
  links_[static_cast<std::size_t>(host)].jitter_s = util::SimSec(jitter_s);
}

void Fabric::set_link_bandwidth_cap(int host, double bytes_per_s) {
  ECF_CHECK_GE(host, 0) << " fabric host";
  ECF_CHECK_LT(host, static_cast<int>(links_.size())) << " fabric host";
  links_[static_cast<std::size_t>(host)].bw_cap_bytes_per_s =
      util::Rate(bytes_per_s);
}

void Fabric::set_packet_loss(int host, double rate) {
  ECF_CHECK_GE(host, 0) << " fabric host";
  ECF_CHECK_LT(host, static_cast<int>(links_.size())) << " fabric host";
  ECF_CHECK_GE(rate, 0.0) << " loss rate";
  links_[static_cast<std::size_t>(host)].loss_rate = rate;
}

void Fabric::set_link_down(int host, double down_for_s) {
  ECF_CHECK_GE(host, 0) << " fabric host";
  ECF_CHECK_LT(host, static_cast<int>(links_.size())) << " fabric host";
  ECF_CHECK_GE(down_for_s, 0.0) << " down window";
  const sim::SimTime now = engine_->now();
  Link& link = links_[static_cast<std::size_t>(host)];
  link.down_until = std::max(link.down_until, now + down_for_s);
  // Arm the keep-alive check on every connection using this link: if the
  // window outlives the keep-alive interval the connection times out and
  // enters the reconnect machine.
  for (ConnectionId id = 0;
       id < static_cast<ConnectionId>(connections_.size()); ++id) {
    const Connection& c = connections_[static_cast<std::size_t>(id)];
    if (c.host == host && c.open && c.state == ConnState::kConnected &&
        !c.ka_armed) {
      arm_keepalive(id);
    }
  }
}

void Fabric::restore_link(int host) {
  ECF_CHECK_GE(host, 0) << " fabric host";
  ECF_CHECK_LT(host, static_cast<int>(links_.size())) << " fabric host";
  Link& link = links_[static_cast<std::size_t>(host)];
  link.down_until = std::min(link.down_until, engine_->now());
}

void Fabric::arm_keepalive(ConnectionId id) {
  Connection& c = connections_[static_cast<std::size_t>(id)];
  c.ka_armed = true;
  engine_->schedule(transport_.params().keepalive_interval_s,
                    [this, id] { keepalive_fire(id); },
                    sim::EventTag::kKeepAlive);
}

void Fabric::keepalive_fire(ConnectionId id) {
  Connection& c = connections_[static_cast<std::size_t>(id)];
  c.ka_armed = false;
  if (!c.open || c.state != ConnState::kConnected) return;
  ++c.stats.keepalives;
  const sim::SimTime now = engine_->now();
  const Link& link = links_[static_cast<std::size_t>(c.host)];
  if (!link.down_at(now)) {
    // Keep-alive answered: the down window closed before KATO expired.
    return;
  }
  // KATO expired with the link still dark: declare the controller lost and
  // start reconnecting with exponential backoff.
  c.state = ConnState::kTimedOut;
  c.timed_out_at = now;
  c.next_backoff_s = transport_.params().reconnect_backoff_s;
  emit(id, "keep-alive timeout, controller lost; state=TIMED_OUT");
  c.state = ConnState::kReconnecting;
  engine_->schedule(c.next_backoff_s, [this, id] { reconnect_attempt(id); },
                    sim::EventTag::kReconnect);
}

void Fabric::reconnect_attempt(ConnectionId id) {
  Connection& c = connections_[static_cast<std::size_t>(id)];
  if (!c.open || c.state != ConnState::kReconnecting) return;
  ++c.stats.reconnect_attempts;
  const sim::SimTime now = engine_->now();
  const sim::FabricParams& p = transport_.params();
  const Link& link = links_[static_cast<std::size_t>(c.host)];
  if (!link.down_at(now)) {
    c.state = ConnState::kConnected;
    ++c.stats.reconnects;
    char buf[96];
    std::snprintf(buf, sizeof(buf),
                  "reconnected after %.3fs (%llu attempts); state=CONNECTED",
                  now - c.timed_out_at,
                  static_cast<unsigned long long>(c.stats.reconnect_attempts));
    emit(id, buf);
    c.next_backoff_s = p.reconnect_backoff_s;
    return;
  }
  if (now - c.timed_out_at >= p.ctrl_loss_timeout_s) {
    c.state = ConnState::kFailed;
    emit(id, "controller loss timeout exceeded; state=FAILED (device gone)");
    if (on_failed_) on_failed_(id);
    return;
  }
  c.next_backoff_s =
      std::min(c.next_backoff_s * 2, p.reconnect_backoff_max_s.count());
  engine_->schedule(c.next_backoff_s, [this, id] { reconnect_attempt(id); },
                    sim::EventTag::kReconnect);
}

void Fabric::emit(ConnectionId id, const std::string& message) {
  if (on_event_) on_event_(id, message);
}

ConnState Fabric::state(ConnectionId id) const {
  ECF_CHECK_GE(id, 0) << " fabric connection";
  ECF_CHECK_LT(id, static_cast<ConnectionId>(connections_.size()))
      << " fabric connection";
  return connections_[static_cast<std::size_t>(id)].state;
}

const ConnectionStats& Fabric::stats(ConnectionId id) const {
  ECF_CHECK_GE(id, 0) << " fabric connection";
  ECF_CHECK_LT(id, static_cast<ConnectionId>(connections_.size()))
      << " fabric connection";
  return connections_[static_cast<std::size_t>(id)].stats;
}

const Link& Fabric::link(int host) const {
  ECF_CHECK_GE(host, 0) << " fabric host";
  ECF_CHECK_LT(host, static_cast<int>(links_.size())) << " fabric host";
  return links_[static_cast<std::size_t>(host)];
}

FabricLoadView Fabric::load_view(int host, sim::SimTime now) const {
  ECF_CHECK_GE(host, 0) << " fabric host";
  ECF_CHECK_LT(host, static_cast<int>(links_.size())) << " fabric host";
  const Link& l = links_[static_cast<std::size_t>(host)];
  FabricLoadView v;
  v.tx_backlog_s = std::max(0.0, l.tx.busy_until() - now);
  v.rx_backlog_s = std::max(0.0, l.rx.busy_until() - now);
  v.bytes_carried = l.bytes_tx + l.bytes_rx;
  for (const Connection& c : connections_) {
    if (c.host != host || !c.open) continue;
    for (const QueuePair& qp : c.io_qpairs) v.in_flight += qp.in_flight(now);
  }
  return v;
}

int Fabric::connection_in_flight(ConnectionId id) const {
  ECF_CHECK_GE(id, 0) << " fabric connection";
  ECF_CHECK_LT(id, static_cast<ConnectionId>(connections_.size()))
      << " fabric connection";
  const Connection& c = connections_[static_cast<std::size_t>(id)];
  const sim::SimTime now = engine_->now();
  int n = 0;
  for (const QueuePair& qp : c.io_qpairs) n += qp.in_flight(now);
  return n;
}

std::vector<std::uint64_t> Fabric::depth_histogram(ConnectionId id) const {
  ECF_CHECK_GE(id, 0) << " fabric connection";
  ECF_CHECK_LT(id, static_cast<ConnectionId>(connections_.size()))
      << " fabric connection";
  const Connection& c = connections_[static_cast<std::size_t>(id)];
  std::vector<std::uint64_t> hist;
  for (const QueuePair& qp : c.io_qpairs) {
    const std::vector<std::uint64_t>& h = qp.depth_histogram();
    if (hist.size() < h.size()) hist.resize(h.size(), 0);
    for (std::size_t i = 0; i < h.size(); ++i) hist[i] += h[i];
  }
  return hist;
}

Fabric::Totals Fabric::totals() const {
  Totals t;
  for (const Connection& c : connections_) {
    t.commands += c.stats.commands;
    t.retries += c.stats.retries;
    t.reconnects += c.stats.reconnects;
    t.transport_wait_s += c.stats.transport_wait_s;
  }
  return t;
}

void FabricTelemetry::record_fabric(const Fabric::Totals& totals,
                                    std::uint64_t connections) {
  std::lock_guard<std::mutex> lock(mu_);
  ++fabrics_;
  connections_ += connections;
  commands_ += totals.commands;
  retries_ += totals.retries;
  reconnects_ += totals.reconnects;
}

FabricTelemetry::Snapshot FabricTelemetry::snapshot() const {
  std::lock_guard<std::mutex> lock(mu_);
  Snapshot s;
  s.fabrics = fabrics_;
  s.connections = connections_;
  s.commands = commands_;
  s.retries = retries_;
  s.reconnects = reconnects_;
  return s;
}

void FabricTelemetry::reset() {
  std::lock_guard<std::mutex> lock(mu_);
  fabrics_ = 0;
  connections_ = 0;
  commands_ = 0;
  retries_ = 0;
  reconnects_ = 0;
}

FabricTelemetry& fabric_telemetry() {
  static FabricTelemetry telemetry;
  return telemetry;
}

}  // namespace ecf::nvmeof
