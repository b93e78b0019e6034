#include "support/fuzz_harness.h"

#include <algorithm>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bus/message_bus.h"
#include "common/hash.h"
#include "core/erm_snapshot.h"
#include "core/pcp.h"
#include "core/proxy.h"
#include "fault/fault_channel.h"
#include "fault/fault_socket.h"
#include "net/asyncio/connection.h"
#include "net/packet.h"
#include "openflow/switch_device.h"
#include "openflow/wire.h"
#include "services/events.h"
#include "services/sensors.h"
#include "sim/simulator.h"
#include "support/reference_model.h"

namespace dfi::test {
namespace {

// The modeled controller app is deny-only: its catch-all and every rule it
// pushes drop, and it never installs gotos or outputs. Controller tables
// therefore never miss, so every Packet-in reaching the controller tap is a
// Table-0 (PCP-decided) one and I1 can compare it against the model without
// having to attribute higher-table misses to stale-but-legitimate installed
// rules.
constexpr Cookie kControllerCookie{0xC0DEull << 24};

constexpr std::size_t kEntities = 8;

// Unicast source MACs keep the oracle and the model on the same spoof-check
// branch: the location check is multicast-gated (the PCP's own sensor
// asserts a unicast source's location before deciding), so the model's
// identity-only validate() is exact.
MacAddress mac_of(std::size_t i) { return MacAddress::from_u64(0xa0 + i); }
Ipv4Address ip_of(std::size_t i) {
  return Ipv4Address(10, 0, 0, static_cast<std::uint8_t>(i + 1));
}
Hostname host_of(std::size_t i) { return Hostname{"h" + std::to_string(i)}; }
Username user_of(std::size_t i) { return Username{"u" + std::to_string(i)}; }

std::uint64_t fnv1a(std::uint64_t h, const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ull;
  }
  return h;
}

std::string describe(const FuzzOptions& options) {
  std::ostringstream os;
  os << "seed=" << options.seed << " backend="
     << (options.backend == PcpBackend::kThreads ? "threads" : "simulated")
     << " shards=" << options.shards << " steps=" << options.steps
     << " worker_faults=" << options.worker_faults
     << " wildcard_caching=" << options.wildcard_caching
     << " cache=" << options.decision_cache_capacity
     << " batched=" << options.batched_datapath
     << " incsnap=" << options.incremental_snapshots
     << " socket=" << options.socket_transport;
  return os.str();
}

// One switch behind the proxy: the device, the session currently bound to
// it (null while severed), the two faulty inbound byte/message streams, and
// wire-level taps on both proxy egress directions.
struct SwitchLink {
  SwitchLink(Dpid id, Simulator& sim)
      : device(SwitchConfig{id, /*num_tables=*/4, /*table_capacity=*/4096},
               [&sim] { return sim.now(); }) {}

  SwitchDevice device;
  DfiProxy::Session* session = nullptr;
  std::unique_ptr<FaultChannel<std::vector<std::uint8_t>>> from_switch;
  std::unique_ptr<FaultChannel<OfMessage>> from_controller;
  FrameDecoder switch_tap;      // proxy -> switch egress
  FrameDecoder controller_tap;  // proxy -> controller egress
  bool connected = false;
  bool ever_connected = false;
  // socket_transport: manual-mode Connections carrying the two switch-side
  // byte streams over seeded FaultSockets (pointers borrowed from the
  // Connections, which own them).
  std::unique_ptr<net::Connection> rx_conn;  // switch -> proxy
  std::unique_ptr<net::Connection> tx_conn;  // proxy -> switch
  FaultSocket* rx_sock = nullptr;
  FaultSocket* tx_sock = nullptr;
  std::vector<std::uint8_t> rx_accum;  // frames reassembled from rx_conn
};

class FuzzWorld {
 public:
  explicit FuzzWorld(const FuzzOptions& options)
      : options_(options),
        plan_(options.seed),
        erm_(bus_),
        policy_(bus_),
        sensors_(bus_),
        model_(bus_),  // after erm_: mirrors each binding event post-apply
        pcp_(bus_, erm_, policy_, pcp_config(options)),
        proxy_(pcp_, [this](std::function<void()> deliver) {
          sim_.schedule_after(SimDuration{}, std::move(deliver));
        }) {
    socket_rng_ = Rng(options.seed ^ 0x50CCE77Aull);
    if (options_.backend == PcpBackend::kThreads && options_.worker_faults) {
      const std::uint64_t seed = options_.seed;
      const bool batched = options_.batched_datapath;
      pcp_.set_worker_fault_probe(
          [seed, batched](std::size_t shard, std::uint64_t seq) {
            const std::uint64_t h =
                mix64(seed ^ 0x5EEDFA017ull ^
                      (static_cast<std::uint64_t>(shard) << 48) ^ seq);
            // Batched schedules only: crash after the decision ran but
            // before its completion publishes — mid-batch, the worker dies
            // in the publish window with cache residue left behind.
            if (batched && h % 29 == 0) return WorkerFault::kKillAfterDecide;
            if (h % 23 == 0) return WorkerFault::kKill;
            if (h % 11 == 0) return WorkerFault::kStall;
            return WorkerFault::kNone;
          });
    }

    for (std::uint64_t d : {std::uint64_t{1}, std::uint64_t{2}}) {
      auto link = std::make_unique<SwitchLink>(Dpid{d}, sim_);
      SwitchLink& ref = *link;
      const std::string tag = "sw" + std::to_string(d);
      link->from_switch = std::make_unique<FaultChannel<std::vector<std::uint8_t>>>(
          tag + "->proxy", draw_spec(), plan_,
          [this, &ref](const std::vector<std::uint8_t>& bytes) {
            if (ref.session == nullptr) return;
            if (ref.rx_conn != nullptr) {
              deliver_via_socket(ref, bytes);
            } else {
              ref.session->from_switch(bytes);
            }
          });
      link->from_controller = std::make_unique<FaultChannel<OfMessage>>(
          "ctl->proxy(" + tag + ")", draw_spec(), plan_,
          [&ref](const OfMessage& message) {
            if (ref.session != nullptr) ref.session->from_controller(encode(message));
          });
      links_.push_back(std::move(link));
    }

    dhcp_ = std::make_unique<FaultChannel<DhcpLeaseEvent>>(
        "dhcp", draw_spec(), plan_,
        [this](const DhcpLeaseEvent& e) { bus_.publish(topics::kDhcpEvents, e); });
    dns_ = std::make_unique<FaultChannel<DnsRecordEvent>>(
        "dns", draw_spec(), plan_,
        [this](const DnsRecordEvent& e) { bus_.publish(topics::kDnsEvents, e); });
    siem_ = std::make_unique<FaultChannel<SessionEvent>>(
        "siem", draw_spec(), plan_,
        [this](const SessionEvent& e) { bus_.publish(topics::kSiemSessions, e); });
    flap_ = std::make_unique<FaultChannel<BindingEvent>>(
        "binding-flap", draw_spec(), plan_,
        [this](const BindingEvent& e) { bus_.publish(topics::kErmBindings, e); });

    for (auto& link : links_) connect(*link);
  }

  void run() {
    for (std::size_t i = 0; i < options_.steps; ++i) {
      step_ = i;
      step();
    }
    final_settle();
    check_pool_order();
  }

  void finish(FuzzResult& result) {
    result.violations = violations_;
    result.trace = plan_.trace();
    result.fault_stats = plan_.stats();
    const PcpStats& stats = pcp_.stats();
    result.packet_ins = stats.packet_ins;
    result.denies = stats.denied + stats.default_denied + stats.spoof_denied;
    result.decision_cache_hits = stats.decision_cache_hits;
    result.stale_redecides = stats.stale_redecides;
    result.resync_clears = stats.resync_clears;
    result.jobs_abandoned = pcp_.pool().jobs_abandoned();
    result.installs_seen = installs_seen_;
    result.forwards_seen = forwards_seen_;
    result.severs = severs_;
    result.reconnects = reconnects_;
    result.pool_jobs_checked = pool_jobs_checked_;
    result.batch_bursts = packet_in_bursts_;
    result.snapshot_probes = snapshot_probes_;
    const ProxyStats& proxy_stats = proxy_.stats();
    result.frames_fast_path = proxy_stats.frames_fast_path;
    result.frames_patched = proxy_stats.frames_patched;
    result.frames_decoded = proxy_stats.frames_decoded;
    result.pool_hit_rate = proxy_stats.pool_hit_rate();
    for (auto& link : links_) detach_sockets(*link);
    result.socket_reads = socket_reads_;
    result.socket_writes = socket_writes_;
    result.socket_would_block = socket_would_block_;
    result.egress_hash = egress_hash_;
  }

 private:
  static PcpConfig pcp_config(const FuzzOptions& options) {
    PcpConfig config;
    config.backend = options.backend;
    config.shards = options.shards;
    config.queue_capacity = 512;
    config.wildcard_caching = options.wildcard_caching;
    config.decision_cache_capacity = options.decision_cache_capacity;
    return config;
  }

  FaultSpec draw_spec() {
    FaultSpec spec;
    spec.drop = static_cast<double>(plan_.rng().uniform_int(0, 12)) / 100.0;
    spec.duplicate = static_cast<double>(plan_.rng().uniform_int(0, 8)) / 100.0;
    spec.delay = static_cast<double>(plan_.rng().uniform_int(0, 20)) / 100.0;
    spec.reorder = static_cast<double>(plan_.rng().uniform_int(0, 30)) / 100.0;
    return spec;
  }

  void violation(const std::string& invariant, const std::string& detail) {
    if (violations_.size() >= 50) return;
    violations_.push_back("step " + std::to_string(step_) + " [" + invariant +
                          "] " + detail);
  }

  // ------------------------------------------------------------- topology

  // (Re)establish a proxy session for this switch. The handshake and the
  // controller's catch-all install ride a reliable direct path — a fresh
  // TCP session delivers its first messages or is not "up" — while all
  // steady-state traffic goes through the fault channels.
  void connect(SwitchLink& link) {
    const std::string tag = "sw" + std::to_string(link.device.dpid().value);
    plan_.note("connect " + tag);
    if (link.ever_connected) ++reconnects_;
    link.ever_connected = true;
    link.session = &proxy_.create_session(
        [this, &link](const std::vector<std::uint8_t>& bytes) {
          on_to_switch(link, bytes);
        },
        [this, &link](const std::vector<std::uint8_t>& bytes) {
          on_to_controller(link, bytes);
        });
    link.device.connect_control([&link](const std::vector<std::uint8_t>& bytes) {
      if (link.session != nullptr) link.session->from_switch(bytes);
    });
    link.session->from_controller(encode(OfMessage{next_xid_++, FeaturesRequestMsg{}}));
    sim_.run();
    // Controller catch-all: drop anything reaching its first table.
    FlowModMsg catch_all;
    catch_all.cookie = kControllerCookie;
    catch_all.table_id = 0;  // controller view; the proxy shifts it to 1
    catch_all.priority = 0;
    catch_all.instructions = Instructions::drop();
    link.session->from_controller(encode(OfMessage{next_xid_++, catch_all}));
    sim_.run();
    // Steady state: switch control egress now rides the fault channel.
    link.device.connect_control([&link](const std::vector<std::uint8_t>& bytes) {
      link.from_switch->offer(bytes);
    });
    link.from_switch->restore();
    link.from_controller->restore();
    if (options_.socket_transport) attach_sockets(link, tag);
    link.connected = true;
  }

  // -------------------------------------------------- socket transport

  // Lossless fault spec: short reads/writes, EAGAIN storms and slow drain
  // reshape the IO-call pattern but never lose, reorder or corrupt bytes —
  // the reassembled streams must be byte-identical to the direct path.
  void attach_sockets(SwitchLink& link, const std::string& tag) {
    FaultSocketSpec spec;
    spec.short_read = 0.7;
    spec.eagain_read = 0.25;
    spec.short_write = 0.7;
    spec.eagain_write = 0.25;
    spec.slow_drain_cap = socket_rng_.chance(0.3) ? 7 : 0;
    auto make_conn = [&](std::unique_ptr<net::Connection>& conn,
                         FaultSocket*& sock) {
      auto fault_sock =
          std::make_unique<FaultSocket>(spec, socket_rng_.next_u64());
      sock = fault_sock.get();
      conn = std::make_unique<net::Connection>(nullptr, std::move(fault_sock),
                                               net::Connection::Config{});
      conn->start();
    };
    make_conn(link.rx_conn, link.rx_sock);
    make_conn(link.tx_conn, link.tx_sock);
    link.rx_conn->on_frame([&link](const FrameView& view) {
      link.rx_accum.insert(link.rx_accum.end(), view.data(),
                           view.data() + view.size());
    });
    link.rx_conn->on_corrupt([this, tag] {
      violation("SOCKET", tag + ": corrupt frame through lossless socket");
    });
    link.rx_conn->on_closed([this, tag](const char* reason) {
      violation("SOCKET", tag + ": rx connection closed: " + reason);
    });
    link.tx_conn->on_closed([this, tag](const char* reason) {
      violation("SOCKET", tag + ": tx connection closed: " + reason);
    });
  }

  // Carry one switch->proxy chunk through the real scatter-read machinery,
  // then deliver it with the original call boundary so downstream batching
  // is transport-independent.
  void deliver_via_socket(SwitchLink& link, const std::vector<std::uint8_t>& bytes) {
    link.rx_sock->peer_write(bytes);
    while (link.rx_conn->open() && link.rx_sock->pending_in() > 0) {
      link.rx_conn->handle_io(/*readable=*/true, /*writable=*/false);
    }
    std::vector<std::uint8_t> chunk;
    chunk.swap(link.rx_accum);
    if (chunk != bytes) {
      violation("SOCKET", "switch->proxy stream diverged through FaultSocket");
    }
    if (link.session != nullptr && !chunk.empty()) {
      link.session->from_switch(chunk);
    }
  }

  void detach_sockets(SwitchLink& link) {
    for (net::Connection* conn : {link.rx_conn.get(), link.tx_conn.get()}) {
      if (conn == nullptr) continue;
      socket_reads_ += conn->stats().reads;
      socket_writes_ += conn->stats().writes;
      socket_would_block_ +=
          conn->stats().would_block_reads + conn->stats().would_block_writes;
    }
    link.rx_conn.reset();
    link.tx_conn.reset();
    link.rx_sock = nullptr;
    link.tx_sock = nullptr;
    link.rx_accum.clear();
  }

  // Channel cut + session teardown while work may still be in flight: the
  // Session-lifetime regression scenario (proxy.cc alive_ token).
  void sever(SwitchLink& link) {
    plan_.note("sever sw" + std::to_string(link.device.dpid().value));
    ++severs_;
    link.from_switch->sever();
    link.from_controller->sever();
    detach_sockets(link);  // frames in the socket pipeline die with the cut
    DfiProxy::Session* session = link.session;
    link.session = nullptr;
    proxy_.destroy_session(*session);
    link.connected = false;
  }

  // ------------------------------------------------------------ the taps

  void on_to_switch(SwitchLink& link, const std::vector<std::uint8_t>& bytes) {
    egress_hash_ = fnv1a(egress_hash_, bytes);
    link.switch_tap.feed(bytes);
    for (auto& result : link.switch_tap.drain()) {
      if (!result.ok()) {
        violation("I2", "malformed proxy->switch frame: " + result.error().message);
        continue;
      }
      const OfMessage message = std::move(result).value();
      if (const auto* mod = std::get_if<FlowModMsg>(&message.payload)) {
        check_switch_flow_mod(link, *mod);
      }
    }
    if (link.tx_conn != nullptr) {
      // Proxy->switch egress rides the bounded-queue writev machinery; the
      // drained byte stream must match what the proxy emitted.
      if (!link.tx_conn->send(std::vector<std::uint8_t>(bytes))) {
        violation("SOCKET", "tx egress queue rejected a frame");
        link.device.receive_control(bytes);
        return;
      }
      while (link.tx_conn->open() && link.tx_conn->pending_egress_bytes() > 0) {
        link.tx_conn->flush();
      }
      const std::vector<std::uint8_t> drained = link.tx_sock->peer_drain();
      if (drained != bytes) {
        violation("SOCKET", "proxy->switch stream diverged through FaultSocket");
      }
      link.device.receive_control(drained);
    } else {
      link.device.receive_control(bytes);
    }
  }

  void check_switch_flow_mod(SwitchLink& link, const FlowModMsg& mod) {
    const std::uint64_t cookie = mod.cookie.value;
    const std::string tag = "sw" + std::to_string(link.device.dpid().value);
    if (mod.command == FlowModCommand::kAdd) {
      if (mod.table_id == 0) {
        ++installs_seen_;
        if (!model_.cookie_issued(cookie)) {
          violation("I2", tag + ": Table-0 install with foreign cookie " +
                              std::to_string(cookie));
        } else if (model_.cookie_revoked(cookie)) {
          violation("I3", tag + ": Table-0 install cites revoked policy " +
                              std::to_string(cookie));
        } else if (!options_.wildcard_caching) {
          // I4: the installed exact-match rule's action must equal the
          // reference verdict for that flow right now. Deliveries happen at
          // drain time, after every control-plane mutation of the step, so
          // "now" is exactly the state a fresh decision would see; the
          // stale-completion re-decide in the PCP is what makes this hold
          // for the threaded backend.
          const ModelVerdict verdict =
              model_.expected_verdict_match(link.device.dpid(), mod.match);
          const bool rule_allows = mod.instructions.goto_table.has_value();
          if (rule_allows != verdict.allow) {
            violation("I4", tag + ": installed rule " +
                                (rule_allows ? "allows" : "denies") +
                                " but model says " +
                                (verdict.allow ? "allow" : "deny") +
                                " (cookie " + std::to_string(cookie) + ")");
          }
        }
      } else if (model_.cookie_issued(cookie)) {
        violation("I2", tag + ": DFI cookie " + std::to_string(cookie) +
                            " escaped into table " + std::to_string(mod.table_id));
      }
      return;
    }
    if (mod.command == FlowModCommand::kDelete ||
        mod.command == FlowModCommand::kDeleteStrict) {
      if (mod.table_id != 0) return;
      const bool cookie_flush =
          mod.cookie_mask.value == ~std::uint64_t{0} && model_.cookie_issued(cookie);
      const bool resync_clear = mod.cookie_mask.value == 0 && cookie == 0;
      if (!cookie_flush && !resync_clear) {
        violation("I2", tag + ": unexpected Table-0 delete (cookie " +
                            std::to_string(cookie) + " mask " +
                            std::to_string(mod.cookie_mask.value) + ")");
      }
    }
  }

  void on_to_controller(SwitchLink& link, const std::vector<std::uint8_t>& bytes) {
    egress_hash_ = fnv1a(egress_hash_, bytes);
    link.controller_tap.feed(bytes);
    const std::string tag = "sw" + std::to_string(link.device.dpid().value);
    for (auto& result : link.controller_tap.drain()) {
      if (!result.ok()) {
        violation("I2", tag + ": malformed proxy->controller frame: " +
                            result.error().message);
        continue;
      }
      const OfMessage message = std::move(result).value();
      if (const auto* packet_in = std::get_if<PacketInMsg>(&message.payload)) {
        ++forwards_seen_;
        const auto verdict = model_.expected_verdict(
            link.device.dpid(), packet_in->in_port, packet_in->data);
        if (!verdict.has_value()) {
          violation("I1", tag + ": unparsable Packet-in forwarded to controller");
        } else if (!verdict->allow) {
          violation("I1", tag + ": " +
                              (verdict->spoofed ? "spoofed" : "denied") +
                              " Packet-in forwarded to controller");
        }
        continue;
      }
      if (const auto* features = std::get_if<FeaturesReplyMsg>(&message.payload)) {
        if (features->n_tables + 1 != link.device.pipeline().num_tables()) {
          violation("I2", tag + ": FEATURES_REPLY advertises " +
                              std::to_string(features->n_tables) +
                              " tables; Table 0 not hidden");
        }
        continue;
      }
      if (const auto* reply = std::get_if<MultipartReplyMsg>(&message.payload)) {
        for (const FlowStatsEntry& entry : reply->flow_stats) {
          if (model_.cookie_issued(entry.cookie.value)) {
            violation("I2", tag + ": DFI rule (cookie " +
                                std::to_string(entry.cookie.value) +
                                ") visible in flow stats");
          }
          if (entry.table_id + 1 >= link.device.pipeline().num_tables()) {
            violation("I2", tag + ": flow-stats row table " +
                                std::to_string(entry.table_id) +
                                " outside shifted range");
          }
        }
        continue;
      }
      if (const auto* removed = std::get_if<FlowRemovedMsg>(&message.payload)) {
        if (model_.cookie_issued(removed->cookie.value)) {
          violation("I2", tag + ": DFI FLOW_REMOVED leaked to controller");
        }
      }
    }
  }

  // ------------------------------------------------------------- stepping

  void step() {
    plan_.note("== step " + std::to_string(step_));
    for (auto& link : links_) {
      if (!link->connected && plan_.chance(0.6)) connect(*link);
    }
    const auto n_policy = plan_.rng().uniform_int(0, 2);
    for (std::int64_t i = 0; i < n_policy; ++i) policy_op("policy");
    const auto n_sensor = plan_.rng().uniform_int(2, 5);
    for (std::int64_t i = 0; i < n_sensor; ++i) sensor_event();
    controller_traffic();
    data_packets();
    flush_channels();
    // Without a timing model the PCP decides each Packet-in inline, as the
    // channels deliver it; only the proxy's deliveries are deferred on the
    // simulator. Land them before the mid-flight mutation below, so each
    // install reaches the tap (and its I3/I4 check) in the world it was
    // decided in. Threaded completions stay in flight until drain().
    sim_.run();
    // Incremental publication: capture a snapshot right after binding churn
    // flushed, so the revokes/severs below race against a held publication.
    if (options_.incremental_snapshots && plan_.chance(0.7)) {
      snapshot_probe("postflush");
    }
    // Races in-flight decisions: the threaded backend has submissions whose
    // snapshots predate this mutation; its stale-completion re-decide is
    // what keeps I3/I4 true.
    if (plan_.chance(0.5)) policy_op("midflight");
    for (auto& link : links_) {
      if (link->connected && plan_.chance(0.10)) sever(*link);
    }
    drain();
    if (options_.incremental_snapshots) {
      // A second capture after the drain (the post-churn world), then every
      // held snapshot — including ones from earlier steps — must still
      // answer from the world it was published in.
      if (plan_.chance(0.7)) snapshot_probe("postdrain");
      check_held_snapshots();
    }
    // The respawn draw must be unconditional and the note count-free: whether
    // a probe kill has landed by end-of-step (and how many workers it took)
    // races the drain, so gating the draw on dead_workers() — or noting the
    // revived count — would make the rng stream and trace timing-dependent.
    if (options_.worker_faults && plan_.chance(0.8)) {
      pcp_.respawn_dead_workers();
      plan_.note("respawn workers");
    }
    sweep_table0();
  }

  void policy_op(const std::string& tag) {
    if (!inserted_.empty() && plan_.chance(0.35)) {
      const auto idx = static_cast<std::size_t>(
          plan_.rng().uniform_int(0, static_cast<std::int64_t>(inserted_.size()) - 1));
      const PolicyRuleId id = inserted_[idx];
      const bool system_ok = policy_.revoke(id);
      const bool model_ok = model_.record_revoke(id);
      if (system_ok != model_ok) {
        violation("model", "revoke id=" + std::to_string(id.value) +
                               " diverged (system=" + std::to_string(system_ok) +
                               ")");
      }
      plan_.note(tag + ": revoke id=" + std::to_string(id.value));
      return;
    }
    PolicyRule rule;
    rule.action = plan_.chance(0.65) ? PolicyAction::kAllow : PolicyAction::kDeny;
    const std::size_t e = entity();
    switch (plan_.rng().uniform_int(0, 5)) {
      case 0: rule.source.user = user_of(e % (kEntities / 2)); break;
      case 1: rule.source.ip = ip_of(e); break;
      case 2: rule.destination.ip = ip_of(e); break;
      case 3:
        rule.destination.l4_port = plan_.chance(0.5) ? std::uint16_t{445}
                                                     : std::uint16_t{80};
        break;
      case 4: rule.properties.ip_proto = plan_.chance(0.5) ? 6 : 17; break;
      default: rule.source.host = host_of(e); break;
    }
    const PdpPriority priority{
        static_cast<std::uint32_t>(1 + plan_.rng().uniform_int(0, 4))};
    const PolicyRuleId system_id = policy_.insert(rule, priority, "fuzz");
    const PolicyRuleId model_id = model_.record_insert(rule, priority);
    if (system_id.value != model_id.value) {
      violation("model", "insert id diverged: system=" +
                             std::to_string(system_id.value) + " model=" +
                             std::to_string(model_id.value));
    }
    inserted_.push_back(system_id);
    plan_.note(tag + ": insert id=" + std::to_string(system_id.value) + " " +
               to_string(rule.action));
  }

  void sensor_event() {
    const std::size_t e = entity();
    switch (plan_.rng().uniform_int(0, 3)) {
      case 0: {
        DhcpLeaseEvent event;
        // Sometimes lease the IP to the "wrong" MAC: packets from the
        // canonical MAC become spoofs until rebound.
        event.mac = mac_of(plan_.chance(0.25) ? (e + 1) % kEntities : e);
        event.ip = ip_of(e);
        event.released = plan_.chance(0.2);
        event.at = sim_.now();
        plan_.note("dhcp e=" + std::to_string(e) +
                   (event.released ? " release" : " lease"));
        dhcp_->offer(event);
        break;
      }
      case 1: {
        DnsRecordEvent event;
        event.host = host_of(e);
        event.ip = ip_of(plan_.chance(0.2) ? (e + 1) % kEntities : e);
        event.removed = plan_.chance(0.2);
        event.at = sim_.now();
        plan_.note("dns e=" + std::to_string(e) +
                   (event.removed ? " removed" : " added"));
        dns_->offer(event);
        break;
      }
      case 2: {
        SessionEvent event;
        event.user = user_of(e % (kEntities / 2));
        event.host = host_of(e);
        event.logged_on = !plan_.chance(0.3);
        event.at = sim_.now();
        plan_.note("siem e=" + std::to_string(e) +
                   (event.logged_on ? " logon" : " logoff"));
        siem_->offer(event);
        break;
      }
      default: {
        BindingEvent event;
        event.kind = BindingKind::kIpMac;
        event.ip = ip_of(e);
        event.mac = mac_of(plan_.chance(0.25) ? (e + 1) % kEntities : e);
        event.retracted = plan_.chance(0.3);
        plan_.note("flap e=" + std::to_string(e) +
                   (event.retracted ? " retract" : " assert"));
        flap_->offer(event);
        break;
      }
    }
  }

  void controller_traffic() {
    SwitchLink& link = *links_[static_cast<std::size_t>(
        plan_.rng().uniform_int(0, static_cast<std::int64_t>(links_.size()) - 1))];
    if (plan_.chance(0.4)) {
      MultipartRequestMsg request;
      request.stats_type = kStatsTypeFlow;
      request.flow_request.table_id = 0xff;
      plan_.note("ctl: flow-stats request");
      link.from_controller->offer(OfMessage{next_xid_++, request});
    }
    if (plan_.chance(0.3)) {
      // Deny-only controller app rule (see kControllerCookie note above).
      FlowModMsg mod;
      mod.cookie = kControllerCookie;
      mod.table_id = static_cast<std::uint8_t>(plan_.rng().uniform_int(0, 2));
      mod.priority = static_cast<std::uint16_t>(10 + plan_.rng().uniform_int(0, 40));
      mod.match.ipv4_dst = ip_of(entity());
      mod.instructions = Instructions::drop();
      plan_.note("ctl: drop rule table=" + std::to_string(mod.table_id));
      link.from_controller->offer(OfMessage{next_xid_++, mod});
    }
    if (plan_.chance(0.15)) {
      // Re-query features mid-stream; a duplicated reply exercises the
      // spurious re-registration / resync path.
      plan_.note("ctl: features re-query");
      link.from_controller->offer(OfMessage{next_xid_++, FeaturesRequestMsg{}});
    }
  }

  // Batched schedules: one chunk carrying several table-0 Packet-in frames
  // back to back, the shape that actually forms multi-item batches (a
  // switch flushing a full TCP segment of misses). Injected straight into
  // the switch->proxy stream like the runt path; an occasional runt rides
  // inside the burst so unparsable frames are decided within a batch too.
  void packet_in_burst() {
    SwitchLink& link = *links_[static_cast<std::size_t>(
        plan_.rng().uniform_int(0, static_cast<std::int64_t>(links_.size()) - 1))];
    const auto n = plan_.rng().uniform_int(3, 8);
    std::vector<std::uint8_t> chunk;
    for (std::int64_t i = 0; i < n; ++i) {
      PacketInMsg msg;
      msg.table_id = 0;
      msg.in_port = PortNo{static_cast<std::uint32_t>(plan_.rng().uniform_int(1, 4))};
      if (plan_.chance(0.08)) {
        msg.data = {0xde, 0xad, 0xbe};
      } else {
        const std::size_t s = entity();
        const std::size_t d = entity();
        const MacAddress src_mac =
            mac_of(plan_.chance(0.2) ? (s + 1) % kEntities : s);
        const auto sport =
            static_cast<std::uint16_t>(1000 + 1000 * plan_.rng().uniform_int(0, 2));
        const std::uint16_t dport = plan_.chance(0.5) ? 445 : 80;
        const Packet packet =
            plan_.chance(0.25)
                ? make_udp_packet(src_mac, mac_of(d), ip_of(s), ip_of(d), sport, dport)
                : make_tcp_packet(src_mac, mac_of(d), ip_of(s), ip_of(d), sport, dport);
        msg.data = packet.serialize();
      }
      const std::vector<std::uint8_t> frame = encode(OfMessage{next_xid_++, msg});
      chunk.insert(chunk.end(), frame.begin(), frame.end());
    }
    plan_.note("packet-in burst n=" + std::to_string(n));
    ++packet_in_bursts_;
    link.from_switch->offer(chunk);
  }

  void data_packets() {
    if (options_.batched_datapath && plan_.chance(0.7)) packet_in_burst();
    const auto n = plan_.rng().uniform_int(8, 24);
    for (std::int64_t i = 0; i < n; ++i) {
      SwitchLink& link = *links_[static_cast<std::size_t>(
          plan_.rng().uniform_int(0, static_cast<std::int64_t>(links_.size()) - 1))];
      const PortNo port{static_cast<std::uint32_t>(plan_.rng().uniform_int(1, 4))};
      if (plan_.chance(0.08)) {
        // Runt: the switch itself drops unparsable frames, so a truncated
        // Packet-in is injected straight into the switch->proxy stream — a
        // buggy or hostile datapath.
        PacketInMsg runt;
        runt.table_id = 0;
        runt.in_port = port;
        runt.data = {0xde, 0xad, 0xbe};
        plan_.note("runt packet-in");
        link.from_switch->offer(encode(OfMessage{next_xid_++, runt}));
        continue;
      }
      const std::size_t s = entity();
      const std::size_t d = entity();
      const MacAddress src_mac =
          mac_of(plan_.chance(0.2) ? (s + 1) % kEntities : s);
      const auto sport =
          static_cast<std::uint16_t>(1000 + 1000 * plan_.rng().uniform_int(0, 2));
      const std::uint16_t dport = plan_.chance(0.5) ? 445 : 80;
      const Packet packet =
          plan_.chance(0.25)
              ? make_udp_packet(src_mac, mac_of(d), ip_of(s), ip_of(d), sport, dport)
              : make_tcp_packet(src_mac, mac_of(d), ip_of(s), ip_of(d), sport, dport);
      link.device.receive_packet(port, packet.serialize());
    }
  }

  void flush_channels() {
    dhcp_->flush();
    dns_->flush();
    siem_->flush();
    flap_->flush();
    for (auto& link : links_) {
      link->from_controller->flush();
      link->from_switch->flush();
    }
  }

  void drain() {
    // Applying threaded completions in wait_idle defers their deliveries,
    // so each wait precedes the sim run that delivers them.
    pcp_.wait_idle();
    sim_.run();
    pcp_.wait_idle();
    sim_.run();
  }

  // I3: after the step quiesced, no connected switch's Table 0 cites a
  // revoked cookie (severed switches legitimately hold stale rules until
  // the reconnect resync clears them — so only connected ones are swept).
  void sweep_table0() {
    for (auto& link : links_) {
      if (!link->connected) continue;
      const std::string tag = "sw" + std::to_string(link->device.dpid().value);
      link->device.pipeline().table(0).for_each([&](const FlowRule& rule) {
        if (model_.cookie_revoked(rule.cookie.value)) {
          violation("I3", tag + ": Table 0 retains rule of revoked policy " +
                              std::to_string(rule.cookie.value));
        } else if (!model_.cookie_issued(rule.cookie.value)) {
          violation("I2", tag + ": foreign rule (cookie " +
                              std::to_string(rule.cookie.value) + ") in Table 0");
        }
      });
    }
  }

  void final_settle() {
    plan_.note("== final settle");
    for (auto& link : links_) {
      if (!link->connected) connect(*link);
    }
    flush_channels();
    if (options_.backend == PcpBackend::kThreads) {
      // Count deliberately not noted: how many workers were dead here is
      // timing-dependent (see the respawn draw in step()).
      pcp_.respawn_dead_workers();
    }
    drain();
    sweep_table0();
    // Quiesce accounting: every pooled frame buffer — deferred deliveries,
    // buffers stranded on severed sessions — must have returned to the
    // pool once nothing is in flight.
    if (proxy_.buffer_pool().in_use() != 0) {
      violation("pool", std::to_string(proxy_.buffer_pool().in_use()) +
                            " pooled buffers outstanding at quiesce");
    }
  }

  // I5: submission-order effect application under worker kills, checked on
  // a raw pool so ordering is observed directly rather than through the
  // PCP's own effects. Runs for every schedule; the kill/stall probe is
  // always armed here.
  void check_pool_order() {
    plan_.note("== pool-order sub-check");
    PcpConfig config;
    config.backend = PcpBackend::kThreads;
    config.shards = 3;
    config.queue_capacity = 64;
    PcpShardPool pool(config);
    const std::uint64_t seed = options_.seed;
    pool.set_worker_fault_probe([seed](std::size_t shard, std::uint64_t seq) {
      const std::uint64_t h =
          mix64(seed ^ 0xDEAD5EEDull ^ (static_cast<std::uint64_t>(shard) << 40) ^
                seq);
      if (h % 13 == 0) return WorkerFault::kKill;
      if (h % 7 == 0) return WorkerFault::kStall;
      return WorkerFault::kNone;
    });

    std::vector<std::uint64_t> applied;
    std::uint64_t tag = 0;
    std::uint64_t accepted = 0;
    for (int round = 0; round < 4; ++round) {
      for (int j = 0; j < 32; ++j) {
        const auto shard = static_cast<std::size_t>(plan_.rng().uniform_int(0, 2));
        const std::uint64_t my_tag = tag++;
        const bool ok = pool.submit_threaded(shard, [my_tag, &applied]() {
          return [my_tag, &applied]() { applied.push_back(my_tag); };
        });
        if (ok) ++accepted;
      }
      pool.poll_completions();
      if (plan_.chance(0.5)) pool.respawn_dead_workers();
    }
    pool.wait_idle();
    pool.respawn_dead_workers();
    pool.wait_idle();

    for (std::size_t i = 1; i < applied.size(); ++i) {
      if (applied[i] <= applied[i - 1]) {
        violation("I5", "pool applied job " + std::to_string(applied[i]) +
                            " after " + std::to_string(applied[i - 1]));
        break;
      }
    }
    if (applied.size() + pool.jobs_abandoned() != accepted) {
      violation("I5", "pool lost jobs: accepted " + std::to_string(accepted) +
                          ", applied " + std::to_string(applied.size()) +
                          ", abandoned " + std::to_string(pool.jobs_abandoned()));
    }
    // Not noted in the trace: *which* submissions a dying shard still
    // accepts races the kill, so the count is not part of the replayable
    // schedule (the order and conservation checks above are what matter).
    pool_jobs_checked_ = accepted;
  }

  // ---------------------------------------- incremental snapshot probes

  // One held publication: the ERM and policy snapshots, the entity probed
  // at capture time, and the answers they gave then. Re-asking later must
  // return the same bytes no matter what the live managers did since
  // (DESIGN.md §8): an incremental publish clones only the nodes it
  // touches, so a stale clone would surface here as a drifted answer or a
  // moved epoch.
  struct HeldSnapshot {
    ErmSnapshot snap;
    std::size_t captured_step;
    Ipv4Address ip;
    std::uint64_t epoch;
    std::vector<Hostname> hostnames;
    std::vector<Username> usernames;
    std::shared_ptr<const PolicySnapshot> policy;
    std::uint64_t policy_epoch;
    FlowView flow;  // from the probed entity to itself, TCP/445
    PolicyDecision decision;
  };

  void snapshot_probe(const std::string& tag) {
    const std::size_t e = entity();
    const Ipv4Address ip = ip_of(e);
    ErmSnapshot snap = erm_.snapshot_view();
    EndpointView view;
    view.ip = ip;
    EndpointView enriched = snap.enrich(std::move(view));
    plan_.note(tag + ": hold snapshot epoch=" + std::to_string(snap.epoch()) +
               " e=" + std::to_string(e) +
               " hosts=" + std::to_string(enriched.hostnames.size()) +
               " users=" + std::to_string(enriched.usernames.size()));
    const std::uint64_t epoch = snap.epoch();
    FlowView flow;
    flow.ether_type = 0x0800;
    flow.ip_proto = 6;
    flow.src = enriched;
    flow.dst.ip = ip;
    flow.dst.l4_port = 445;
    std::shared_ptr<const PolicySnapshot> policy = policy_.snapshot_view();
    const PolicyDecision decision = policy->query(flow);
    const std::uint64_t policy_epoch = policy->epoch();
    held_.push_back(HeldSnapshot{std::move(snap), step_, ip, epoch,
                                 std::move(enriched.hostnames),
                                 std::move(enriched.usernames), std::move(policy),
                                 policy_epoch, std::move(flow), decision});
    ++snapshot_probes_;
    if (held_.size() > 4) held_.erase(held_.begin());
  }

  void check_held_snapshots() {
    for (const HeldSnapshot& held : held_) {
      const std::string tag =
          "held snapshot (step " + std::to_string(held.captured_step) + ")";
      if (held.snap.epoch() != held.epoch) {
        violation("I4", tag + " epoch moved: " + std::to_string(held.epoch) +
                            " -> " + std::to_string(held.snap.epoch()));
      }
      EndpointView view;
      view.ip = held.ip;
      const EndpointView now = held.snap.enrich(std::move(view));
      if (now.hostnames != held.hostnames || now.usernames != held.usernames) {
        violation("I4", tag + " answer drifted under churn");
      }
      if (held.policy->epoch() != held.policy_epoch) {
        violation("I4", tag + " policy epoch moved: " + std::to_string(held.policy_epoch) +
                            " -> " + std::to_string(held.policy->epoch()));
      }
      const PolicyDecision decision = held.policy->query(held.flow);
      if (decision.action != held.decision.action ||
          decision.rule_id != held.decision.rule_id) {
        violation("I4", tag + " policy decision drifted under churn: rule " +
                            std::to_string(held.decision.rule_id.value) + " -> " +
                            std::to_string(decision.rule_id.value));
      }
    }
  }

  std::size_t entity() {
    return static_cast<std::size_t>(plan_.rng().uniform_int(0, kEntities - 1));
  }

  FuzzOptions options_;
  FaultPlan plan_;
  Simulator sim_;
  MessageBus bus_;
  EntityResolutionManager erm_;
  PolicyManager policy_;
  SensorSuite sensors_;
  ReferenceModel model_;
  PolicyCompilationPoint pcp_;
  DfiProxy proxy_;
  std::vector<std::unique_ptr<SwitchLink>> links_;
  std::unique_ptr<FaultChannel<DhcpLeaseEvent>> dhcp_;
  std::unique_ptr<FaultChannel<DnsRecordEvent>> dns_;
  std::unique_ptr<FaultChannel<SessionEvent>> siem_;
  std::unique_ptr<FaultChannel<BindingEvent>> flap_;

  std::vector<PolicyRuleId> inserted_;
  std::vector<HeldSnapshot> held_;
  std::uint64_t snapshot_probes_ = 0;
  std::vector<std::string> violations_;
  std::size_t step_ = 0;
  std::uint32_t next_xid_ = 100;
  std::uint64_t installs_seen_ = 0;
  std::uint64_t forwards_seen_ = 0;
  std::uint64_t severs_ = 0;
  std::uint64_t reconnects_ = 0;
  std::uint64_t pool_jobs_checked_ = 0;
  std::uint64_t packet_in_bursts_ = 0;
  // socket_transport state. The rng is dedicated (never FaultPlan's) and
  // only drawn from when the flag is on, so pre-existing schedules keep
  // byte-identical traces.
  Rng socket_rng_{0};
  std::uint64_t socket_reads_ = 0;
  std::uint64_t socket_writes_ = 0;
  std::uint64_t socket_would_block_ = 0;
  std::uint64_t egress_hash_ = 1469598103934665603ull;  // FNV offset basis
};

}  // namespace

FuzzResult run_fuzz_schedule(const FuzzOptions& options) {
  FuzzResult result;
  FuzzWorld world(options);
  world.run();
  world.finish(result);
  return result;
}

std::string replay_instructions(const FuzzOptions& options) {
  std::ostringstream os;
  os << "To replay this schedule:\n"
     << "  DFI_FUZZ_SEED=" << options.seed
     << " ./build/tests/fuzz_invariants_test\n"
     << "  (or: ./build/tests/fuzz_invariants_test --seed=" << options.seed
     << ")\n"
     << "  schedule: " << describe(options) << "\n"
     << "Every fault decision is drawn from this seed; the failing "
        "FuzzResult.trace is byte-identical on replay.";
  return os.str();
}

}  // namespace dfi::test
