// Software OpenFlow switch (Open vSwitch surrogate).
//
// Owns a multi-table pipeline and a control channel speaking the OF 1.3
// wire format. Data-plane packets that miss in the tables are raised as
// Packet-in messages; Flow-Mod/Packet-Out/Multipart requests from the
// control plane are applied exactly as OVS would. Port egress and control
// egress are callbacks so the testbed can wire switches into a topology and
// the proxy can interpose on the control channel.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <vector>

#include "common/frame_buffer_pool.h"
#include "common/sim_time.h"
#include "common/types.h"
#include "openflow/messages.h"
#include "openflow/pipeline.h"
#include "openflow/secure_channel.h"
#include "openflow/wire.h"

namespace dfi {

struct SwitchConfig {
  Dpid dpid{};
  std::uint8_t num_tables = 4;
  std::size_t table_capacity = 8192;
};

struct SwitchCounters {
  std::uint64_t packets_in = 0;       // data-plane packets received
  std::uint64_t packets_forwarded = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t packet_in_events = 0;  // sent to control plane
  std::uint64_t flow_mods = 0;
  std::uint64_t packet_outs = 0;
};

class SwitchDevice {
 public:
  using PortOutputFn = std::function<void(PortNo, const std::vector<std::uint8_t>&)>;
  using ControlOutputFn = std::function<void(const std::vector<std::uint8_t>&)>;

  SwitchDevice(SwitchConfig config, ClockFn clock);

  Dpid dpid() const { return config_.dpid; }
  Pipeline& pipeline() { return pipeline_; }
  const Pipeline& pipeline() const { return pipeline_; }
  const SwitchCounters& counters() const { return counters_; }

  // Register a data-plane port. `output` delivers bytes out of that port.
  void add_port(PortNo port, PortOutputFn output, const std::string& name = "");
  std::vector<PortNo> ports() const;

  // Administratively take a link down / bring it back up. Egress on a down
  // port is dropped, ingress ignored, and a PORT_STATUS message is raised
  // to the control plane.
  void set_port_down(PortNo port, bool down);
  bool port_down(PortNo port) const;

  // Per-port counters (also served via OFPMP_PORT_STATS).
  PortStatsEntry port_stats(PortNo port) const;

  // Attach the control channel (to the proxy or directly to a controller)
  // and emit the initial HELLO.
  void connect_control(ControlOutputFn output);

  // Front the control channel with a TLS surrogate (both directions; the
  // channel must outlive this object, nullptr detaches). Egress reuses the
  // pooled seal_into path — encode into one pooled buffer, seal in place
  // into a second — so a secured link leaving via a real socket still
  // allocates nothing per frame at steady state. Ingress expects one
  // sealed record per receive_control() delivery (the record format has no
  // outer framing); records that fail to open are dropped and counted by
  // the channel.
  void secure_control(SecureChannel* channel) { secure_ = channel; }

  // A data-plane packet arrives on `in_port`.
  void receive_packet(PortNo in_port, const std::vector<std::uint8_t>& bytes);

  // Control-channel bytes arrive from the controller side.
  void receive_control(const std::vector<std::uint8_t>& chunk);

  // Run idle/hard timeout expiry across all tables (the testbed calls this
  // periodically when timeouts are in use; DFI itself installs none).
  void expire_flows();

  // Control-egress frame buffer reuse (Packet-in floods are the hot case).
  const FrameBufferPool& control_buffer_pool() const { return control_pool_; }

 private:
  void handle_message(const OfMessage& message);
  void apply_flow_mod(const FlowModMsg& mod);
  void execute_actions(const std::vector<Action>& actions, PortNo in_port,
                       const std::vector<std::uint8_t>& bytes);
  void send_to_control(const OfMessage& message);
  void send_packet_in(PortNo in_port, std::uint8_t table_id,
                      const std::vector<std::uint8_t>& bytes);
  void send_flow_removed(const FlowRule& rule, FlowRemovedReason reason);
  void flood(PortNo in_port, const std::vector<std::uint8_t>& bytes);

  struct Port {
    PortOutputFn output;
    std::string name;
    bool down = false;
    std::uint64_t rx_packets = 0;
    std::uint64_t tx_packets = 0;
    std::uint64_t rx_bytes = 0;
    std::uint64_t tx_bytes = 0;
    std::uint64_t rx_dropped = 0;
    std::uint64_t tx_dropped = 0;
    SimTime since{};
  };

  void transmit(PortNo port, Port& state, const std::vector<std::uint8_t>& bytes);
  PortDesc describe(PortNo port, const Port& state) const;

  SwitchConfig config_;
  ClockFn clock_;
  Pipeline pipeline_;
  std::map<PortNo, Port> ports_;
  ControlOutputFn control_output_;
  SecureChannel* secure_ = nullptr;
  FrameDecoder control_decoder_;
  // Control egress is synchronous (callback returns before the buffer is
  // released), so one small pool serves every outbound message.
  FrameBufferPool control_pool_;
  SwitchCounters counters_;
  std::uint32_t next_xid_ = 1;
};

}  // namespace dfi
