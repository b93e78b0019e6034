#include "testbed/network.h"

#include <cassert>

namespace dfi {

Network::Network(Simulator& sim, NetworkConfig config)
    : sim_(sim), config_(config), arp_(std::make_shared<ArpTable>()) {}

SwitchDevice& Network::add_switch(Dpid dpid) {
  assert(switches_.count(dpid) == 0);
  SwitchConfig sw_config;
  sw_config.dpid = dpid;
  sw_config.num_tables = config_.switch_tables;
  sw_config.table_capacity = config_.switch_table_capacity;
  auto device = std::make_unique<SwitchDevice>(sw_config, sim_.clock());
  SwitchDevice& ref = *device;
  switches_.emplace(dpid, std::move(device));
  return ref;
}

void Network::link_switches(Dpid a, PortNo port_a, Dpid b, PortNo port_b) {
  SwitchDevice* sw_a = find_switch(a);
  SwitchDevice* sw_b = find_switch(b);
  assert(sw_a != nullptr && sw_b != nullptr);
  const SimDuration latency = config_.link_latency;
  sw_a->add_port(port_a, [this, sw_b, port_b, latency](
                             PortNo, const std::vector<std::uint8_t>& bytes) {
    sim_.schedule_after(latency,
                        [sw_b, port_b, bytes]() { sw_b->receive_packet(port_b, bytes); });
  });
  sw_b->add_port(port_b, [this, sw_a, port_a, latency](
                             PortNo, const std::vector<std::uint8_t>& bytes) {
    sim_.schedule_after(latency,
                        [sw_a, port_a, bytes]() { sw_a->receive_packet(port_a, bytes); });
  });
}

Host& Network::add_host(const Hostname& name, MacAddress mac, Dpid dpid, PortNo port) {
  SwitchDevice* sw = find_switch(dpid);
  assert(sw != nullptr);
  auto host = std::make_unique<Host>(sim_, name, mac, arp_);
  Host* host_ptr = host.get();
  const SimDuration latency = config_.link_latency;

  // Host NIC -> switch port.
  host_ptr->set_transmit([this, sw, port, latency](const std::vector<std::uint8_t>& bytes) {
    sim_.schedule_after(latency,
                        [sw, port, bytes]() { sw->receive_packet(port, bytes); });
  });
  // Switch port -> host NIC.
  sw->add_port(port, [this, host_ptr, latency](PortNo,
                                               const std::vector<std::uint8_t>& bytes) {
    sim_.schedule_after(latency, [host_ptr, bytes]() { host_ptr->receive(bytes); });
  });

  hosts_by_name_[name] = host_ptr;
  hosts_.push_back(std::move(host));
  return *host_ptr;
}

SwitchDevice* Network::find_switch(Dpid dpid) {
  const auto it = switches_.find(dpid);
  return it == switches_.end() ? nullptr : it->second.get();
}

Host* Network::find_host(const Hostname& name) {
  const auto it = hosts_by_name_.find(name);
  return it == hosts_by_name_.end() ? nullptr : it->second;
}

Host* Network::find_host_by_ip(Ipv4Address ip) {
  for (const auto& host : hosts_) {
    if (host->ip() == ip) return host.get();
  }
  return nullptr;
}

std::vector<Host*> Network::hosts() {
  std::vector<Host*> out;
  out.reserve(hosts_.size());
  for (const auto& host : hosts_) out.push_back(host.get());
  return out;
}

std::vector<SwitchDevice*> Network::switches() {
  std::vector<SwitchDevice*> out;
  out.reserve(switches_.size());
  for (const auto& [dpid, sw] : switches_) out.push_back(sw.get());
  return out;
}

void Network::attach_dfi_control(DfiSystem& dfi, LearningController& controller) {
  const SimDuration latency = config_.control_latency;
  for (const auto& [dpid, sw_ptr] : switches_) {
    SwitchDevice* sw = sw_ptr.get();

    // The proxy session and controller session reference each other; a
    // shared wiring block breaks the construction cycle.
    struct Wiring {
      DfiProxy::Session* proxy = nullptr;
      LearningController::Session* ctrl = nullptr;
    };
    auto wiring = std::make_shared<Wiring>();

    DfiProxy::Session& proxy_session = dfi.proxy().create_session(
        // proxy -> switch
        [this, sw, latency](const std::vector<std::uint8_t>& bytes) {
          sim_.schedule_after(latency, [sw, bytes]() { sw->receive_control(bytes); });
        },
        // proxy -> controller
        [this, wiring, latency](const std::vector<std::uint8_t>& bytes) {
          sim_.schedule_after(latency, [wiring, bytes]() {
            if (wiring->ctrl != nullptr) wiring->ctrl->receive(bytes);
          });
        });
    wiring->proxy = &proxy_session;

    LearningController::Session& ctrl_session = controller.accept_connection(
        // controller -> proxy
        [this, wiring, latency](const std::vector<std::uint8_t>& bytes) {
          sim_.schedule_after(latency, [wiring, bytes]() {
            if (wiring->proxy != nullptr) wiring->proxy->from_controller(bytes);
          });
        });
    wiring->ctrl = &ctrl_session;

    // switch -> proxy
    sw->connect_control([this, wiring, latency](const std::vector<std::uint8_t>& bytes) {
      sim_.schedule_after(latency, [wiring, bytes]() {
        if (wiring->proxy != nullptr) wiring->proxy->from_switch(bytes);
      });
    });
  }
}

void Network::attach_direct_control(LearningController& controller) {
  const SimDuration latency = config_.control_latency;
  for (const auto& [dpid, sw_ptr] : switches_) {
    SwitchDevice* sw = sw_ptr.get();
    LearningController::Session& session = controller.accept_connection(
        [this, sw, latency](const std::vector<std::uint8_t>& bytes) {
          sim_.schedule_after(latency, [sw, bytes]() { sw->receive_control(bytes); });
        });
    sw->connect_control(
        [this, &session, latency](const std::vector<std::uint8_t>& bytes) {
          sim_.schedule_after(latency,
                              [&session, bytes]() { session.receive(bytes); });
        });
    // Without DFI there is no default-deny Table 0: packets fall straight
    // through to the controller pipeline. Table 0 miss already raises a
    // Packet-in, which is the controller's reactive path — nothing to add.
  }
}

void Network::settle() {
  // The handshake involves a fixed, small number of exchanges; a second of
  // simulated time is orders of magnitude more than enough.
  sim_.run_until(sim_.now() + seconds(1.0));
}

void Network::inject(Dpid dpid, PortNo port, const std::vector<std::uint8_t>& bytes) {
  SwitchDevice* sw = find_switch(dpid);
  assert(sw != nullptr);
  sw->receive_packet(port, bytes);
}

}  // namespace dfi
