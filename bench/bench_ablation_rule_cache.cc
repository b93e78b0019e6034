// Ablation: exact-match rules vs the wildcard-caching extension
// (paper Section III-B future work, CAB-ACME).
//
// Workload: an enterprise-ish pattern — H client hosts each opening F
// short flows (fresh ephemeral ports) to each of S servers, under per-pair
// IP Allow policies. With exact-match rules every flow costs a
// control-plane round trip and a Table-0 entry; with caching, the first
// flow per (client, server) pair installs one wildcard rule that absorbs
// the rest.
#include <cstdio>
#include <vector>

#include "bus/message_bus.h"
#include "core/pcp.h"
#include "harness/report.h"
#include "openflow/switch_device.h"
#include "sim/simulator.h"

using namespace dfi;

namespace {

struct Outcome {
  std::uint64_t packet_ins = 0;
  std::uint64_t table_rules = 0;
  std::uint64_t fallbacks = 0;
};

Outcome run(bool caching, int clients, int servers, int flows_per_pair) {
  Simulator sim;
  MessageBus bus;
  EntityResolutionManager erm(bus);
  PolicyManager manager(bus);
  PcpConfig config;
  config.wildcard_caching = caching;
  PolicyCompilationPoint pcp(sim, bus, erm, manager, config);

  SwitchDevice device(SwitchConfig{Dpid{1}, 4, 1 << 20}, [&sim]() { return sim.now(); });
  device.add_port(PortNo{1}, [](PortNo, const std::vector<std::uint8_t>&) {});
  device.add_port(PortNo{2}, [](PortNo, const std::vector<std::uint8_t>&) {});
  device.connect_control([&pcp](const std::vector<std::uint8_t>& bytes) {
    FrameDecoder decoder;
    decoder.feed(bytes);
    for (auto& result : decoder.drain()) {
      if (!result.ok()) continue;
      if (auto* packet_in = std::get_if<PacketInMsg>(&result.value().payload)) {
        // Only Table-0 misses are DFI's to decide (the proxy's routing
        // rule); misses in the controller tables are the controller's
        // reactive-forwarding load, not access control.
        if (packet_in->table_id == 0) {
          pcp.handle_packet_in(Dpid{1}, *packet_in, nullptr);
        }
      }
    }
  });
  pcp.register_switch(Dpid{1}, [&device](const OfMessage& message) {
    device.receive_control(encode(message));
  });

  const auto client_ip = [](int c) { return Ipv4Address(10, 0, 1, static_cast<std::uint8_t>(c + 1)); };
  const auto server_ip = [](int s) { return Ipv4Address(10, 0, 2, static_cast<std::uint8_t>(s + 1)); };

  for (int c = 0; c < clients; ++c) {
    for (int s = 0; s < servers; ++s) {
      PolicyRule rule;
      rule.action = PolicyAction::kAllow;
      rule.source.ip = client_ip(c);
      rule.destination.ip = server_ip(s);
      manager.insert(rule, PdpPriority{10}, "pairs");
    }
  }

  std::uint16_t ephemeral = 49152;
  for (int f = 0; f < flows_per_pair; ++f) {
    for (int c = 0; c < clients; ++c) {
      for (int s = 0; s < servers; ++s) {
        const Packet packet = make_tcp_packet(
            MacAddress::from_u64(0x100 + static_cast<std::uint64_t>(c)),
            MacAddress::from_u64(0x200 + static_cast<std::uint64_t>(s)),
            client_ip(c), server_ip(s), ephemeral, 443);
        device.receive_packet(PortNo{1}, packet.serialize());
        sim.run();
        ++ephemeral;
      }
    }
  }

  Outcome outcome;
  outcome.packet_ins = pcp.stats().packet_ins;
  outcome.table_rules = device.pipeline().table(0).size();
  outcome.fallbacks = pcp.stats().wildcard_fallbacks;
  return outcome;
}

}  // namespace

int main() {
  std::printf(
      "DFI reproduction — ablation: exact-match vs wildcard rule caching\n");

  constexpr int kClients = 20, kServers = 5, kFlowsPerPair = 20;
  const Outcome exact = run(false, kClients, kServers, kFlowsPerPair);
  const Outcome cached = run(true, kClients, kServers, kFlowsPerPair);

  Report report("Rule caching: " + std::to_string(kClients) + " clients x " +
                std::to_string(kServers) + " servers x " +
                std::to_string(kFlowsPerPair) + " flows/pair (2000 flows)");
  report.columns({"Configuration", "Packet-ins", "Table-0 rules", "Safety fallbacks"});
  report.row({"exact-match (paper baseline)", std::to_string(exact.packet_ins),
              std::to_string(exact.table_rules), "-"});
  report.row({"wildcard caching (extension)", std::to_string(cached.packet_ins),
              std::to_string(cached.table_rules), std::to_string(cached.fallbacks)});
  report.note("expected: caching needs one packet-in and one rule per (client, server)");
  report.note("pair; exact-match pays one of each per flow. Decisions are identical");
  report.note("(tests/rule_cache_test.cc verifies the differential property).");
  report.print();
  return 0;
}
