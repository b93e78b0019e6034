// Packet model: Ethernet / ARP / IPv4 / TCP / UDP headers plus serialization.
//
// The OpenFlow substrate carries real byte buffers in Packet-in/Packet-out
// messages, so packets must round-trip through a wire encoding. The header
// layouts follow the on-the-wire formats (big-endian fields) closely enough
// that match extraction, the DFI PCP's identifier collection, and the wire
// codec all operate on the same bytes.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "common/result.h"
#include "net/ipv4.h"
#include "net/mac.h"

namespace dfi {

// EtherType values used by the reproduction.
enum class EtherType : std::uint16_t {
  kIpv4 = 0x0800,
  kArp = 0x0806,
  kVlan = 0x8100,
  kIpv6 = 0x86dd,
  kExperimental = 0x88b5,  // randomized background traffic (Fig. 4 workload)
};

// IP protocol numbers used by the reproduction.
enum class IpProto : std::uint8_t {
  kIcmp = 1,
  kTcp = 6,
  kUdp = 17,
};

std::string to_string(EtherType type);
std::string to_string(IpProto proto);

struct EthernetHeader {
  MacAddress dst;
  MacAddress src;
  std::uint16_t ether_type = 0;
};

enum class ArpOp : std::uint16_t { kRequest = 1, kReply = 2 };

struct ArpHeader {
  ArpOp op = ArpOp::kRequest;
  MacAddress sender_mac;
  Ipv4Address sender_ip;
  MacAddress target_mac;
  Ipv4Address target_ip;
};

struct Ipv4Header {
  std::uint8_t ttl = 64;
  std::uint8_t protocol = 0;
  Ipv4Address src;
  Ipv4Address dst;
};

// TCP flag bits (subset).
inline constexpr std::uint8_t kTcpFin = 0x01;
inline constexpr std::uint8_t kTcpSyn = 0x02;
inline constexpr std::uint8_t kTcpRst = 0x04;
inline constexpr std::uint8_t kTcpAck = 0x10;

struct TcpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  std::uint8_t flags = 0;
};

struct UdpHeader {
  std::uint16_t src_port = 0;
  std::uint16_t dst_port = 0;
};

// A parsed packet. `eth` is always present; exactly one of `arp`/`ipv4` may
// be present, and for IPv4 at most one of `tcp`/`udp`.
struct Packet {
  EthernetHeader eth;
  std::optional<ArpHeader> arp;
  std::optional<Ipv4Header> ipv4;
  std::optional<TcpHeader> tcp;
  std::optional<UdpHeader> udp;
  std::vector<std::uint8_t> payload;

  bool is_ipv4() const { return ipv4.has_value(); }
  bool is_arp() const { return arp.has_value(); }

  // Serialize to wire bytes (Ethernet II framing).
  std::vector<std::uint8_t> serialize() const;

  // Parse from wire bytes. Unknown EtherTypes/IP protocols keep the raw
  // remainder as payload rather than failing: DFI must make access-control
  // decisions even for traffic it cannot fully parse.
  static Result<Packet> parse(const std::vector<std::uint8_t>& bytes);
  // The same over a borrowed span (a Packet-in's bytes inside its frame).
  // Only a non-empty payload is copied, into `payload`.
  static Result<Packet> parse(const std::uint8_t* bytes, std::size_t size);

  std::string summary() const;
};

// Convenience constructors for the traffic the experiments generate.
Packet make_tcp_packet(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                       Ipv4Address dst_ip, std::uint16_t src_port,
                       std::uint16_t dst_port, std::uint8_t flags = kTcpSyn);
Packet make_udp_packet(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                       Ipv4Address dst_ip, std::uint16_t src_port,
                       std::uint16_t dst_port);
Packet make_arp_request(MacAddress src_mac, Ipv4Address src_ip, Ipv4Address target_ip);
Packet make_arp_reply(MacAddress src_mac, Ipv4Address src_ip, MacAddress dst_mac,
                      Ipv4Address dst_ip);

}  // namespace dfi
