#include "net/packet.h"

#include <cstdio>

namespace dfi {
namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t value) {
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t value) {
  out.push_back(static_cast<std::uint8_t>(value >> 24));
  out.push_back(static_cast<std::uint8_t>(value >> 16));
  out.push_back(static_cast<std::uint8_t>(value >> 8));
  out.push_back(static_cast<std::uint8_t>(value));
}

void put_mac(std::vector<std::uint8_t>& out, const MacAddress& mac) {
  for (auto octet : mac.octets()) out.push_back(octet);
}

class Reader {
 public:
  Reader(const std::uint8_t* bytes, std::size_t size) : bytes_(bytes), size_(size) {}

  bool has(std::size_t n) const { return pos_ + n <= size_; }
  std::size_t remaining() const { return size_ - pos_; }

  std::uint8_t u8() { return bytes_[pos_++]; }
  std::uint16_t u16() {
    const std::uint16_t value =
        static_cast<std::uint16_t>((bytes_[pos_] << 8) | bytes_[pos_ + 1]);
    pos_ += 2;
    return value;
  }
  std::uint32_t u32() {
    std::uint32_t value = 0;
    for (int i = 0; i < 4; ++i) value = (value << 8) | bytes_[pos_ + i];
    pos_ += 4;
    return value;
  }
  MacAddress mac() {
    std::array<std::uint8_t, 6> octets{};
    for (auto& octet : octets) octet = bytes_[pos_++];
    return MacAddress(octets);
  }
  void skip(std::size_t n) { pos_ += n; }
  std::vector<std::uint8_t> rest() { return {bytes_ + pos_, bytes_ + size_}; }

 private:
  const std::uint8_t* bytes_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

}  // namespace

std::string to_string(EtherType type) {
  switch (type) {
    case EtherType::kIpv4: return "IPv4";
    case EtherType::kArp: return "ARP";
    case EtherType::kVlan: return "VLAN";
    case EtherType::kIpv6: return "IPv6";
    case EtherType::kExperimental: return "EXP";
  }
  char buf[16];
  std::snprintf(buf, sizeof(buf), "0x%04x", static_cast<unsigned>(type));
  return buf;
}

std::string to_string(IpProto proto) {
  switch (proto) {
    case IpProto::kIcmp: return "ICMP";
    case IpProto::kTcp: return "TCP";
    case IpProto::kUdp: return "UDP";
  }
  return "proto=" + std::to_string(static_cast<unsigned>(proto));
}

std::vector<std::uint8_t> Packet::serialize() const {
  std::vector<std::uint8_t> out;
  out.reserve(64 + payload.size());

  put_mac(out, eth.dst);
  put_mac(out, eth.src);
  put_u16(out, eth.ether_type);

  if (arp.has_value()) {
    // Standard ARP for Ethernet/IPv4: htype=1, ptype=0x0800, hlen=6, plen=4.
    put_u16(out, 1);
    put_u16(out, 0x0800);
    out.push_back(6);
    out.push_back(4);
    put_u16(out, static_cast<std::uint16_t>(arp->op));
    put_mac(out, arp->sender_mac);
    put_u32(out, arp->sender_ip.value());
    put_mac(out, arp->target_mac);
    put_u32(out, arp->target_ip.value());
  } else if (ipv4.has_value()) {
    std::size_t l4_len = payload.size();
    if (tcp.has_value()) l4_len += 20;
    if (udp.has_value()) l4_len += 8;
    const auto total_len = static_cast<std::uint16_t>(20 + l4_len);

    out.push_back(0x45);  // version 4, IHL 5
    out.push_back(0);     // DSCP/ECN
    put_u16(out, total_len);
    put_u16(out, 0);  // identification
    put_u16(out, 0);  // flags/fragment offset
    out.push_back(ipv4->ttl);
    out.push_back(ipv4->protocol);
    put_u16(out, 0);  // checksum (not modeled)
    put_u32(out, ipv4->src.value());
    put_u32(out, ipv4->dst.value());

    if (tcp.has_value()) {
      put_u16(out, tcp->src_port);
      put_u16(out, tcp->dst_port);
      put_u32(out, tcp->seq);
      put_u32(out, tcp->ack);
      out.push_back(0x50);  // data offset 5 words
      out.push_back(tcp->flags);
      put_u16(out, 0xffff);  // window
      put_u16(out, 0);       // checksum
      put_u16(out, 0);       // urgent pointer
    } else if (udp.has_value()) {
      put_u16(out, udp->src_port);
      put_u16(out, udp->dst_port);
      put_u16(out, static_cast<std::uint16_t>(8 + payload.size()));
      put_u16(out, 0);  // checksum
    }
    out.insert(out.end(), payload.begin(), payload.end());
  } else {
    out.insert(out.end(), payload.begin(), payload.end());
  }
  return out;
}

Result<Packet> Packet::parse(const std::vector<std::uint8_t>& bytes) {
  return parse(bytes.data(), bytes.size());
}

Result<Packet> Packet::parse(const std::uint8_t* bytes, std::size_t size) {
  Reader reader(bytes, size);
  if (!reader.has(14)) {
    return Result<Packet>::Fail(ErrorCode::kMalformed, "truncated Ethernet header");
  }
  Packet packet;
  packet.eth.dst = reader.mac();
  packet.eth.src = reader.mac();
  packet.eth.ether_type = reader.u16();

  if (packet.eth.ether_type == static_cast<std::uint16_t>(EtherType::kArp)) {
    if (!reader.has(28)) {
      return Result<Packet>::Fail(ErrorCode::kMalformed, "truncated ARP header");
    }
    reader.skip(6);  // htype, ptype, hlen, plen
    ArpHeader arp;
    arp.op = static_cast<ArpOp>(reader.u16());
    arp.sender_mac = reader.mac();
    arp.sender_ip = Ipv4Address(reader.u32());
    arp.target_mac = reader.mac();
    arp.target_ip = Ipv4Address(reader.u32());
    packet.arp = arp;
    return packet;
  }

  if (packet.eth.ether_type == static_cast<std::uint16_t>(EtherType::kIpv4)) {
    if (!reader.has(20)) {
      return Result<Packet>::Fail(ErrorCode::kMalformed, "truncated IPv4 header");
    }
    const std::uint8_t version_ihl = reader.u8();
    const std::size_t ihl_bytes = static_cast<std::size_t>(version_ihl & 0x0f) * 4;
    if ((version_ihl >> 4) != 4 || ihl_bytes < 20) {
      return Result<Packet>::Fail(ErrorCode::kMalformed, "bad IPv4 version/IHL");
    }
    reader.skip(1);  // DSCP/ECN
    reader.skip(2);  // total length (we trust framing)
    reader.skip(4);  // id, flags/frag
    Ipv4Header ip;
    ip.ttl = reader.u8();
    ip.protocol = reader.u8();
    reader.skip(2);  // checksum
    ip.src = Ipv4Address(reader.u32());
    ip.dst = Ipv4Address(reader.u32());
    if (ihl_bytes > 20) {
      if (!reader.has(ihl_bytes - 20)) {
        return Result<Packet>::Fail(ErrorCode::kMalformed, "truncated IPv4 options");
      }
      reader.skip(ihl_bytes - 20);
    }
    packet.ipv4 = ip;

    if (ip.protocol == static_cast<std::uint8_t>(IpProto::kTcp)) {
      if (!reader.has(20)) {
        return Result<Packet>::Fail(ErrorCode::kMalformed, "truncated TCP header");
      }
      TcpHeader tcp;
      tcp.src_port = reader.u16();
      tcp.dst_port = reader.u16();
      tcp.seq = reader.u32();
      tcp.ack = reader.u32();
      const std::uint8_t offset = reader.u8();
      tcp.flags = reader.u8();
      reader.skip(4);  // window, checksum
      reader.skip(2);  // urgent
      const std::size_t header_bytes = static_cast<std::size_t>(offset >> 4) * 4;
      if (header_bytes < 20) {
        return Result<Packet>::Fail(ErrorCode::kMalformed, "bad TCP data offset");
      }
      if (header_bytes > 20) {
        if (!reader.has(header_bytes - 20)) {
          return Result<Packet>::Fail(ErrorCode::kMalformed, "truncated TCP options");
        }
        reader.skip(header_bytes - 20);
      }
      packet.tcp = tcp;
    } else if (ip.protocol == static_cast<std::uint8_t>(IpProto::kUdp)) {
      if (!reader.has(8)) {
        return Result<Packet>::Fail(ErrorCode::kMalformed, "truncated UDP header");
      }
      UdpHeader udp;
      udp.src_port = reader.u16();
      udp.dst_port = reader.u16();
      reader.skip(4);  // length, checksum
      packet.udp = udp;
    }
  }

  packet.payload = reader.rest();
  return packet;
}

std::string Packet::summary() const {
  std::string text = eth.src.to_string() + " -> " + eth.dst.to_string();
  if (arp.has_value()) {
    text += " ARP " + arp->sender_ip.to_string() + " asks " + arp->target_ip.to_string();
  } else if (ipv4.has_value()) {
    text += " " + ipv4->src.to_string() + " -> " + ipv4->dst.to_string();
    if (tcp.has_value()) {
      text += " TCP " + std::to_string(tcp->src_port) + ":" + std::to_string(tcp->dst_port);
    } else if (udp.has_value()) {
      text += " UDP " + std::to_string(udp->src_port) + ":" + std::to_string(udp->dst_port);
    }
  }
  return text;
}

Packet make_tcp_packet(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                       Ipv4Address dst_ip, std::uint16_t src_port,
                       std::uint16_t dst_port, std::uint8_t flags) {
  Packet packet;
  packet.eth = {dst_mac, src_mac, static_cast<std::uint16_t>(EtherType::kIpv4)};
  packet.ipv4 = Ipv4Header{64, static_cast<std::uint8_t>(IpProto::kTcp), src_ip, dst_ip};
  packet.tcp = TcpHeader{src_port, dst_port, 0, 0, flags};
  return packet;
}

Packet make_udp_packet(MacAddress src_mac, MacAddress dst_mac, Ipv4Address src_ip,
                       Ipv4Address dst_ip, std::uint16_t src_port,
                       std::uint16_t dst_port) {
  Packet packet;
  packet.eth = {dst_mac, src_mac, static_cast<std::uint16_t>(EtherType::kIpv4)};
  packet.ipv4 = Ipv4Header{64, static_cast<std::uint8_t>(IpProto::kUdp), src_ip, dst_ip};
  packet.udp = UdpHeader{src_port, dst_port};
  return packet;
}

Packet make_arp_request(MacAddress src_mac, Ipv4Address src_ip, Ipv4Address target_ip) {
  Packet packet;
  packet.eth = {MacAddress::broadcast(), src_mac,
                static_cast<std::uint16_t>(EtherType::kArp)};
  packet.arp = ArpHeader{ArpOp::kRequest, src_mac, src_ip, MacAddress{}, target_ip};
  return packet;
}

Packet make_arp_reply(MacAddress src_mac, Ipv4Address src_ip, MacAddress dst_mac,
                      Ipv4Address dst_ip) {
  Packet packet;
  packet.eth = {dst_mac, src_mac, static_cast<std::uint16_t>(EtherType::kArp)};
  packet.arp = ArpHeader{ArpOp::kReply, src_mac, src_ip, dst_mac, dst_ip};
  return packet;
}

}  // namespace dfi
