#include "openflow/wire.h"

#include <algorithm>
#include <cassert>
#include <cstring>

namespace dfi {
namespace {

// ---------------------------------------------------------------- writing

// Writes into caller-provided storage so pooled buffers keep their
// capacity across encodes (encode_into). u32/u64 are single bounded writes
// (one resize, direct stores) rather than per-byte push_back loops.
class Writer {
 public:
  explicit Writer(std::vector<std::uint8_t>& out) : out_(out) { out_.clear(); }

  std::size_t size() const { return out_.size(); }
  void reserve(std::size_t n) { out_.reserve(n); }

  void u8(std::uint8_t v) { out_.push_back(v); }
  void u16(std::uint16_t v) {
    const std::size_t p = grow(2);
    out_[p] = static_cast<std::uint8_t>(v >> 8);
    out_[p + 1] = static_cast<std::uint8_t>(v);
  }
  void u32(std::uint32_t v) {
    const std::size_t p = grow(4);
    out_[p] = static_cast<std::uint8_t>(v >> 24);
    out_[p + 1] = static_cast<std::uint8_t>(v >> 16);
    out_[p + 2] = static_cast<std::uint8_t>(v >> 8);
    out_[p + 3] = static_cast<std::uint8_t>(v);
  }
  void u64(std::uint64_t v) {
    const std::size_t p = grow(8);
    for (int i = 0; i < 8; ++i) {
      out_[p + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(v >> (56 - 8 * i));
    }
  }
  void mac(const MacAddress& m) {
    const auto& octets = m.octets();
    out_.insert(out_.end(), octets.begin(), octets.end());
  }
  void pad(std::size_t n) { out_.insert(out_.end(), n, 0); }
  void bytes(const std::vector<std::uint8_t>& data) {
    out_.insert(out_.end(), data.begin(), data.end());
  }
  // Overwrite a previously written big-endian u16 at `offset`.
  void patch_u16(std::size_t offset, std::uint16_t v) {
    out_[offset] = static_cast<std::uint8_t>(v >> 8);
    out_[offset + 1] = static_cast<std::uint8_t>(v);
  }

 private:
  std::size_t grow(std::size_t n) {
    const std::size_t p = out_.size();
    out_.resize(p + n);
    return p;
  }

  std::vector<std::uint8_t>& out_;
};

// OXM field codes (OFPXMC_OPENFLOW_BASIC class 0x8000).
enum : std::uint8_t {
  kOxmInPort = 0,
  kOxmEthDst = 3,
  kOxmEthSrc = 4,
  kOxmEthType = 5,
  kOxmIpProto = 10,
  kOxmIpv4Src = 11,
  kOxmIpv4Dst = 12,
  kOxmTcpSrc = 13,
  kOxmTcpDst = 14,
  kOxmUdpSrc = 15,
  kOxmUdpDst = 16,
};

void write_oxm_header(Writer& w, std::uint8_t field, std::uint8_t len) {
  w.u16(0x8000);                                   // OFPXMC_OPENFLOW_BASIC
  w.u8(static_cast<std::uint8_t>(field << 1));     // no mask
  w.u8(len);
}

void write_match(Writer& w, const Match& match) {
  const std::size_t start = w.size();
  w.u16(1);  // OFPMT_OXM
  const std::size_t len_offset = w.size();
  w.u16(0);  // patched below

  if (match.in_port) {
    write_oxm_header(w, kOxmInPort, 4);
    w.u32(match.in_port->value);
  }
  if (match.eth_dst) {
    write_oxm_header(w, kOxmEthDst, 6);
    w.mac(*match.eth_dst);
  }
  if (match.eth_src) {
    write_oxm_header(w, kOxmEthSrc, 6);
    w.mac(*match.eth_src);
  }
  if (match.eth_type) {
    write_oxm_header(w, kOxmEthType, 2);
    w.u16(*match.eth_type);
  }
  if (match.ip_proto) {
    write_oxm_header(w, kOxmIpProto, 1);
    w.u8(*match.ip_proto);
  }
  if (match.ipv4_src) {
    write_oxm_header(w, kOxmIpv4Src, 4);
    w.u32(match.ipv4_src->value());
  }
  if (match.ipv4_dst) {
    write_oxm_header(w, kOxmIpv4Dst, 4);
    w.u32(match.ipv4_dst->value());
  }
  if (match.tcp_src) {
    write_oxm_header(w, kOxmTcpSrc, 2);
    w.u16(*match.tcp_src);
  }
  if (match.tcp_dst) {
    write_oxm_header(w, kOxmTcpDst, 2);
    w.u16(*match.tcp_dst);
  }
  if (match.udp_src) {
    write_oxm_header(w, kOxmUdpSrc, 2);
    w.u16(*match.udp_src);
  }
  if (match.udp_dst) {
    write_oxm_header(w, kOxmUdpDst, 2);
    w.u16(*match.udp_dst);
  }

  const std::size_t match_len = w.size() - start;  // excludes trailing pad
  w.patch_u16(len_offset, static_cast<std::uint16_t>(match_len));
  const std::size_t padded = (match_len + 7) / 8 * 8;
  w.pad(padded - match_len);
}

void write_actions(Writer& w, const std::vector<Action>& actions) {
  for (const auto& action : actions) {
    const auto& output = std::get<OutputAction>(action);
    w.u16(0);   // OFPAT_OUTPUT
    w.u16(16);  // length
    w.u32(output.port.value);
    w.u16(0xffff);  // max_len = OFPCML_MAX (send full packet)
    w.pad(6);
  }
}

void write_port_desc(Writer& w, const PortDesc& desc) {
  w.u32(desc.port_no.value);
  w.pad(4);
  w.mac(desc.hw_addr);
  w.pad(2);
  // name: 16 bytes, NUL-padded.
  for (std::size_t i = 0; i < 16; ++i) {
    w.u8(i < desc.name.size() && i < 15 ? static_cast<std::uint8_t>(desc.name[i]) : 0);
  }
  w.u32(desc.config);
  w.u32(desc.state);
  w.pad(24);  // curr/advertised/supported/peer/curr_speed/max_speed
}

void write_instructions(Writer& w, const Instructions& instructions) {
  if (instructions.goto_table.has_value()) {
    w.u16(1);  // OFPIT_GOTO_TABLE
    w.u16(8);
    w.u8(*instructions.goto_table);
    w.pad(3);
  }
  if (!instructions.apply_actions.empty()) {
    w.u16(4);  // OFPIT_APPLY_ACTIONS
    const std::uint16_t len =
        static_cast<std::uint16_t>(8 + 16 * instructions.apply_actions.size());
    w.u16(len);
    w.pad(4);
    write_actions(w, instructions.apply_actions);
  }
}

// ---------------------------------------------------------------- reading

class Reader {
 public:
  Reader(const std::uint8_t* data, std::size_t size) : data_(data), size_(size) {}

  bool has(std::size_t n) const { return pos_ + n <= size_; }
  std::size_t remaining() const { return size_ - pos_; }
  std::size_t pos() const { return pos_; }

  std::uint8_t u8() { return data_[pos_++]; }
  std::uint16_t u16() {
    const auto v = static_cast<std::uint16_t>((data_[pos_] << 8) | data_[pos_ + 1]);
    pos_ += 2;
    return v;
  }
  std::uint32_t u32() {
    std::uint32_t v = 0;
    for (int i = 0; i < 4; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 4;
    return v;
  }
  std::uint64_t u64() {
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i) v = (v << 8) | data_[pos_ + i];
    pos_ += 8;
    return v;
  }
  MacAddress mac() {
    std::array<std::uint8_t, 6> octets{};
    for (auto& octet : octets) octet = data_[pos_++];
    return MacAddress(octets);
  }
  void skip(std::size_t n) { pos_ += n; }
  std::vector<std::uint8_t> take(std::size_t n) {
    std::vector<std::uint8_t> out(data_ + pos_, data_ + pos_ + n);
    pos_ += n;
    return out;
  }
  std::vector<std::uint8_t> rest() { return take(remaining()); }

 private:
  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

#define DFI_REQUIRE(reader, n, what)                                   \
  do {                                                                 \
    if (!(reader).has(n)) {                                            \
      return Result<OfMessage>::Fail(ErrorCode::kMalformed,            \
                                     std::string("truncated ") + what); \
    }                                                                  \
  } while (0)

Status read_match(Reader& r, Match& match) {
  if (!r.has(4)) return Status::Fail(ErrorCode::kMalformed, "truncated match");
  const std::uint16_t type = r.u16();
  const std::uint16_t length = r.u16();
  if (type != 1) return Status::Fail(ErrorCode::kUnsupported, "non-OXM match");
  if (length < 4) return Status::Fail(ErrorCode::kMalformed, "bad match length");
  std::size_t oxm_remaining = length - 4;
  if (!r.has(oxm_remaining)) {
    return Status::Fail(ErrorCode::kMalformed, "truncated OXM fields");
  }
  while (oxm_remaining > 0) {
    if (oxm_remaining < 4) {
      return Status::Fail(ErrorCode::kMalformed, "truncated OXM header");
    }
    const std::uint16_t oxm_class = r.u16();
    const std::uint8_t field_hm = r.u8();
    const std::uint8_t len = r.u8();
    oxm_remaining -= 4;
    if (oxm_remaining < len) {
      return Status::Fail(ErrorCode::kMalformed, "truncated OXM value");
    }
    const std::uint8_t field = field_hm >> 1;
    const bool has_mask = (field_hm & 1) != 0;
    if (oxm_class != 0x8000 || has_mask) {
      // Skip unknown classes and masked fields (treated as unsupported but
      // non-fatal: the proxy must pass through what it does not understand).
      r.skip(len);
      oxm_remaining -= len;
      continue;
    }
    switch (field) {
      case kOxmInPort: match.in_port = PortNo{r.u32()}; break;
      case kOxmEthDst: match.eth_dst = r.mac(); break;
      case kOxmEthSrc: match.eth_src = r.mac(); break;
      case kOxmEthType: match.eth_type = r.u16(); break;
      case kOxmIpProto: match.ip_proto = r.u8(); break;
      case kOxmIpv4Src: match.ipv4_src = Ipv4Address(r.u32()); break;
      case kOxmIpv4Dst: match.ipv4_dst = Ipv4Address(r.u32()); break;
      case kOxmTcpSrc: match.tcp_src = r.u16(); break;
      case kOxmTcpDst: match.tcp_dst = r.u16(); break;
      case kOxmUdpSrc: match.udp_src = r.u16(); break;
      case kOxmUdpDst: match.udp_dst = r.u16(); break;
      default: r.skip(len); break;
    }
    oxm_remaining -= len;
  }
  // Trailing pad to 8-byte boundary.
  const std::size_t padded = (length + 7) / 8 * 8;
  const std::size_t pad_len = padded - length;
  if (!r.has(pad_len)) return Status::Fail(ErrorCode::kMalformed, "truncated match pad");
  r.skip(pad_len);
  return Status::Ok();
}

Status read_actions(Reader& r, std::size_t total_len, std::vector<Action>& actions) {
  std::size_t remaining = total_len;
  while (remaining > 0) {
    if (remaining < 4 || !r.has(4)) {
      return Status::Fail(ErrorCode::kMalformed, "truncated action header");
    }
    const std::uint16_t type = r.u16();
    const std::uint16_t len = r.u16();
    if (len < 8 || len > remaining || !r.has(len - 4)) {
      return Status::Fail(ErrorCode::kMalformed, "bad action length");
    }
    if (type == 0) {  // OFPAT_OUTPUT
      if (len != 16) return Status::Fail(ErrorCode::kMalformed, "bad output action");
      const std::uint32_t port = r.u32();
      r.skip(2);  // max_len
      r.skip(6);  // pad
      actions.push_back(OutputAction{PortNo{port}});
    } else {
      r.skip(len - 4);  // unsupported action: pass over
    }
    remaining -= len;
  }
  return Status::Ok();
}

Status read_instructions(Reader& r, std::size_t total_len, Instructions& instructions) {
  std::size_t remaining = total_len;
  while (remaining > 0) {
    if (remaining < 4 || !r.has(4)) {
      return Status::Fail(ErrorCode::kMalformed, "truncated instruction header");
    }
    const std::uint16_t type = r.u16();
    const std::uint16_t len = r.u16();
    if (len < 8 || len > remaining || !r.has(len - 4)) {
      return Status::Fail(ErrorCode::kMalformed, "bad instruction length");
    }
    if (type == 1) {  // OFPIT_GOTO_TABLE
      instructions.goto_table = r.u8();
      r.skip(3);
    } else if (type == 4) {  // OFPIT_APPLY_ACTIONS
      r.skip(4);  // pad
      const Status status = read_actions(r, len - 8, instructions.apply_actions);
      if (!status.ok()) return status;
    } else {
      r.skip(len - 4);
    }
    remaining -= len;
  }
  return Status::Ok();
}

}  // namespace

OfType OfMessage::type() const {
  struct Visitor {
    OfType operator()(const HelloMsg&) const { return OfType::kHello; }
    OfType operator()(const ErrorMsg&) const { return OfType::kError; }
    OfType operator()(const EchoRequestMsg&) const { return OfType::kEchoRequest; }
    OfType operator()(const EchoReplyMsg&) const { return OfType::kEchoReply; }
    OfType operator()(const FeaturesRequestMsg&) const { return OfType::kFeaturesRequest; }
    OfType operator()(const FeaturesReplyMsg&) const { return OfType::kFeaturesReply; }
    OfType operator()(const PacketInMsg&) const { return OfType::kPacketIn; }
    OfType operator()(const PacketOutMsg&) const { return OfType::kPacketOut; }
    OfType operator()(const FlowModMsg&) const { return OfType::kFlowMod; }
    OfType operator()(const FlowRemovedMsg&) const { return OfType::kFlowRemoved; }
    OfType operator()(const PortStatusMsg&) const { return OfType::kPortStatus; }
    OfType operator()(const MultipartRequestMsg&) const { return OfType::kMultipartRequest; }
    OfType operator()(const MultipartReplyMsg&) const { return OfType::kMultipartReply; }
    OfType operator()(const BarrierRequestMsg&) const { return OfType::kBarrierRequest; }
    OfType operator()(const BarrierReplyMsg&) const { return OfType::kBarrierReply; }
  };
  return std::visit(Visitor{}, payload);
}

std::string to_string(OfType type) {
  switch (type) {
    case OfType::kHello: return "HELLO";
    case OfType::kError: return "ERROR";
    case OfType::kEchoRequest: return "ECHO_REQUEST";
    case OfType::kEchoReply: return "ECHO_REPLY";
    case OfType::kFeaturesRequest: return "FEATURES_REQUEST";
    case OfType::kFeaturesReply: return "FEATURES_REPLY";
    case OfType::kPacketIn: return "PACKET_IN";
    case OfType::kFlowRemoved: return "FLOW_REMOVED";
    case OfType::kPortStatus: return "PORT_STATUS";
    case OfType::kPacketOut: return "PACKET_OUT";
    case OfType::kFlowMod: return "FLOW_MOD";
    case OfType::kMultipartRequest: return "MULTIPART_REQUEST";
    case OfType::kMultipartReply: return "MULTIPART_REPLY";
    case OfType::kBarrierRequest: return "BARRIER_REQUEST";
    case OfType::kBarrierReply: return "BARRIER_REPLY";
  }
  return "UNKNOWN";
}

std::string OfMessage::summary() const {
  std::string text = to_string(type()) + " xid=" + std::to_string(xid);
  if (const auto* flow_mod = std::get_if<FlowModMsg>(&payload)) {
    text += " table=" + std::to_string(flow_mod->table_id) + " [" +
            flow_mod->match.to_string() + "]";
  } else if (const auto* packet_in = std::get_if<PacketInMsg>(&payload)) {
    text += " in_port=" + std::to_string(packet_in->in_port.value) + " " +
            std::to_string(packet_in->data.size()) + "B";
  }
  return text;
}

namespace {

// Lower-bound size hint so encode_into reserves once up front instead of
// growing geometrically through the body (match/instruction TLV sizes are
// approximated, not summed exactly).
std::size_t body_size_hint(const OfMessage& message) {
  struct Visitor {
    std::size_t operator()(const HelloMsg&) const { return 0; }
    std::size_t operator()(const ErrorMsg& m) const { return 4 + m.data.size(); }
    std::size_t operator()(const EchoRequestMsg& m) const { return m.data.size(); }
    std::size_t operator()(const EchoReplyMsg& m) const { return m.data.size(); }
    std::size_t operator()(const FeaturesRequestMsg&) const { return 0; }
    std::size_t operator()(const FeaturesReplyMsg&) const { return 24; }
    std::size_t operator()(const PacketInMsg& m) const {
      return 16 + 16 + 2 + m.data.size();
    }
    std::size_t operator()(const PacketOutMsg& m) const {
      return 16 + 16 * m.actions.size() + m.data.size();
    }
    std::size_t operator()(const FlowModMsg&) const { return 40 + 56 + 32; }
    std::size_t operator()(const FlowRemovedMsg&) const { return 40 + 56; }
    std::size_t operator()(const PortStatusMsg&) const { return 8 + 64; }
    std::size_t operator()(const MultipartRequestMsg& m) const {
      return m.stats_type == kStatsTypeFlow ? 8 + 32 + 56 : 8 + 8;
    }
    std::size_t operator()(const MultipartReplyMsg& m) const {
      return 8 + m.flow_stats.size() * (48 + 56 + 32) + m.port_stats.size() * 112;
    }
    std::size_t operator()(const BarrierRequestMsg&) const { return 0; }
    std::size_t operator()(const BarrierReplyMsg&) const { return 0; }
  };
  return std::visit(Visitor{}, message.payload);
}

}  // namespace

std::vector<std::uint8_t> encode(const OfMessage& message) {
  std::vector<std::uint8_t> bytes;
  encode_into(message, bytes);
  return bytes;
}

void encode_into(const OfMessage& message, std::vector<std::uint8_t>& out) {
  Writer w(out);
  w.reserve(8 + body_size_hint(message));
  w.u8(kOfVersion13);
  w.u8(static_cast<std::uint8_t>(message.type()));
  const std::size_t len_offset = w.size();
  w.u16(0);  // patched at the end
  w.u32(message.xid);

  struct Visitor {
    Writer& w;

    void operator()(const HelloMsg&) {}
    void operator()(const ErrorMsg& m) {
      w.u16(m.type);
      w.u16(m.code);
      w.bytes(m.data);
    }
    void operator()(const EchoRequestMsg& m) { w.bytes(m.data); }
    void operator()(const EchoReplyMsg& m) { w.bytes(m.data); }
    void operator()(const FeaturesRequestMsg&) {}
    void operator()(const FeaturesReplyMsg& m) {
      w.u64(m.datapath_id.value);
      w.u32(m.n_buffers);
      w.u8(m.n_tables);
      w.u8(0);  // auxiliary_id
      w.pad(2);
      w.u32(m.capabilities);
      w.u32(0);  // reserved
    }
    void operator()(const PacketInMsg& m) {
      w.u32(m.buffer_id);
      w.u16(m.total_len);
      w.u8(static_cast<std::uint8_t>(m.reason));
      w.u8(m.table_id);
      w.u64(m.cookie.value);
      Match match;
      match.in_port = m.in_port;
      write_match(w, match);
      w.pad(2);
      w.bytes(m.data);
    }
    void operator()(const PacketOutMsg& m) {
      w.u32(m.buffer_id);
      w.u32(m.in_port.value);
      w.u16(static_cast<std::uint16_t>(16 * m.actions.size()));
      w.pad(6);
      write_actions(w, m.actions);
      w.bytes(m.data);
    }
    void operator()(const FlowModMsg& m) {
      w.u64(m.cookie.value);
      w.u64(m.cookie_mask.value);
      w.u8(m.table_id);
      w.u8(static_cast<std::uint8_t>(m.command));
      w.u16(m.idle_timeout);
      w.u16(m.hard_timeout);
      w.u16(m.priority);
      w.u32(m.buffer_id);
      w.u32(m.out_port.value);
      w.u32(0xffffffff);  // out_group = OFPG_ANY
      w.u16(m.flags);
      w.pad(2);
      write_match(w, m.match);
      write_instructions(w, m.instructions);
    }
    void operator()(const FlowRemovedMsg& m) {
      w.u64(m.cookie.value);
      w.u16(m.priority);
      w.u8(static_cast<std::uint8_t>(m.reason));
      w.u8(m.table_id);
      w.u32(m.duration_sec);
      w.u32(0);  // duration_nsec
      w.u16(m.idle_timeout);
      w.u16(m.hard_timeout);
      w.u64(m.packet_count);
      w.u64(m.byte_count);
      write_match(w, m.match);
    }
    void operator()(const PortStatusMsg& m) {
      w.u8(static_cast<std::uint8_t>(m.reason));
      w.pad(7);
      write_port_desc(w, m.desc);
    }
    void operator()(const MultipartRequestMsg& m) {
      w.u16(m.stats_type);
      w.u16(0);  // flags
      w.pad(4);
      if (m.stats_type == kStatsTypeFlow) {
        w.u8(m.flow_request.table_id);
        w.pad(3);
        w.u32(kPortAny.value);    // out_port
        w.u32(0xffffffff);        // out_group
        w.pad(4);
        w.u64(m.flow_request.cookie.value);
        w.u64(m.flow_request.cookie_mask.value);
        write_match(w, m.flow_request.match);
      } else if (m.stats_type == kStatsTypePort) {
        w.u32(m.port_no.value);
        w.pad(4);
      }
    }
    void operator()(const MultipartReplyMsg& m) {
      w.u16(m.stats_type);
      w.u16(0);  // flags
      w.pad(4);
      for (const auto& entry : m.flow_stats) {
        const std::size_t entry_start = w.size();
        const std::size_t entry_len_offset = w.size();
        w.u16(0);  // length, patched
        w.u8(entry.table_id);
        w.pad(1);
        w.u32(entry.duration_sec);
        w.u32(0);  // duration_nsec
        w.u16(entry.priority);
        w.u16(entry.idle_timeout);
        w.u16(entry.hard_timeout);
        w.u16(0);  // flags
        w.pad(4);
        w.u64(entry.cookie.value);
        w.u64(entry.packet_count);
        w.u64(entry.byte_count);
        write_match(w, entry.match);
        write_instructions(w, entry.instructions);
        w.patch_u16(entry_len_offset,
                    static_cast<std::uint16_t>(w.size() - entry_start));
      }
      for (const auto& entry : m.port_stats) {
        w.u32(entry.port_no.value);
        w.pad(4);
        w.u64(entry.rx_packets);
        w.u64(entry.tx_packets);
        w.u64(entry.rx_bytes);
        w.u64(entry.tx_bytes);
        w.u64(entry.rx_dropped);
        w.u64(entry.tx_dropped);
        w.pad(48);  // rx/tx errors, frame/over/crc errors, collisions
        w.u32(entry.duration_sec);
        w.u32(0);  // duration_nsec
      }
    }
    void operator()(const BarrierRequestMsg&) {}
    void operator()(const BarrierReplyMsg&) {}
  };
  std::visit(Visitor{w}, message.payload);

  w.patch_u16(len_offset, static_cast<std::uint16_t>(out.size()));
  // The patched header length must describe the whole frame: a body that
  // outgrew the u16 length field would silently truncate on the wire.
  assert(out.size() == (static_cast<std::size_t>(out[len_offset]) << 8 |
                        out[len_offset + 1]));
}

namespace {

Result<OfMessage> decode_frame(const std::uint8_t* data, std::size_t size) {
  Reader r(data, size);
  DFI_REQUIRE(r, 8, "ofp_header");
  const std::uint8_t version = r.u8();
  const std::uint8_t type = r.u8();
  const std::uint16_t length = r.u16();
  const std::uint32_t xid = r.u32();
  if (version != kOfVersion13) {
    return Result<OfMessage>::Fail(ErrorCode::kUnsupported,
                                   "OpenFlow version " + std::to_string(version));
  }
  if (length != size) {
    return Result<OfMessage>::Fail(ErrorCode::kMalformed, "frame length mismatch");
  }

  OfMessage message;
  message.xid = xid;

  switch (static_cast<OfType>(type)) {
    case OfType::kHello:
      message.payload = HelloMsg{};
      return message;
    case OfType::kError: {
      DFI_REQUIRE(r, 4, "ERROR body");
      ErrorMsg m;
      m.type = r.u16();
      m.code = r.u16();
      m.data = r.rest();
      message.payload = m;
      return message;
    }
    case OfType::kEchoRequest:
      message.payload = EchoRequestMsg{r.rest()};
      return message;
    case OfType::kEchoReply:
      message.payload = EchoReplyMsg{r.rest()};
      return message;
    case OfType::kFeaturesRequest:
      message.payload = FeaturesRequestMsg{};
      return message;
    case OfType::kFeaturesReply: {
      DFI_REQUIRE(r, 24, "FEATURES_REPLY body");
      FeaturesReplyMsg m;
      m.datapath_id = Dpid{r.u64()};
      m.n_buffers = r.u32();
      m.n_tables = r.u8();
      r.skip(3);  // auxiliary_id + pad
      m.capabilities = r.u32();
      r.skip(4);  // reserved
      message.payload = m;
      return message;
    }
    case OfType::kPacketIn: {
      DFI_REQUIRE(r, 16, "PACKET_IN body");
      PacketInMsg m;
      m.buffer_id = r.u32();
      m.total_len = r.u16();
      m.reason = static_cast<PacketInReason>(r.u8());
      m.table_id = r.u8();
      m.cookie = Cookie{r.u64()};
      Match match;
      if (Status status = read_match(r, match); !status.ok()) {
        return Result<OfMessage>::Fail(status.error().code, status.error().message);
      }
      m.in_port = match.in_port.value_or(PortNo{0});
      DFI_REQUIRE(r, 2, "PACKET_IN pad");
      r.skip(2);
      m.data = r.rest();
      message.payload = m;
      return message;
    }
    case OfType::kPortStatus: {
      DFI_REQUIRE(r, 8 + 64, "PORT_STATUS body");
      PortStatusMsg m;
      m.reason = static_cast<PortStatusReason>(r.u8());
      r.skip(7);
      m.desc.port_no = PortNo{r.u32()};
      r.skip(4);
      m.desc.hw_addr = r.mac();
      r.skip(2);
      std::string name;
      for (int i = 0; i < 16; ++i) {
        const char c = static_cast<char>(r.u8());
        if (c != '\0') name += c;
      }
      m.desc.name = std::move(name);
      m.desc.config = r.u32();
      m.desc.state = r.u32();
      r.skip(24);
      message.payload = m;
      return message;
    }
    case OfType::kPacketOut: {
      DFI_REQUIRE(r, 16, "PACKET_OUT body");
      PacketOutMsg m;
      m.buffer_id = r.u32();
      m.in_port = PortNo{r.u32()};
      const std::uint16_t actions_len = r.u16();
      r.skip(6);
      if (!r.has(actions_len)) {
        return Result<OfMessage>::Fail(ErrorCode::kMalformed, "truncated PACKET_OUT actions");
      }
      if (Status status = read_actions(r, actions_len, m.actions); !status.ok()) {
        return Result<OfMessage>::Fail(status.error().code, status.error().message);
      }
      m.data = r.rest();
      message.payload = m;
      return message;
    }
    case OfType::kFlowMod: {
      DFI_REQUIRE(r, 40, "FLOW_MOD body");
      FlowModMsg m;
      m.cookie = Cookie{r.u64()};
      m.cookie_mask = Cookie{r.u64()};
      m.table_id = r.u8();
      m.command = static_cast<FlowModCommand>(r.u8());
      m.idle_timeout = r.u16();
      m.hard_timeout = r.u16();
      m.priority = r.u16();
      m.buffer_id = r.u32();
      m.out_port = PortNo{r.u32()};
      r.skip(4);  // out_group
      m.flags = r.u16();
      r.skip(2);  // pad
      if (Status status = read_match(r, m.match); !status.ok()) {
        return Result<OfMessage>::Fail(status.error().code, status.error().message);
      }
      if (Status status = read_instructions(r, r.remaining(), m.instructions);
          !status.ok()) {
        return Result<OfMessage>::Fail(status.error().code, status.error().message);
      }
      message.payload = m;
      return message;
    }
    case OfType::kFlowRemoved: {
      DFI_REQUIRE(r, 40, "FLOW_REMOVED body");
      FlowRemovedMsg m;
      m.cookie = Cookie{r.u64()};
      m.priority = r.u16();
      m.reason = static_cast<FlowRemovedReason>(r.u8());
      m.table_id = r.u8();
      m.duration_sec = r.u32();
      r.skip(4);  // duration_nsec
      m.idle_timeout = r.u16();
      m.hard_timeout = r.u16();
      m.packet_count = r.u64();
      m.byte_count = r.u64();
      if (Status status = read_match(r, m.match); !status.ok()) {
        return Result<OfMessage>::Fail(status.error().code, status.error().message);
      }
      message.payload = m;
      return message;
    }
    case OfType::kMultipartRequest: {
      DFI_REQUIRE(r, 8, "MULTIPART_REQUEST header");
      MultipartRequestMsg m;
      m.stats_type = r.u16();
      r.skip(2);  // flags
      r.skip(4);  // pad
      if (m.stats_type == kStatsTypeFlow) {
        DFI_REQUIRE(r, 32, "flow stats request");
        m.flow_request.table_id = r.u8();
        r.skip(3);
        r.skip(8);  // out_port, out_group
        r.skip(4);  // pad
        m.flow_request.cookie = Cookie{r.u64()};
        m.flow_request.cookie_mask = Cookie{r.u64()};
        if (Status status = read_match(r, m.flow_request.match); !status.ok()) {
          return Result<OfMessage>::Fail(status.error().code, status.error().message);
        }
      } else if (m.stats_type == kStatsTypePort) {
        DFI_REQUIRE(r, 8, "port stats request");
        m.port_no = PortNo{r.u32()};
        r.skip(4);
      }
      message.payload = m;
      return message;
    }
    case OfType::kMultipartReply: {
      DFI_REQUIRE(r, 8, "MULTIPART_REPLY header");
      MultipartReplyMsg m;
      m.stats_type = r.u16();
      r.skip(2);
      r.skip(4);
      if (m.stats_type == kStatsTypePort) {
        while (r.remaining() > 0) {
          DFI_REQUIRE(r, 112, "port stats entry");
          PortStatsEntry entry;
          entry.port_no = PortNo{r.u32()};
          r.skip(4);
          entry.rx_packets = r.u64();
          entry.tx_packets = r.u64();
          entry.rx_bytes = r.u64();
          entry.tx_bytes = r.u64();
          entry.rx_dropped = r.u64();
          entry.tx_dropped = r.u64();
          r.skip(48);
          entry.duration_sec = r.u32();
          r.skip(4);
          m.port_stats.push_back(entry);
        }
      }
      if (m.stats_type == kStatsTypeFlow) {
        while (r.remaining() > 0) {
          DFI_REQUIRE(r, 48, "flow stats entry");
          const std::size_t entry_start = r.pos();
          FlowStatsEntry entry;
          const std::uint16_t entry_len = r.u16();
          if (entry_len < 48) {
            return Result<OfMessage>::Fail(ErrorCode::kMalformed, "bad stats entry length");
          }
          entry.table_id = r.u8();
          r.skip(1);
          entry.duration_sec = r.u32();
          r.skip(4);  // duration_nsec
          entry.priority = r.u16();
          entry.idle_timeout = r.u16();
          entry.hard_timeout = r.u16();
          r.skip(2);  // flags
          r.skip(4);  // pad
          entry.cookie = Cookie{r.u64()};
          entry.packet_count = r.u64();
          entry.byte_count = r.u64();
          if (Status status = read_match(r, entry.match); !status.ok()) {
            return Result<OfMessage>::Fail(status.error().code, status.error().message);
          }
          const std::size_t consumed = r.pos() - entry_start;
          if (consumed > entry_len || !r.has(entry_len - consumed)) {
            return Result<OfMessage>::Fail(ErrorCode::kMalformed, "stats entry overrun");
          }
          if (Status status = read_instructions(r, entry_len - consumed, entry.instructions);
              !status.ok()) {
            return Result<OfMessage>::Fail(status.error().code, status.error().message);
          }
          m.flow_stats.push_back(std::move(entry));
        }
      }
      message.payload = m;
      return message;
    }
    case OfType::kBarrierRequest:
      message.payload = BarrierRequestMsg{};
      return message;
    case OfType::kBarrierReply:
      message.payload = BarrierReplyMsg{};
      return message;
  }
  return Result<OfMessage>::Fail(ErrorCode::kUnsupported,
                                 "message type " + std::to_string(type));
}

// ------------------------------------------------- fast-path classification
//
// The walkers below accept exactly the byte layouts encode() produces
// ("canonical form") and nothing else. That is deliberately stricter than
// decode(): decode() tolerates unknown OXM classes, masked fields, unknown
// action/instruction types, nonzero skipped padding, reordered instructions
// and trailing garbage — all of which re-encode *differently* after the
// round trip. Only frames the round trip would reproduce bit-for-bit may
// skip it; everything else is kDecode so both paths stay byte-identical.

constexpr std::size_t kHdrLen = 8;

std::uint16_t rd16(const std::uint8_t* d) {
  return static_cast<std::uint16_t>((d[0] << 8) | d[1]);
}

std::uint32_t rd32(const std::uint8_t* d) {
  return (static_cast<std::uint32_t>(d[0]) << 24) | (static_cast<std::uint32_t>(d[1]) << 16) |
         (static_cast<std::uint32_t>(d[2]) << 8) | d[3];
}

bool all_zero(const std::uint8_t* d, std::size_t n) {
  for (std::size_t i = 0; i < n; ++i) {
    if (d[i] != 0) return false;
  }
  return true;
}

// Canonical OXM match starting at `off`: OFPMT_OXM, fields from the known
// set in encode order (strictly ascending field codes, exact value lengths,
// class 0x8000, no masks), zeroed pad to the 8-byte boundary. Returns the
// offset just past the pad, or 0 on anything non-canonical.
std::size_t walk_canonical_match(const std::uint8_t* d, std::size_t size,
                                 std::size_t off) {
  if (off + 4 > size) return 0;
  if (rd16(d + off) != 1) return 0;  // OFPMT_OXM
  const std::uint16_t length = rd16(d + off + 2);
  if (length < 4) return 0;
  const std::size_t padded = (static_cast<std::size_t>(length) + 7) / 8 * 8;
  if (off + padded > size) return 0;
  const std::size_t fields_end = off + length;
  std::size_t p = off + 4;
  int prev_field = -1;
  while (p < fields_end) {
    if (p + 4 > fields_end) return 0;
    if (rd16(d + p) != 0x8000) return 0;  // OFPXMC_OPENFLOW_BASIC
    const std::uint8_t field_hm = d[p + 2];
    if ((field_hm & 1) != 0) return 0;  // masked
    const std::uint8_t field = field_hm >> 1;
    std::uint8_t want = 0;
    switch (field) {
      case kOxmInPort: want = 4; break;
      case kOxmEthDst: want = 6; break;
      case kOxmEthSrc: want = 6; break;
      case kOxmEthType: want = 2; break;
      case kOxmIpProto: want = 1; break;
      case kOxmIpv4Src: want = 4; break;
      case kOxmIpv4Dst: want = 4; break;
      case kOxmTcpSrc: want = 2; break;
      case kOxmTcpDst: want = 2; break;
      case kOxmUdpSrc: want = 2; break;
      case kOxmUdpDst: want = 2; break;
      default: return 0;
    }
    if (d[p + 3] != want) return 0;
    // encode() emits the known fields in ascending field-code order,
    // each at most once.
    if (static_cast<int>(field) <= prev_field) return 0;
    prev_field = field;
    p += 4 + want;
  }
  if (p != fields_end) return 0;
  if (!all_zero(d + fields_end, off + padded - fields_end)) return 0;
  return off + padded;
}

// Canonical action list covering exactly [off, end): OFPAT_OUTPUT only,
// length 16, max_len OFPCML_MAX, zeroed pad.
bool walk_canonical_actions(const std::uint8_t* d, std::size_t off, std::size_t end) {
  while (off < end) {
    if (off + 16 > end) return false;
    if (rd16(d + off) != 0) return false;       // OFPAT_OUTPUT
    if (rd16(d + off + 2) != 16) return false;  // length
    if (rd16(d + off + 8) != 0xffff) return false;  // max_len re-encodes as MAX
    if (!all_zero(d + off + 10, 6)) return false;
    off += 16;
  }
  return true;
}

// Canonical instruction list covering exactly [off, end): at most one
// goto-table first, then at most one non-empty apply-actions — the order
// and multiplicity write_instructions() produces. Records the offset of the
// goto table_id byte (0 if absent) for in-place patching.
bool walk_canonical_instructions(const std::uint8_t* d, std::size_t off,
                                 std::size_t end, std::size_t* goto_offset) {
  if (goto_offset != nullptr) *goto_offset = 0;
  if (off < end && off + 4 <= end && rd16(d + off) == 1) {  // OFPIT_GOTO_TABLE
    if (rd16(d + off + 2) != 8 || off + 8 > end) return false;
    if (!all_zero(d + off + 5, 3)) return false;
    if (goto_offset != nullptr) *goto_offset = off + 4;
    off += 8;
  }
  if (off < end) {  // OFPIT_APPLY_ACTIONS
    if (off + 8 > end) return false;
    if (rd16(d + off) != 4) return false;
    const std::uint16_t len = rd16(d + off + 2);
    // encode() omits an empty apply-actions entirely, so len == 8 (zero
    // actions) is non-canonical.
    if (len < 8 + 16 || (len - 8) % 16 != 0) return false;
    if (off + len > end) return false;
    if (!all_zero(d + off + 4, 4)) return false;
    if (!walk_canonical_actions(d, off + 8, off + len)) return false;
    off += len;
  }
  return off == end;
}

// FLOW_MOD fixed part (body offsets 8..47): out_group and pad re-encode as
// OFPG_ANY / zero, everything else round-trips. Match at 48.
bool flow_mod_fixed_canonical(const std::uint8_t* d, std::size_t size) {
  if (size < kHdrLen + 40) return false;
  if (d[40] != 0xff || d[41] != 0xff || d[42] != 0xff || d[43] != 0xff) return false;
  return d[46] == 0 && d[47] == 0;
}

FrameClass classify_flow_mod(const std::uint8_t* d, std::size_t n,
                             std::uint8_t switch_num_tables) {
  if (!flow_mod_fixed_canonical(d, n)) return FrameClass::kDecode;
  const std::uint8_t table = d[kFlowModTableOffset];
  // OFPTT_ALL expands to per-table deletes (or an error); an out-of-range
  // table draws an ERROR reply. Both originate messages — slow path.
  if (table == 0xff) return FrameClass::kDecode;
  const std::uint8_t tables = switch_num_tables == 0 ? 4 : switch_num_tables;
  if (table + 1 >= tables) return FrameClass::kDecode;
  const std::size_t match_end = walk_canonical_match(d, n, kHdrLen + 40);
  if (match_end == 0) return FrameClass::kDecode;
  std::size_t goto_offset = 0;
  if (!walk_canonical_instructions(d, match_end, n, &goto_offset)) {
    return FrameClass::kDecode;
  }
  return FrameClass::kPatch;
}

// A canonical Packet-in's IN_PORT value and packet bytes sit at fixed
// offsets: ofp_header (8), the 16-byte fixed body, the 16-byte match (OXM
// header at 28, value at 32), then the 2-byte pad.
constexpr std::size_t kPacketInInPortOffset = kHdrLen + 16 + 8;
constexpr std::size_t kPacketInDataOffset = kHdrLen + 16 + 16 + 2;

FrameClass classify_packet_in(const std::uint8_t* d, std::size_t n) {
  if (n < kHdrLen + 16) return FrameClass::kDecode;
  // decode() keeps only the IN_PORT oxm and re-encode always writes exactly
  // one, so canonical means: match of length 12 whose single field is
  // IN_PORT (4 + 8), padded to 16, then the 2-byte zero pad, then data.
  const std::size_t match_off = kHdrLen + 16;
  const std::size_t match_end = walk_canonical_match(d, n, match_off);
  if (match_end == 0) return FrameClass::kDecode;
  if (rd16(d + match_off + 2) != 12) return FrameClass::kDecode;
  if (d[match_off + 6] >> 1 != kOxmInPort) return FrameClass::kDecode;
  if (match_end + 2 > n) return FrameClass::kDecode;
  if (d[match_end] != 0 || d[match_end + 1] != 0) return FrameClass::kDecode;
  // Table-0 miss: the PCP decides before the controller may see it.
  return d[kPacketInTableOffset] == 0 ? FrameClass::kPacketIn : FrameClass::kPatch;
}

FrameClass classify_flow_removed(const std::uint8_t* d, std::size_t n) {
  if (n < kHdrLen + 40) return FrameClass::kDecode;
  if (!all_zero(d + 24, 4)) return FrameClass::kDecode;  // duration_nsec
  // decode() ignores trailing bytes after the match; re-encode drops them.
  if (walk_canonical_match(d, n, kHdrLen + 40) != n) return FrameClass::kDecode;
  return FrameClass::kPatch;
}

FrameClass classify_multipart_request(const std::uint8_t* d, std::size_t n) {
  if (n < kHdrLen + 8) return FrameClass::kDecode;
  if (!all_zero(d + 10, 6)) return FrameClass::kDecode;  // flags + pad
  const std::uint16_t stats_type = rd16(d + 8);
  if (stats_type == kStatsTypeFlow) {
    if (n < kHdrLen + 8 + 32) return FrameClass::kDecode;
    if (!all_zero(d + 17, 3)) return FrameClass::kDecode;  // pad after table_id
    // out_port / out_group re-encode as OFPP_ANY / OFPG_ANY.
    for (std::size_t i = 20; i < 28; ++i) {
      if (d[i] != 0xff) return FrameClass::kDecode;
    }
    if (!all_zero(d + 28, 4)) return FrameClass::kDecode;
    if (walk_canonical_match(d, n, kHdrLen + 40) != n) return FrameClass::kDecode;
    // OFPTT_ALL is forwarded unshifted.
    return d[kMultipartRequestTableOffset] == 0xff ? FrameClass::kPassThrough
                                                   : FrameClass::kPatch;
  }
  if (stats_type == kStatsTypePort) {
    if (n != kHdrLen + 8 + 8) return FrameClass::kDecode;
    if (!all_zero(d + 20, 4)) return FrameClass::kDecode;
    return FrameClass::kPassThrough;
  }
  // Other stats types decode to an empty request body.
  return n == kHdrLen + 8 ? FrameClass::kPassThrough : FrameClass::kDecode;
}

// Flow-stats entries: length-prefixed records, each 48 fixed bytes + match
// + instructions. Walks every entry; reports whether any row cites Table 0
// (those are filtered by the proxy, which changes the frame length — slow
// path).
FrameClass classify_multipart_reply(const std::uint8_t* d, std::size_t n) {
  if (n < kHdrLen + 8) return FrameClass::kDecode;
  if (!all_zero(d + 10, 6)) return FrameClass::kDecode;
  const std::uint16_t stats_type = rd16(d + 8);
  if (stats_type == kStatsTypeFlow) {
    std::size_t off = kHdrLen + 8;
    bool any_table0 = false;
    bool any_shift = false;
    while (off < n) {
      if (off + 48 > n) return FrameClass::kDecode;
      const std::uint16_t entry_len = rd16(d + off);
      if (entry_len < 48 || off + entry_len > n) return FrameClass::kDecode;
      if (d[off + 2] == 0) any_table0 = true;
      if (d[off + 3] != 0) return FrameClass::kDecode;       // pad
      if (!all_zero(d + off + 8, 4)) return FrameClass::kDecode;   // duration_nsec
      if (!all_zero(d + off + 18, 6)) return FrameClass::kDecode;  // flags + pad
      const std::size_t match_end = walk_canonical_match(d, off + entry_len, off + 48);
      if (match_end == 0) return FrameClass::kDecode;
      if (!walk_canonical_instructions(d, match_end, off + entry_len, nullptr)) {
        return FrameClass::kDecode;
      }
      any_shift = true;
      off += entry_len;
    }
    if (off != n) return FrameClass::kDecode;
    if (any_table0) return FrameClass::kDecode;  // rows get filtered out
    return any_shift ? FrameClass::kPatch : FrameClass::kPassThrough;
  }
  if (stats_type == kStatsTypePort) {
    std::size_t off = kHdrLen + 8;
    while (off < n) {
      if (off + 112 > n) return FrameClass::kDecode;
      if (!all_zero(d + off + 4, 4)) return FrameClass::kDecode;    // pad
      if (!all_zero(d + off + 56, 48)) return FrameClass::kDecode;  // error ctrs
      if (!all_zero(d + off + 108, 4)) return FrameClass::kDecode;  // duration_nsec
      off += 112;
    }
    return FrameClass::kPassThrough;
  }
  return n == kHdrLen + 8 ? FrameClass::kPassThrough : FrameClass::kDecode;
}

FrameClass classify_packet_out(const std::uint8_t* d, std::size_t n) {
  if (n < kHdrLen + 16) return FrameClass::kDecode;
  const std::uint16_t actions_len = rd16(d + 16);
  if (!all_zero(d + 18, 6)) return FrameClass::kDecode;
  if (kHdrLen + 16 + actions_len > n) return FrameClass::kDecode;
  // decode() recomputes actions_len as 16 * count, so only an exact list of
  // canonical OUTPUT actions round-trips.
  if (!walk_canonical_actions(d, kHdrLen + 16, kHdrLen + 16 + actions_len)) {
    return FrameClass::kDecode;
  }
  return FrameClass::kPassThrough;  // data tail round-trips verbatim
}

}  // namespace

FrameClass classify(const FrameView& view, ProxyDirection direction,
                    std::uint8_t switch_num_tables) {
  const std::uint8_t* d = view.data();
  const std::size_t n = view.size();
  // Frames decode() would reject (bad version, length mismatch) take the
  // slow path so the malformed accounting stays identical.
  if (n < kHdrLen || d[0] != kOfVersion13 || view.length() != n) {
    return FrameClass::kDecode;
  }
  const bool to_controller = direction == ProxyDirection::kSwitchToController;
  switch (static_cast<OfType>(d[1])) {
    // Body-less messages: decode() ignores any body bytes and re-encode
    // emits exactly 8, so only bare headers pass through.
    case OfType::kHello:
    case OfType::kFeaturesRequest:
    case OfType::kBarrierRequest:
    case OfType::kBarrierReply:
      return n == kHdrLen ? FrameClass::kPassThrough : FrameClass::kDecode;
    // Echo and Error carry their payload verbatim.
    case OfType::kEchoRequest:
    case OfType::kEchoReply:
      return FrameClass::kPassThrough;
    case OfType::kError:
      return n >= kHdrLen + 4 ? FrameClass::kPassThrough : FrameClass::kDecode;
    case OfType::kPacketIn:
      // Controller-originated PACKET_IN is nonsensical; let the slow path's
      // default pass-through handle it.
      return to_controller ? classify_packet_in(d, n) : FrameClass::kDecode;
    case OfType::kFlowRemoved:
      // kPatch here includes the Table-0 case: the proxy checks
      // kFlowRemovedTableOffset and drops the frame without copying it.
      return to_controller ? classify_flow_removed(d, n) : FrameClass::kDecode;
    case OfType::kFlowMod:
      return to_controller ? FrameClass::kDecode
                           : classify_flow_mod(d, n, switch_num_tables);
    case OfType::kMultipartRequest:
      return to_controller ? FrameClass::kDecode : classify_multipart_request(d, n);
    case OfType::kMultipartReply:
      return to_controller ? classify_multipart_reply(d, n) : FrameClass::kDecode;
    case OfType::kPacketOut:
      return to_controller ? FrameClass::kDecode : classify_packet_out(d, n);
    // FEATURES_REPLY drives session registration; PORT_STATUS is rare.
    case OfType::kFeaturesReply:
    case OfType::kPortStatus:
      return FrameClass::kDecode;
  }
  return FrameClass::kDecode;  // unknown type: slow path counts it malformed
}

bool patch_table_refs(std::uint8_t* data, std::size_t size, ProxyDirection direction) {
  const bool to_controller = direction == ProxyDirection::kSwitchToController;
  switch (static_cast<OfType>(data[1])) {
    case OfType::kPacketIn: {
      if (!to_controller || size < kHdrLen + 16) return false;
      std::uint8_t& table = data[kPacketInTableOffset];
      if (table == 0) return false;  // PCP-bound; never patched
      --table;
      return true;
    }
    case OfType::kFlowRemoved: {
      if (!to_controller || size < kHdrLen + 40) return false;
      std::uint8_t& table = data[kFlowRemovedTableOffset];
      if (table == 0) return false;  // dropped, not shifted
      --table;
      return true;
    }
    case OfType::kFlowMod: {
      if (to_controller || size < kHdrLen + 40) return false;
      const std::size_t match_end = walk_canonical_match(data, size, kHdrLen + 40);
      if (match_end == 0) return false;
      std::size_t goto_offset = 0;
      if (!walk_canonical_instructions(data, match_end, size, &goto_offset)) {
        return false;
      }
      ++data[kFlowModTableOffset];
      // The slow path increments goto unconditionally on the shift path.
      if (goto_offset != 0) ++data[goto_offset];
      return true;
    }
    case OfType::kMultipartRequest: {
      if (to_controller || size < kHdrLen + 8 + 32) return false;
      std::uint8_t& table = data[kMultipartRequestTableOffset];
      if (table == 0xff) return false;  // OFPTT_ALL passes through
      ++table;
      return true;
    }
    case OfType::kMultipartReply: {
      if (!to_controller || size < kHdrLen + 8) return false;
      if (rd16(data + 8) != kStatsTypeFlow) return false;
      std::size_t off = kHdrLen + 8;
      while (off < size) {
        if (off + 48 > size) return false;
        const std::uint16_t entry_len = rd16(data + off);
        if (entry_len < 48 || off + entry_len > size) return false;
        if (data[off + 2] == 0) return false;  // Table-0 rows are filtered
        --data[off + 2];
        const std::size_t match_end =
            walk_canonical_match(data, off + entry_len, off + 48);
        if (match_end == 0) return false;
        std::size_t goto_offset = 0;
        if (!walk_canonical_instructions(data, match_end, off + entry_len,
                                         &goto_offset)) {
          return false;
        }
        // Matches the slow path: only gotos above the boundary shift down.
        if (goto_offset != 0 && data[goto_offset] > 0) --data[goto_offset];
        off += entry_len;
      }
      return true;
    }
    default:
      return false;
  }
}

PacketInFields packet_in_fields(const FrameView& view) {
  const std::uint8_t* d = view.data();
  PacketInFields fields;
  fields.in_port = PortNo{rd32(d + kPacketInInPortOffset)};
  fields.data = d + kPacketInDataOffset;
  fields.size = view.size() - kPacketInDataOffset;
  return fields;
}

// ------------------------------------------------- the decision FlowMod
//
// compile_exact_rule's FlowMod: the 40-byte fixed part, a match whose
// fields depend only on which layers the packet has, and at most a
// goto-table. So its layout is fixed once those layers are known, and it
// is written with one resize and direct stores — the same bytes encode()
// emits, field for field.

bool is_exact_rule(const FlowModMsg& mod) {
  const Match& m = mod.match;
  if (!m.in_port || !m.eth_src || !m.eth_dst || !m.eth_type) return false;
  const bool ip = m.ip_proto.has_value();
  if (m.ipv4_src.has_value() != ip || m.ipv4_dst.has_value() != ip) return false;
  const bool tcp = m.tcp_src.has_value();
  const bool udp = m.udp_src.has_value();
  if (m.tcp_dst.has_value() != tcp || m.udp_dst.has_value() != udp) return false;
  if ((tcp || udp) && (!ip || (tcp && udp))) return false;
  return mod.instructions.apply_actions.empty();
}

namespace {

std::uint8_t* put16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 8);
  p[1] = static_cast<std::uint8_t>(v);
  return p + 2;
}

std::uint8_t* put32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
  return p + 4;
}

std::uint8_t* put64(std::uint8_t* p, std::uint64_t v) {
  put32(p, static_cast<std::uint32_t>(v >> 32));
  return put32(p + 4, static_cast<std::uint32_t>(v));
}

// One unmasked OFPXMC_OPENFLOW_BASIC TLV header (see write_oxm_header).
std::uint8_t* put_oxm(std::uint8_t* p, std::uint8_t field, std::uint8_t len) {
  p = put16(p, 0x8000);
  p[0] = static_cast<std::uint8_t>(field << 1);
  p[1] = len;
  return p + 2;
}

std::uint8_t* put_mac(std::uint8_t* p, const MacAddress& mac) {
  const auto& octets = mac.octets();
  std::memcpy(p, octets.data(), octets.size());
  return p + octets.size();
}

}  // namespace

void encode_exact_rule_into(std::uint32_t xid, const FlowModMsg& mod,
                            std::vector<std::uint8_t>& out) {
  assert(is_exact_rule(mod));
  const Match& m = mod.match;
  const bool ip = m.ip_proto.has_value();
  const bool l4 = m.tcp_src.has_value() || m.udp_src.has_value();
  // OFPMT_OXM header, IN_PORT, ETH_DST, ETH_SRC, ETH_TYPE; IP_PROTO and
  // both IPv4 addresses; both L4 ports.
  const std::size_t match_len =
      4 + 8 + 10 + 10 + 6 + (ip ? 5 + 8 + 8 : 0) + (l4 ? 6 + 6 : 0);
  const std::size_t match_padded = (match_len + 7) / 8 * 8;
  const std::size_t size =
      kHdrLen + 40 + match_padded + (mod.instructions.goto_table ? 8 : 0);
  out.clear();
  out.resize(size);  // zero-filled: every pad byte is already written
  std::uint8_t* p = out.data();
  *p++ = kOfVersion13;
  *p++ = static_cast<std::uint8_t>(OfType::kFlowMod);
  p = put16(p, static_cast<std::uint16_t>(size));
  p = put32(p, xid);
  p = put64(p, mod.cookie.value);
  p = put64(p, mod.cookie_mask.value);
  *p++ = mod.table_id;
  *p++ = static_cast<std::uint8_t>(mod.command);
  p = put16(p, mod.idle_timeout);
  p = put16(p, mod.hard_timeout);
  p = put16(p, mod.priority);
  p = put32(p, mod.buffer_id);
  p = put32(p, mod.out_port.value);
  p = put32(p, 0xffffffff);  // out_group = OFPG_ANY
  p = put16(p, mod.flags);
  p += 2;
  std::uint8_t* const match = p;
  p = put16(p, 1);  // OFPMT_OXM
  p = put16(p, static_cast<std::uint16_t>(match_len));
  p = put32(put_oxm(p, kOxmInPort, 4), m.in_port->value);
  p = put_mac(put_oxm(p, kOxmEthDst, 6), *m.eth_dst);
  p = put_mac(put_oxm(p, kOxmEthSrc, 6), *m.eth_src);
  p = put16(put_oxm(p, kOxmEthType, 2), *m.eth_type);
  if (ip) {
    p = put_oxm(p, kOxmIpProto, 1);
    *p++ = *m.ip_proto;
    p = put32(put_oxm(p, kOxmIpv4Src, 4), m.ipv4_src->value());
    p = put32(put_oxm(p, kOxmIpv4Dst, 4), m.ipv4_dst->value());
  }
  if (m.tcp_src) {
    p = put16(put_oxm(p, kOxmTcpSrc, 2), *m.tcp_src);
    p = put16(put_oxm(p, kOxmTcpDst, 2), *m.tcp_dst);
  } else if (m.udp_src) {
    p = put16(put_oxm(p, kOxmUdpSrc, 2), *m.udp_src);
    p = put16(put_oxm(p, kOxmUdpDst, 2), *m.udp_dst);
  }
  p = match + match_padded;
  if (mod.instructions.goto_table) {
    p = put16(p, 1);  // OFPIT_GOTO_TABLE
    p = put16(p, 8);
    *p++ = *mod.instructions.goto_table;
    p += 3;
  }
  assert(p == out.data() + out.size());
}

Result<OfMessage> decode(const std::vector<std::uint8_t>& bytes) {
  return decode_frame(bytes.data(), bytes.size());
}

Result<OfMessage> decode(const FrameView& view) {
  return decode_frame(view.data(), view.size());
}

void FrameDecoder::compact_for_input() {
  if (read_pos_ == end_pos_) {
    // Fully drained: recycle the storage outright (capacity is kept).
    read_pos_ = 0;
    end_pos_ = 0;
  } else if (read_pos_ > 0 && read_pos_ >= end_pos_ - read_pos_) {
    // The consumed prefix outweighs the live tail: compact once. The move
    // cost is bounded by bytes consumed since the last compaction, so the
    // decoder stays amortized O(1) per byte even under 1-byte feeds.
    std::memmove(buffer_.data(), buffer_.data() + read_pos_,
                 end_pos_ - read_pos_);
    end_pos_ -= read_pos_;
    read_pos_ = 0;
  }
}

void FrameDecoder::feed(const std::vector<std::uint8_t>& chunk) {
  if (chunk.empty()) return;
  compact_for_input();
  if (buffer_.size() < end_pos_ + chunk.size()) {
    buffer_.resize(std::max(buffer_.size() * 2, end_pos_ + chunk.size()));
  }
  std::memcpy(buffer_.data() + end_pos_, chunk.data(), chunk.size());
  end_pos_ += chunk.size();
}

std::size_t FrameDecoder::writable_spans(std::size_t min_bytes,
                                         MutableByteSpan spans[2]) {
  constexpr std::size_t kSpillBytes = 16 * 1024;
  compact_for_input();
  if (buffer_.size() - end_pos_ < min_bytes) {
    buffer_.resize(std::max(buffer_.size() * 2, end_pos_ + min_bytes));
  }
  if (spill_.size() < kSpillBytes) spill_.resize(kSpillBytes);
  last_tail_ = buffer_.size() - end_pos_;
  spans[0] = MutableByteSpan{buffer_.data() + end_pos_, last_tail_};
  spans[1] = MutableByteSpan{spill_.data(), spill_.size()};
  return 2;
}

void FrameDecoder::commit(std::size_t n) {
  const std::size_t into_tail = std::min(n, last_tail_);
  end_pos_ += into_tail;
  const std::size_t overrun = n - into_tail;
  if (overrun > 0) {
    // The read spilled past the tail: fold the spill block in. Bounded by
    // the spill size, and rare — the next writable_spans() doubles the tail.
    if (buffer_.size() < end_pos_ + overrun) {
      buffer_.resize(std::max(buffer_.size() * 2, end_pos_ + overrun));
    }
    std::memcpy(buffer_.data() + end_pos_, spill_.data(), overrun);
    end_pos_ += overrun;
  }
  last_tail_ = buffer_.size() - end_pos_;
}

FrameStatus FrameDecoder::next_frame(FrameView& view) {
  const std::size_t available = end_pos_ - read_pos_;
  if (available < 8) return FrameStatus::kAwait;
  const std::size_t frame_len =
      (static_cast<std::size_t>(buffer_[read_pos_ + 2]) << 8) |
      buffer_[read_pos_ + 3];
  if (frame_len < 8) {
    // Unrecoverable framing corruption: reset the stream.
    read_pos_ = 0;
    end_pos_ = 0;
    return FrameStatus::kCorrupt;
  }
  if (available < frame_len) return FrameStatus::kAwait;
  view = FrameView(buffer_.data() + read_pos_, frame_len);
  read_pos_ += frame_len;
  return FrameStatus::kFrame;
}

std::vector<Result<OfMessage>> FrameDecoder::drain() {
  std::vector<Result<OfMessage>> messages;
  FrameView view;
  for (;;) {
    switch (next_frame(view)) {
      case FrameStatus::kFrame:
        messages.push_back(decode(view));
        break;
      case FrameStatus::kAwait:
        return messages;
      case FrameStatus::kCorrupt:
        messages.push_back(
            Result<OfMessage>::Fail(ErrorCode::kMalformed, "frame length < 8"));
        return messages;
    }
  }
}

}  // namespace dfi
