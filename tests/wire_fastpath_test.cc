// Differential proof for the wire fast path (DESIGN.md §5).
//
// The proxy's slow path is decode -> table shift -> encode; the fast path
// forwards bytes verbatim (kPassThrough), rewrites table ids in place
// (kPatch), or hands a table-0 Packet-in to the PCP from its bytes and
// forwards those bytes if allowed (kPacketIn). This suite pits the two
// against each other frame by frame: whenever classify() admits a frame to
// the fast path, the fast-path bytes — and, for a Packet-in, the PCP's
// input — must equal the slow path's exactly. Random canonical messages of
// every type in messages.h, table_id boundary values, truncated/runt/
// oversized-length frames, and random byte mutations all go through the
// same check — the last one is the interesting case, because it hunts for
// non-canonical frames the classifier wrongly admits. The PCP's decision
// FlowMod writer is checked against encode() the same way.
#include <gtest/gtest.h>

#include <optional>
#include <vector>

#include "common/rng.h"
#include "core/pcp_decide.h"
#include "openflow/wire.h"

namespace dfi {
namespace {

// ---------------------------------------------------------------------------
// Random message generators.

Match random_match(Rng& rng) {
  Match match;
  if (rng.chance(0.5)) match.in_port = PortNo{static_cast<std::uint32_t>(rng.uniform_int(1, 48))};
  if (rng.chance(0.4)) match.eth_src = MacAddress::from_u64(rng.next_u64() & 0xffffffffffffull);
  if (rng.chance(0.4)) match.eth_dst = MacAddress::from_u64(rng.next_u64() & 0xffffffffffffull);
  if (rng.chance(0.4)) match.eth_type = 0x0800;
  if (rng.chance(0.3)) match.ip_proto = rng.chance(0.5) ? 6 : 17;
  if (rng.chance(0.3)) {
    match.ipv4_src = Ipv4Address(10, 0, static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                                 static_cast<std::uint8_t>(rng.uniform_int(1, 254)));
  }
  if (rng.chance(0.3)) {
    match.ipv4_dst = Ipv4Address(10, 1, static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                                 static_cast<std::uint8_t>(rng.uniform_int(1, 254)));
  }
  if (rng.chance(0.2)) match.tcp_src = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
  if (rng.chance(0.2)) match.tcp_dst = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
  if (rng.chance(0.1)) match.udp_src = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
  if (rng.chance(0.1)) match.udp_dst = static_cast<std::uint16_t>(rng.uniform_int(1, 65535));
  return match;
}

Instructions random_instructions(Rng& rng) {
  Instructions instructions;
  const int actions = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < actions; ++i) {
    instructions.apply_actions.push_back(
        OutputAction{PortNo{static_cast<std::uint32_t>(rng.uniform_int(1, 48))}});
  }
  if (rng.chance(0.5)) {
    instructions.goto_table = static_cast<std::uint8_t>(rng.uniform_int(0, 254));
  }
  return instructions;
}

std::vector<std::uint8_t> random_payload_bytes(Rng& rng, int max_len) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(rng.uniform_int(0, max_len)));
  for (auto& byte : data) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return data;
}

FlowStatsEntry random_flow_stats_entry(Rng& rng, std::uint8_t table_id) {
  FlowStatsEntry entry;
  entry.table_id = table_id;
  entry.duration_sec = static_cast<std::uint32_t>(rng.uniform_int(0, 100000));
  entry.priority = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  entry.idle_timeout = static_cast<std::uint16_t>(rng.uniform_int(0, 600));
  entry.hard_timeout = static_cast<std::uint16_t>(rng.uniform_int(0, 600));
  entry.cookie = Cookie{rng.next_u64()};
  entry.packet_count = rng.next_u64() % 1000000;
  entry.byte_count = rng.next_u64() % 100000000;
  entry.match = random_match(rng);
  entry.instructions = random_instructions(rng);
  return entry;
}

// One random message of each wire type, with table ids drawn from the full
// range so boundary values appear organically across seeds.
std::vector<OfMessage> random_messages(Rng& rng) {
  std::vector<OfMessage> out;
  auto xid = [&rng] { return static_cast<std::uint32_t>(rng.next_u64() & 0xffffffff); };

  out.push_back({xid(), HelloMsg{}});
  out.push_back({xid(), ErrorMsg{static_cast<std::uint16_t>(rng.uniform_int(0, 13)),
                                 static_cast<std::uint16_t>(rng.uniform_int(0, 15)),
                                 random_payload_bytes(rng, 32)}});
  out.push_back({xid(), EchoRequestMsg{random_payload_bytes(rng, 16)}});
  out.push_back({xid(), EchoReplyMsg{random_payload_bytes(rng, 16)}});
  out.push_back({xid(), FeaturesRequestMsg{}});

  FeaturesReplyMsg features;
  features.datapath_id = Dpid{rng.next_u64()};
  features.n_buffers = static_cast<std::uint32_t>(rng.uniform_int(0, 1024));
  features.n_tables = static_cast<std::uint8_t>(rng.uniform_int(1, 254));
  features.capabilities = 0x1 | 0x4;
  out.push_back({xid(), features});

  PacketInMsg packet_in;
  packet_in.buffer_id = kNoBuffer;
  packet_in.total_len = static_cast<std::uint16_t>(rng.uniform_int(0, 1500));
  packet_in.reason = rng.chance(0.5) ? PacketInReason::kNoMatch : PacketInReason::kAction;
  packet_in.table_id = static_cast<std::uint8_t>(rng.uniform_int(0, 254));
  packet_in.cookie = Cookie{rng.next_u64()};
  packet_in.in_port = PortNo{static_cast<std::uint32_t>(rng.uniform_int(1, 48))};
  packet_in.data = random_payload_bytes(rng, 128);
  out.push_back({xid(), packet_in});
  // The same Packet-in as a table-0 miss (kPacketIn), in every round; it
  // draws nothing, so the messages after it are what they always were.
  PacketInMsg table0_miss = packet_in;
  table0_miss.table_id = 0;
  out.push_back({out.back().xid, table0_miss});

  PacketOutMsg packet_out;
  packet_out.in_port = PortNo{static_cast<std::uint32_t>(rng.uniform_int(1, 48))};
  const int actions = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < actions; ++i) {
    packet_out.actions.push_back(
        OutputAction{PortNo{static_cast<std::uint32_t>(rng.uniform_int(1, 48))}});
  }
  packet_out.data = random_payload_bytes(rng, 128);
  out.push_back({xid(), packet_out});

  FlowModMsg flow_mod;
  flow_mod.cookie = Cookie{rng.next_u64()};
  flow_mod.cookie_mask = Cookie{rng.chance(0.5) ? ~0ull : 0ull};
  flow_mod.table_id = static_cast<std::uint8_t>(rng.uniform_int(0, 255));  // incl. OFPTT_ALL
  flow_mod.command = static_cast<FlowModCommand>(rng.uniform_int(0, 4));
  flow_mod.idle_timeout = static_cast<std::uint16_t>(rng.uniform_int(0, 600));
  flow_mod.hard_timeout = static_cast<std::uint16_t>(rng.uniform_int(0, 600));
  flow_mod.priority = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  flow_mod.flags = rng.chance(0.3) ? 0x1 : 0x0;
  flow_mod.match = random_match(rng);
  flow_mod.instructions = random_instructions(rng);
  out.push_back({xid(), flow_mod});

  FlowRemovedMsg removed;
  removed.cookie = Cookie{rng.next_u64()};
  removed.priority = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
  removed.reason = static_cast<FlowRemovedReason>(rng.uniform_int(0, 2));
  removed.table_id = static_cast<std::uint8_t>(rng.uniform_int(0, 254));
  removed.duration_sec = static_cast<std::uint32_t>(rng.uniform_int(0, 100000));
  removed.idle_timeout = static_cast<std::uint16_t>(rng.uniform_int(0, 600));
  removed.hard_timeout = static_cast<std::uint16_t>(rng.uniform_int(0, 600));
  removed.packet_count = rng.next_u64() % 1000000;
  removed.byte_count = rng.next_u64() % 100000000;
  removed.match = random_match(rng);
  out.push_back({xid(), removed});

  PortStatusMsg port_status;
  port_status.reason = static_cast<PortStatusReason>(rng.uniform_int(0, 2));
  port_status.desc.port_no = PortNo{static_cast<std::uint32_t>(rng.uniform_int(1, 48))};
  port_status.desc.hw_addr = MacAddress::from_u64(rng.next_u64() & 0xffffffffffffull);
  port_status.desc.name = "eth0";
  port_status.desc.state = rng.chance(0.5) ? kPortStateLinkDown : 0;
  out.push_back({xid(), port_status});

  MultipartRequestMsg flow_request;
  flow_request.stats_type = kStatsTypeFlow;
  flow_request.flow_request.table_id =
      rng.chance(0.3) ? 0xff : static_cast<std::uint8_t>(rng.uniform_int(0, 254));
  flow_request.flow_request.cookie = Cookie{rng.next_u64()};
  flow_request.flow_request.cookie_mask = Cookie{rng.chance(0.5) ? ~0ull : 0ull};
  flow_request.flow_request.match = random_match(rng);
  out.push_back({xid(), flow_request});

  MultipartRequestMsg port_request;
  port_request.stats_type = kStatsTypePort;
  port_request.port_no = rng.chance(0.5)
                             ? kPortAny
                             : PortNo{static_cast<std::uint32_t>(rng.uniform_int(1, 48))};
  out.push_back({xid(), port_request});

  MultipartReplyMsg flow_reply;
  flow_reply.stats_type = kStatsTypeFlow;
  const int entries = static_cast<int>(rng.uniform_int(0, 4));
  for (int i = 0; i < entries; ++i) {
    flow_reply.flow_stats.push_back(
        random_flow_stats_entry(rng, static_cast<std::uint8_t>(rng.uniform_int(0, 254))));
  }
  out.push_back({xid(), flow_reply});

  MultipartReplyMsg port_reply;
  port_reply.stats_type = kStatsTypePort;
  const int ports = static_cast<int>(rng.uniform_int(0, 3));
  for (int i = 0; i < ports; ++i) {
    PortStatsEntry stats;
    stats.port_no = PortNo{static_cast<std::uint32_t>(i + 1)};
    stats.rx_packets = rng.next_u64() % 100000;
    stats.tx_packets = rng.next_u64() % 100000;
    stats.rx_bytes = rng.next_u64() % 10000000;
    stats.tx_bytes = rng.next_u64() % 10000000;
    stats.duration_sec = static_cast<std::uint32_t>(rng.uniform_int(0, 100000));
    port_reply.port_stats.push_back(stats);
  }
  out.push_back({xid(), port_reply});

  out.push_back({xid(), BarrierRequestMsg{}});
  out.push_back({xid(), BarrierReplyMsg{}});
  return out;
}

// ---------------------------------------------------------------------------
// Slow-path oracle: the exact byte transform DfiProxy's decode path applies
// to one decoded message. Returns the list of frames the proxy would emit,
// or nullopt for frames the fast path must never claim because they take a
// side channel (PCP hand-off, handshake rewrite, OFPTT_ALL expansion, error
// replies). Mirrors Session::handle_switch_message /
// handle_controller_message in src/core/proxy.cc.
std::optional<std::vector<std::vector<std::uint8_t>>> slow_path_oracle(
    const OfMessage& message, ProxyDirection direction, std::uint8_t switch_num_tables) {
  using Frames = std::vector<std::vector<std::uint8_t>>;
  if (direction == ProxyDirection::kSwitchToController) {
    if (std::holds_alternative<FeaturesReplyMsg>(message.payload)) return std::nullopt;
    if (const auto* packet_in = std::get_if<PacketInMsg>(&message.payload)) {
      if (packet_in->table_id == 0) return std::nullopt;  // PCP decides
      PacketInMsg shifted = *packet_in;
      --shifted.table_id;
      return Frames{encode(OfMessage{message.xid, shifted})};
    }
    if (const auto* removed = std::get_if<FlowRemovedMsg>(&message.payload)) {
      if (removed->table_id == 0) return Frames{};  // DFI-internal: dropped
      FlowRemovedMsg shifted = *removed;
      --shifted.table_id;
      return Frames{encode(OfMessage{message.xid, shifted})};
    }
    if (const auto* reply = std::get_if<MultipartReplyMsg>(&message.payload)) {
      MultipartReplyMsg shifted;
      shifted.stats_type = reply->stats_type;
      shifted.port_stats = reply->port_stats;
      for (const auto& entry : reply->flow_stats) {
        if (entry.table_id == 0) continue;
        FlowStatsEntry adjusted = entry;
        --adjusted.table_id;
        if (adjusted.instructions.goto_table.has_value() &&
            *adjusted.instructions.goto_table > 0) {
          --*adjusted.instructions.goto_table;
        }
        shifted.flow_stats.push_back(std::move(adjusted));
      }
      return Frames{encode(OfMessage{message.xid, std::move(shifted)})};
    }
    return Frames{encode(message)};
  }

  if (const auto* flow_mod = std::get_if<FlowModMsg>(&message.payload)) {
    if (flow_mod->table_id == 0xff) return std::nullopt;  // expansion or error
    const std::uint8_t tables = switch_num_tables == 0 ? 4 : switch_num_tables;
    if (flow_mod->table_id + 1 >= tables) return std::nullopt;  // error reply
    FlowModMsg shifted = *flow_mod;
    ++shifted.table_id;
    if (shifted.instructions.goto_table.has_value()) ++*shifted.instructions.goto_table;
    return Frames{encode(OfMessage{message.xid, std::move(shifted)})};
  }
  if (const auto* request = std::get_if<MultipartRequestMsg>(&message.payload)) {
    MultipartRequestMsg shifted = *request;
    if (shifted.stats_type == kStatsTypeFlow && shifted.flow_request.table_id != 0xff) {
      ++shifted.flow_request.table_id;
    }
    return Frames{encode(OfMessage{message.xid, std::move(shifted)})};
  }
  return Frames{encode(message)};
}

// A kPacketIn frame's two roads to the PCP: the input parsed from the
// frame's bytes must equal the one parsed from the decoded message in flow
// key, headers (serialized back, payload included) and in-port.
void check_decision_input(const FrameView& view, const PacketInMsg& decoded) {
  const Dpid dpid{7};
  const PacketInFields fields = packet_in_fields(view);
  const DecisionInput fast =
      make_decision_input(dpid, fields.in_port, fields.data, fields.size);
  const DecisionInput slow = make_decision_input(dpid, decoded);
  EXPECT_EQ(fast.dpid, slow.dpid);
  EXPECT_EQ(fast.in_port, slow.in_port);
  ASSERT_EQ(fast.packet.has_value(), slow.packet.has_value());
  if (!fast.packet.has_value()) return;
  EXPECT_EQ(fast.flow_key, slow.flow_key);
  EXPECT_EQ(fast.packet->serialize(), slow.packet->serialize());
  EXPECT_EQ(fast.packet->summary(), slow.packet->summary());
}

// The differential check: whatever classify() decides, the fast path's
// bytes must be indistinguishable from the slow path's.
void check_frame(const std::vector<std::uint8_t>& bytes, ProxyDirection direction,
                 std::uint8_t switch_num_tables) {
  SCOPED_TRACE(::testing::Message()
               << "direction="
               << (direction == ProxyDirection::kSwitchToController ? "s->c" : "c->s")
               << " num_tables=" << static_cast<int>(switch_num_tables)
               << " size=" << bytes.size()
               << " type=" << (bytes.size() > 1 ? static_cast<int>(bytes[1]) : -1));
  const FrameView view(bytes.data(), bytes.size());
  const FrameClass cls = classify(view, direction, switch_num_tables);
  const auto decoded = decode(bytes);
  if (!decoded.ok()) {
    // Frames the slow path rejects must never ride the fast path: the slow
    // path drops them (and counts them malformed), so forwarding any bytes
    // would diverge.
    EXPECT_EQ(cls, FrameClass::kDecode);
    return;
  }
  if (cls == FrameClass::kDecode) {
    // Both paths share the decode code. A table-0 Packet-in decoded here
    // reaches the PCP re-encoded, and that frame takes the kPacketIn road.
    const auto* packet_in = std::get_if<PacketInMsg>(&decoded.value().payload);
    if (direction == ProxyDirection::kSwitchToController && packet_in != nullptr &&
        packet_in->table_id == 0) {
      const auto canonical = encode(decoded.value());
      const FrameView canonical_view(canonical.data(), canonical.size());
      EXPECT_EQ(classify(canonical_view, direction, switch_num_tables),
                FrameClass::kPacketIn);
      check_decision_input(canonical_view, *packet_in);
    }
    return;
  }

  if (cls == FrameClass::kPacketIn) {
    // The slow path would decode, hand the message to the PCP and
    // re-encode it on an allow; the fast path forwards these bytes.
    ASSERT_EQ(direction, ProxyDirection::kSwitchToController);
    const auto* packet_in = std::get_if<PacketInMsg>(&decoded.value().payload);
    ASSERT_NE(packet_in, nullptr) << "kPacketIn claimed a non-Packet-in";
    EXPECT_EQ(packet_in->table_id, 0);
    EXPECT_EQ(encode(decoded.value()), bytes) << "forwarded Packet-in differs from slow path";
    check_decision_input(view, *packet_in);
    return;
  }

  const auto expected = slow_path_oracle(decoded.value(), direction, switch_num_tables);
  ASSERT_TRUE(expected.has_value())
      << "fast path claimed a frame the proxy routes through a side channel";

  if (cls == FrameClass::kPassThrough) {
    ASSERT_EQ(expected->size(), 1u);
    EXPECT_EQ((*expected)[0], bytes) << "pass-through bytes differ from slow path";
    return;
  }

  // kPatch. The proxy drops switch->controller FLOW_REMOVED for Table 0
  // before patching; mirror that here.
  if (direction == ProxyDirection::kSwitchToController &&
      view.type() == OfType::kFlowRemoved && bytes[kFlowRemovedTableOffset] == 0) {
    EXPECT_TRUE(expected->empty()) << "fast path drops, slow path would forward";
    return;
  }
  std::vector<std::uint8_t> patched = bytes;
  ASSERT_TRUE(patch_table_refs(patched.data(), patched.size(), direction));
  ASSERT_EQ(expected->size(), 1u);
  EXPECT_EQ(patched, (*expected)[0]) << "patched bytes differ from slow path";
}

void check_both_directions(const std::vector<std::uint8_t>& bytes,
                           std::uint8_t switch_num_tables) {
  check_frame(bytes, ProxyDirection::kSwitchToController, switch_num_tables);
  check_frame(bytes, ProxyDirection::kControllerToSwitch, switch_num_tables);
}

// ---------------------------------------------------------------------------

class FastPathDifferential : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FastPathDifferential, EveryMessageTypeAgreesWithSlowPath) {
  Rng rng(GetParam());
  const std::uint8_t table_counts[] = {0, 2, 4, 8, 254};
  for (int round = 0; round < 40; ++round) {
    for (const auto& message : random_messages(rng)) {
      const auto bytes = encode(message);
      for (const std::uint8_t tables : table_counts) {
        check_both_directions(bytes, tables);
      }
    }
  }
}

// Random single/multi-byte mutations hunt for non-canonical frames the
// classifier wrongly admits: a mutation may flip a pad byte, stretch a TLV
// length, or truncate the frame, and the fast path must either reject it
// (kDecode) or still match the slow path byte for byte.
TEST_P(FastPathDifferential, MutatedFramesNeverDiverge) {
  Rng rng(GetParam() ^ 0x9e3779b97f4a7c15ull);
  for (int round = 0; round < 30; ++round) {
    for (const auto& message : random_messages(rng)) {
      auto bytes = encode(message);
      const int mutations = static_cast<int>(rng.uniform_int(1, 4));
      for (int m = 0; m < mutations; ++m) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(bytes.size()) - 1));
        bytes[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      // Keep the frame well-framed half the time so the mutation lands in
      // the body rather than tripping the length check immediately.
      if (rng.chance(0.5) && bytes.size() >= 4) {
        bytes[2] = static_cast<std::uint8_t>(bytes.size() >> 8);
        bytes[3] = static_cast<std::uint8_t>(bytes.size());
      }
      check_both_directions(bytes, static_cast<std::uint8_t>(rng.uniform_int(0, 8)));
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FastPathDifferential,
                         ::testing::Values(1ull, 2ull, 3ull, 4ull, 5ull));

// ---------------------------------------------------------------------------
// Table-id boundary values: 0 (DFI's reserved table), the 253/254 shift
// edges, and OFPTT_ALL. These are the exact off-by-one traps in +-1
// rewriting.

TEST(FastPathBoundaries, FlowModTableEdges) {
  for (const std::uint8_t table : {0, 1, 252, 253, 254}) {
    for (const std::uint8_t tables : {0, 2, 4, 254, 255}) {
      FlowModMsg mod;
      mod.table_id = table;
      mod.match.in_port = PortNo{1};
      mod.instructions = Instructions::output(PortNo{2});
      const auto bytes = encode(OfMessage{1, mod});
      check_frame(bytes, ProxyDirection::kControllerToSwitch, tables);

      const FrameView view(bytes.data(), bytes.size());
      const std::uint8_t effective = tables == 0 ? 4 : tables;
      const FrameClass cls =
          classify(view, ProxyDirection::kControllerToSwitch, tables);
      if (table + 1 >= effective) {
        EXPECT_EQ(cls, FrameClass::kDecode)
            << "out-of-range table " << int(table) << "/" << int(tables)
            << " must take the error path";
      } else {
        EXPECT_EQ(cls, FrameClass::kPatch);
      }
    }
  }
  // OFPTT_ALL always needs the decode path (delete expansion or error).
  FlowModMsg all;
  all.table_id = 0xff;
  all.command = FlowModCommand::kDelete;
  const auto bytes = encode(OfMessage{1, all});
  EXPECT_EQ(classify(FrameView(bytes.data(), bytes.size()),
                     ProxyDirection::kControllerToSwitch, 4),
            FrameClass::kDecode);
}

TEST(FastPathBoundaries, GotoTableEdges) {
  for (const std::uint8_t goto_table : {0, 1, 253, 254}) {
    FlowModMsg mod;
    mod.table_id = 1;
    mod.instructions.goto_table = goto_table;
    check_frame(encode(OfMessage{1, mod}), ProxyDirection::kControllerToSwitch, 254);
  }
}

TEST(FastPathBoundaries, PacketInAndFlowRemovedTableEdges) {
  for (const std::uint8_t table : {0, 1, 2, 253, 254}) {
    PacketInMsg packet_in;
    packet_in.table_id = table;
    packet_in.in_port = PortNo{3};
    packet_in.data = {1, 2, 3};
    const auto pi_bytes = encode(OfMessage{1, packet_in});
    check_frame(pi_bytes, ProxyDirection::kSwitchToController, 4);
    // Table 0 packet-ins go to the PCP from their bytes, never patched.
    EXPECT_EQ(classify(FrameView(pi_bytes.data(), pi_bytes.size()),
                       ProxyDirection::kSwitchToController, 4),
              table == 0 ? FrameClass::kPacketIn : FrameClass::kPatch);

    FlowRemovedMsg removed;
    removed.table_id = table;
    removed.match.in_port = PortNo{3};
    check_frame(encode(OfMessage{1, removed}), ProxyDirection::kSwitchToController, 4);
  }
}

TEST(FastPathBoundaries, MultipartEntryTableEdges) {
  for (const std::uint8_t table : {0, 1, 253, 254}) {
    MultipartReplyMsg reply;
    reply.stats_type = kStatsTypeFlow;
    FlowStatsEntry entry;
    entry.table_id = table;
    entry.match.in_port = PortNo{1};
    if (table > 0) entry.instructions.goto_table = table;  // goto-- edge too
    reply.flow_stats.push_back(entry);
    const auto bytes = encode(OfMessage{1, reply});
    check_frame(bytes, ProxyDirection::kSwitchToController, 4);
    // Entries describing Table 0 force the rebuild (rows are filtered).
    EXPECT_EQ(classify(FrameView(bytes.data(), bytes.size()),
                       ProxyDirection::kSwitchToController, 4),
              table == 0 ? FrameClass::kDecode : FrameClass::kPatch);
  }
}

// ---------------------------------------------------------------------------
// Malformed framing: runts, truncations, and lying length fields must all
// take the decode path (where they are counted malformed and dropped), and
// none of them may desynchronize a stream that continues afterwards.

TEST(FastPathMalformed, TruncatedAndRuntFramesAreNeverAdmitted) {
  FlowModMsg mod;
  mod.table_id = 1;
  mod.match.in_port = PortNo{1};
  mod.instructions = Instructions::to_table(2);
  const auto full = encode(OfMessage{1, mod});
  for (std::size_t len = 0; len < full.size(); ++len) {
    std::vector<std::uint8_t> prefix(full.begin(), full.begin() + len);
    if (len >= 4) {  // keep framing consistent so only the body is short
      prefix[2] = static_cast<std::uint8_t>(len >> 8);
      prefix[3] = static_cast<std::uint8_t>(len);
    }
    check_both_directions(prefix, 4);
  }
  // Oversized length field: frame claims more bytes than it has.
  auto oversized = full;
  oversized[2] = 0x7f;
  oversized[3] = 0xff;
  EXPECT_EQ(classify(FrameView(oversized.data(), oversized.size()),
                     ProxyDirection::kControllerToSwitch, 4),
            FrameClass::kDecode);
  // Wrong version.
  auto wrong_version = full;
  wrong_version[0] = 0x01;
  EXPECT_EQ(classify(FrameView(wrong_version.data(), wrong_version.size()),
                     ProxyDirection::kControllerToSwitch, 4),
            FrameClass::kDecode);
}

TEST(FastPathMalformed, StreamWithMalformedFramesStaysInSync) {
  // A stream of [good, malformed-but-framed, good, good] must yield exactly
  // four frames from the decoder, and the two paths must agree on each.
  const auto good1 = encode(OfMessage{1, EchoRequestMsg{{0xaa}}});
  const auto bad = [] {
    auto frame = encode(OfMessage{2, FlowModMsg{}});
    frame[1] = 0x63;  // unknown type, framing intact
    return frame;
  }();
  const auto good2 = encode(OfMessage{3, BarrierRequestMsg{}});
  const auto good3 = encode(OfMessage{4, EchoReplyMsg{{0xbb}}});

  std::vector<std::uint8_t> stream;
  for (const auto* frame : {&good1, &bad, &good2, &good3}) {
    stream.insert(stream.end(), frame->begin(), frame->end());
  }
  Rng rng(7);
  for (int trial = 0; trial < 20; ++trial) {
    FrameDecoder decoder;
    std::size_t offset = 0;
    std::vector<std::vector<std::uint8_t>> frames;
    while (offset < stream.size()) {
      const std::size_t end = std::min(
          offset + static_cast<std::size_t>(rng.uniform_int(1, 17)), stream.size());
      decoder.feed({stream.begin() + offset, stream.begin() + end});
      offset = end;
      FrameView view;
      while (decoder.next_frame(view) == FrameStatus::kFrame) {
        frames.emplace_back(view.data(), view.data() + view.size());
      }
    }
    ASSERT_EQ(frames.size(), 4u);
    EXPECT_EQ(frames[0], good1);
    EXPECT_EQ(frames[1], bad);
    EXPECT_EQ(frames[2], good2);
    EXPECT_EQ(frames[3], good3);
    for (const auto& frame : frames) check_both_directions(frame, 4);
  }
}

// ---------------------------------------------------------------------------
// Coverage: the classifier must actually use the fast path on the canonical
// frames the proxy forwards all day — being conservatively correct by
// classifying everything kDecode would pass the differential suite while
// deleting the optimization.

TEST(FastPathCoverage, CanonicalHotPathFramesAvoidDecode) {
  const auto echo = encode(OfMessage{1, EchoRequestMsg{{1, 2, 3, 4}}});
  EXPECT_EQ(classify(FrameView(echo.data(), echo.size()),
                     ProxyDirection::kSwitchToController, 4),
            FrameClass::kPassThrough);

  PacketInMsg packet_in;
  packet_in.table_id = 2;
  packet_in.in_port = PortNo{1};
  packet_in.data = {1, 2, 3, 4, 5};
  const auto pi = encode(OfMessage{2, packet_in});
  EXPECT_EQ(classify(FrameView(pi.data(), pi.size()),
                     ProxyDirection::kSwitchToController, 4),
            FrameClass::kPatch);

  FlowModMsg mod;
  mod.table_id = 1;
  mod.match.in_port = PortNo{1};
  mod.match.eth_type = 0x0800;
  mod.match.ipv4_src = Ipv4Address(10, 0, 0, 1);
  mod.instructions = Instructions::output(PortNo{2});
  const auto fm = encode(OfMessage{3, mod});
  EXPECT_EQ(classify(FrameView(fm.data(), fm.size()),
                     ProxyDirection::kControllerToSwitch, 4),
            FrameClass::kPatch);

  MultipartRequestMsg request;
  request.stats_type = kStatsTypeFlow;
  request.flow_request.table_id = 0xff;
  const auto mp = encode(OfMessage{4, request});
  EXPECT_EQ(classify(FrameView(mp.data(), mp.size()),
                     ProxyDirection::kControllerToSwitch, 4),
            FrameClass::kPassThrough);

  PacketOutMsg packet_out;
  packet_out.in_port = PortNo{1};
  packet_out.actions = {OutputAction{PortNo{2}}};
  packet_out.data = {9, 9};
  const auto po = encode(OfMessage{5, packet_out});
  EXPECT_EQ(classify(FrameView(po.data(), po.size()),
                     ProxyDirection::kControllerToSwitch, 4),
            FrameClass::kPassThrough);
}

// ---------------------------------------------------------------------------
// Table-0 Packet-ins carrying the packets the PCP decides on: TCP, UDP,
// ICMP, ARP and a non-IP EtherType, with and without an L4 payload. Each
// goes through the differential check as encoded (kPacketIn) and under
// random mutations (either kDecode or still in agreement).

std::vector<Packet> decision_packets(Rng& rng) {
  const auto mac = [&rng] { return MacAddress::from_u64(rng.next_u64() & 0xfeffffffffffull); };
  const auto ip = [&rng] {
    return Ipv4Address(10, static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                       static_cast<std::uint8_t>(rng.uniform_int(0, 255)),
                       static_cast<std::uint8_t>(rng.uniform_int(1, 254)));
  };
  const auto port = [&rng] { return static_cast<std::uint16_t>(rng.uniform_int(1, 65535)); };
  std::vector<Packet> packets;
  packets.push_back(make_tcp_packet(mac(), mac(), ip(), ip(), port(), port()));
  Packet tcp_with_payload = make_tcp_packet(mac(), mac(), ip(), ip(), port(), port());
  tcp_with_payload.payload = random_payload_bytes(rng, 64);
  packets.push_back(tcp_with_payload);
  packets.push_back(make_udp_packet(mac(), mac(), ip(), ip(), port(), port()));
  Packet icmp;
  icmp.eth = {mac(), mac(), static_cast<std::uint16_t>(EtherType::kIpv4)};
  icmp.ipv4 = Ipv4Header{64, static_cast<std::uint8_t>(IpProto::kIcmp), ip(), ip()};
  icmp.payload = {8, 0, 0, 0};
  packets.push_back(icmp);
  packets.push_back(make_arp_request(mac(), ip(), ip()));
  Packet experimental;
  experimental.eth = {mac(), mac(), static_cast<std::uint16_t>(EtherType::kExperimental)};
  experimental.payload = random_payload_bytes(rng, 32);
  packets.push_back(experimental);
  return packets;
}

std::vector<std::uint8_t> table0_packet_in(Rng& rng, const Packet& packet) {
  PacketInMsg msg;
  msg.table_id = 0;
  msg.buffer_id = rng.chance(0.5) ? kNoBuffer : static_cast<std::uint32_t>(rng.next_u64());
  msg.reason = rng.chance(0.5) ? PacketInReason::kNoMatch : PacketInReason::kAction;
  msg.cookie = Cookie{rng.next_u64()};
  msg.in_port = PortNo{static_cast<std::uint32_t>(rng.uniform_int(1, 48))};
  msg.data = packet.serialize();
  msg.total_len = static_cast<std::uint16_t>(msg.data.size());
  return encode(OfMessage{static_cast<std::uint32_t>(rng.next_u64()), msg});
}

TEST(FastPathPacketIn, DecisionPacketsRideTheFastPathAndAgree) {
  Rng rng(41);
  for (int round = 0; round < 50; ++round) {
    for (const Packet& packet : decision_packets(rng)) {
      const auto bytes = table0_packet_in(rng, packet);
      EXPECT_EQ(classify(FrameView(bytes.data(), bytes.size()),
                         ProxyDirection::kSwitchToController, 4),
                FrameClass::kPacketIn);
      check_frame(bytes, ProxyDirection::kSwitchToController, 4);

      auto mutated = bytes;
      const int mutations = static_cast<int>(rng.uniform_int(1, 3));
      for (int m = 0; m < mutations; ++m) {
        const auto pos = static_cast<std::size_t>(
            rng.uniform_int(0, static_cast<int>(mutated.size()) - 1));
        mutated[pos] = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
      }
      check_frame(mutated, ProxyDirection::kSwitchToController, 4);
    }
  }
}

// ---------------------------------------------------------------------------
// The decision FlowMod writer against the general encoder: the rule
// compile_exact_rule produces for every kind of packet, allowed and denied,
// must come out byte-identical, whatever its scalar fields hold.

TEST(ExactRuleWriter, MatchesEncodeForEveryPacketKindAllowAndDeny) {
  Rng rng(97);
  std::vector<std::uint8_t> written;
  PcpConfig config;
  for (int round = 0; round < 50; ++round) {
    for (const Packet& packet : decision_packets(rng)) {
      for (const bool allow : {true, false}) {
        config.rule_priority = static_cast<std::uint16_t>(rng.uniform_int(0, 65535));
        config.controller_first_table = static_cast<std::uint8_t>(rng.uniform_int(1, 254));
        FlowModMsg rule =
            compile_exact_rule(packet, PortNo{static_cast<std::uint32_t>(rng.next_u64())},
                               allow, Cookie{rng.next_u64()}, config);
        ASSERT_TRUE(is_exact_rule(rule)) << packet.summary();
        const auto xid = static_cast<std::uint32_t>(rng.next_u64());
        encode_exact_rule_into(xid, rule, written);
        EXPECT_EQ(written, encode(OfMessage{xid, rule})) << packet.summary();
        // The fixed-part scalars are written from the message too.
        rule.cookie_mask = Cookie{rng.next_u64()};
        rule.command = static_cast<FlowModCommand>(rng.uniform_int(0, 4));
        rule.table_id = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
        rule.idle_timeout = static_cast<std::uint16_t>(rng.uniform_int(0, 600));
        rule.hard_timeout = static_cast<std::uint16_t>(rng.uniform_int(0, 600));
        rule.buffer_id = static_cast<std::uint32_t>(rng.next_u64());
        rule.out_port = PortNo{static_cast<std::uint32_t>(rng.next_u64())};
        rule.flags = static_cast<std::uint16_t>(rng.uniform_int(0, 3));
        encode_exact_rule_into(xid, rule, written);
        EXPECT_EQ(written, encode(OfMessage{xid, rule})) << packet.summary();
      }
    }
  }
}

TEST(ExactRuleWriter, OtherFlowModShapesAreNotExactRules) {
  const Packet tcp = make_tcp_packet(MacAddress::from_u64(1), MacAddress::from_u64(2),
                                     Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2),
                                     1000, 80);
  const FlowModMsg exact = compile_exact_rule(tcp, PortNo{3}, true, Cookie{5}, PcpConfig{});
  ASSERT_TRUE(is_exact_rule(exact));

  FlowModMsg wildcard = exact;  // wildcard caching narrows the match
  wildcard.match.eth_src.reset();
  EXPECT_FALSE(is_exact_rule(wildcard));
  FlowModMsg no_port = exact;
  no_port.match.in_port.reset();
  EXPECT_FALSE(is_exact_rule(no_port));
  FlowModMsg half_ip = exact;
  half_ip.match.ipv4_dst.reset();
  EXPECT_FALSE(is_exact_rule(half_ip));
  FlowModMsg half_l4 = exact;
  half_l4.match.tcp_dst.reset();
  EXPECT_FALSE(is_exact_rule(half_l4));
  FlowModMsg both_l4 = exact;
  both_l4.match.udp_src = 1;
  both_l4.match.udp_dst = 2;
  EXPECT_FALSE(is_exact_rule(both_l4));
  FlowModMsg l4_without_ip = exact;
  l4_without_ip.match.ip_proto.reset();
  l4_without_ip.match.ipv4_src.reset();
  l4_without_ip.match.ipv4_dst.reset();
  EXPECT_FALSE(is_exact_rule(l4_without_ip));
  FlowModMsg with_actions = exact;
  with_actions.instructions.apply_actions.push_back(OutputAction{PortNo{2}});
  EXPECT_FALSE(is_exact_rule(with_actions));
  FlowModMsg clear_all;  // the resync and flush deletes
  clear_all.command = FlowModCommand::kDelete;
  EXPECT_FALSE(is_exact_rule(clear_all));

  // Every random FlowMod the writer admits, it writes as encode() does.
  Rng rng(5);
  std::vector<std::uint8_t> written;
  for (int round = 0; round < 200; ++round) {
    for (const auto& message : random_messages(rng)) {
      const auto* mod = std::get_if<FlowModMsg>(&message.payload);
      if (mod == nullptr || !is_exact_rule(*mod)) continue;
      encode_exact_rule_into(message.xid, *mod, written);
      EXPECT_EQ(written, encode(message));
    }
  }
}

}  // namespace
}  // namespace dfi
