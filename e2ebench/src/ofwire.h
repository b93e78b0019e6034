// The few OpenFlow 1.3 fields the emulators read, parsed straight off the
// wire (the standard ofp_flow_mod layout with an OXM match).
#pragma once

#include <cstddef>
#include <cstdint>

namespace e2e {

inline constexpr std::uint8_t kOfptFeaturesReply = 6;
inline constexpr std::uint8_t kOfptPacketIn = 10;
inline constexpr std::uint8_t kOfptFlowMod = 14;
inline constexpr std::uint8_t kFlowModAdd = 0;
inline constexpr std::uint8_t kFlowModDelete = 3;

inline std::uint16_t be16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}
inline std::uint32_t be32(const std::uint8_t* p) {
  return (std::uint32_t{p[0]} << 24) | (std::uint32_t{p[1]} << 16) |
         (std::uint32_t{p[2]} << 8) | p[3];
}
inline std::uint64_t be64(const std::uint8_t* p) {
  return (std::uint64_t{be32(p)} << 32) | be32(p + 4);
}
inline void put_be32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

struct FlowModView {
  std::uint32_t xid = 0;
  std::uint64_t cookie = 0;
  std::uint64_t cookie_mask = 0;
  std::uint8_t table = 0;
  std::uint8_t command = 0;
  std::uint32_t in_port = 0;
  std::uint32_t ip_src = 0;
  std::uint32_t ip_dst = 0;
  std::uint16_t tcp_src = 0;
  std::uint16_t tcp_dst = 0;
  bool goto_table = false;  // allow verdict: continue to the controller's table
};

// False when the frame is not a well-formed FLOW_MOD with an OXM match.
inline bool parse_flow_mod(const std::uint8_t* f, std::size_t n, FlowModView* out) {
  constexpr std::size_t kMatch = 48;
  if (n < kMatch + 8 || f[1] != kOfptFlowMod) return false;
  out->xid = be32(f + 4);
  out->cookie = be64(f + 8);
  out->cookie_mask = be64(f + 16);
  out->table = f[24];
  out->command = f[25];
  const std::size_t match_len = be16(f + kMatch + 2);
  if (be16(f + kMatch) != 1 || match_len < 4 || kMatch + match_len > n) return false;
  for (std::size_t p = kMatch + 4; p + 4 <= kMatch + match_len;) {
    const std::uint8_t field = f[p + 2] >> 1;
    const std::size_t len = f[p + 3];
    const std::uint8_t* v = f + p + 4;
    if (p + 4 + len > kMatch + match_len) return false;
    if (be16(f + p) == 0x8000 && (f[p + 2] & 1) == 0) {
      if (field == 0 && len == 4) out->in_port = be32(v);
      if (field == 11 && len == 4) out->ip_src = be32(v);
      if (field == 12 && len == 4) out->ip_dst = be32(v);
      if (field == 13 && len == 2) out->tcp_src = be16(v);
      if (field == 14 && len == 2) out->tcp_dst = be16(v);
    }
    p += 4 + len;
  }
  for (std::size_t p = kMatch + (match_len + 7) / 8 * 8; p + 4 <= n;) {
    const std::size_t len = be16(f + p + 2);
    if (be16(f + p) == 1) out->goto_table = true;  // OFPIT_GOTO_TABLE
    if (len < 8) break;
    p += len;
  }
  return true;
}

}  // namespace e2e
