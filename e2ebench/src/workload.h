// Seeded inputs of the end-to-end benchmark: the synthetic enterprise, the
// flows each switch emulator sends, their encoded Packet-ins, and the
// writes of the churn workload. Everything is a pure function of
// (workload, seed).
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/policy.h"
#include "openflow/messages.h"
#include "services/events.h"
#include "testbed/scale_generator.h"

namespace e2e {

enum class WorkloadKind { kWarmHits, kColdMisses, kChurn };
bool parse_workload(const std::string& name, WorkloadKind* out);
const char* workload_name(WorkloadKind kind);

// One population for every workload (README: "Harness").
inline constexpr std::uint32_t kHosts = 20000;
inline constexpr std::uint32_t kSwitches = 4;
inline constexpr std::uint32_t kRules = 10000;
inline constexpr std::uint32_t kPriorityLevels = 8;
// Churn rules sit above every population rule.
inline constexpr std::uint32_t kChurnPriority = kPriorityLevels + 1;
// Churn rules alive at any time: each insert revokes the one inserted this
// many inserts earlier.
inline constexpr std::size_t kChurnDepth = 4;
// Table count every switch emulator advertises (the controller sees one
// fewer: Table 0 is DFI's).
inline constexpr std::uint8_t kSwitchTables = 4;

struct Flow {
  std::uint32_t src_host = 0;
  std::uint32_t dst_host = 0;
  std::uint16_t sport = 0;
  std::uint16_t dport = 0;
  std::uint8_t sw = 0;  // switch emulator index, 0..kSwitches-1
  std::uint32_t in_port = 0;
  std::uint32_t ip_src = 0;
  std::uint32_t ip_dst = 0;
  // The encoded table-0 Packet-in (xid 0) inside Workload::frames.
  std::uint32_t frame_offset = 0;
  std::uint32_t frame_size = 0;
};

struct Workload {
  Workload(WorkloadKind kind, std::uint64_t seed);

  WorkloadKind kind;
  std::uint64_t seed;
  dfi::ScaleGenerator gen;
  std::vector<Flow> flows;
  // Flow indices per switch, in send order.
  std::array<std::vector<std::uint32_t>, kSwitches> by_switch;
  std::vector<std::uint8_t> frames;
  // Hosts whose user logs off and on again in the churn workload.
  std::vector<std::uint32_t> churn_hosts;

  // The population's rules in insertion order and their PDP priority.
  std::vector<dfi::PolicyRule> rules() const;
  static std::uint32_t rule_priority(std::uint32_t index);
  // The m-th churn rule: fully qualified on both endpoints so the
  // insert-time conflict sweep touches only rules naming those two hosts.
  dfi::PolicyRule churn_rule(std::uint64_t m) const;
  // The k-th churn binding write: user logoff (even k) or logon (odd k).
  dfi::BindingEvent churn_binding(std::uint64_t k) const;

  dfi::PacketInMsg packet_in(std::uint32_t flow) const;
  dfi::Dpid dpid(std::uint32_t flow) const { return dfi::Dpid{flows[flow].sw + 1u}; }
};

}  // namespace e2e
