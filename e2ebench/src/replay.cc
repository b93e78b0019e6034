#include "replay.h"

#include <algorithm>
#include <optional>

#include "core/decision_cache.h"
#include "core/pcp_decide.h"
#include "host.h"
#include "openflow/wire.h"

namespace e2e {

namespace {

constexpr std::size_t kMaxSample = 512;

// Keeps replayed results observable so no stage is optimised away.
volatile std::uint64_t g_sink = 0;

template <typename Fn>
double ns_per_call(std::size_t rounds, std::size_t calls_per_round, Fn&& fn) {
  const std::int64_t start = wall_ns();
  for (std::size_t r = 0; r < rounds; ++r) fn();
  const std::int64_t elapsed = wall_ns() - start;
  const double calls = static_cast<double>(rounds * calls_per_round);
  return calls == 0 ? 0.0 : static_cast<double>(elapsed) / calls;
}

// The endpoint views decide_on_snapshots builds before enrichment.
void endpoints(const dfi::DecisionInput& input, dfi::EndpointView* src,
               dfi::EndpointView* dst) {
  const dfi::Packet& packet = *input.packet;
  src->mac = packet.eth.src;
  src->dpid = input.dpid;
  src->switch_port = input.in_port;
  dst->mac = packet.eth.dst;
  if (packet.ipv4.has_value()) {
    src->ip = packet.ipv4->src;
    dst->ip = packet.ipv4->dst;
  }
  if (packet.tcp.has_value()) {
    src->l4_port = packet.tcp->src_port;
    dst->l4_port = packet.tcp->dst_port;
  }
}

}  // namespace

ReplayCosts replay_layers(const Workload& workload, dfi::DfiSystem& system,
                          const std::vector<std::uint8_t>& controller_reply,
                          std::size_t rounds) {
  ReplayCosts costs;
  const std::size_t n = std::min(kMaxSample, workload.flows.size());
  const dfi::PcpConfig config = dfi::DfiConfig::functional().pcp;

  // The inputs, in pipeline order.
  std::vector<std::uint8_t> chunk;
  for (std::size_t i = 0; i < n; ++i) {
    const Flow& f = workload.flows[i];
    chunk.insert(chunk.end(), workload.frames.begin() + f.frame_offset,
                 workload.frames.begin() + f.frame_offset + f.frame_size);
  }
  std::vector<dfi::FrameView> views;
  for (std::size_t at = 0, i = 0; i < n; ++i) {
    views.emplace_back(chunk.data() + at, workload.flows[i].frame_size);
    at += workload.flows[i].frame_size;
  }
  std::vector<dfi::PacketInMsg> messages;
  std::vector<dfi::DecisionInput> inputs;
  for (std::size_t i = 0; i < n; ++i) {
    auto decoded = dfi::decode(views[i]);
    messages.push_back(std::get<dfi::PacketInMsg>(decoded.value().payload));
    inputs.push_back(dfi::make_decision_input(workload.dpid(static_cast<std::uint32_t>(i)),
                                              messages.back()));
    dfi::DecisionInput& input = inputs.back();
    input.prior_src_location =
        system.erm().location_of_mac(input.dpid, input.packet->eth.src);
  }
  const dfi::DecisionSnapshots snapshots{system.erm().snapshot_view(),
                                         system.policy_manager().snapshot_view()};

  // Wire: framing, classification, slow-path decode.
  dfi::FrameDecoder decoder;
  costs.frame_ns = ns_per_call(rounds, n, [&] {
    decoder.feed(chunk);
    dfi::FrameView view;
    while (decoder.next_frame(view) == dfi::FrameStatus::kFrame) g_sink = g_sink + view.size();
  });
  costs.classify_ns = ns_per_call(rounds, n, [&] {
    for (const dfi::FrameView& view : views) {
      g_sink = g_sink + static_cast<std::uint64_t>(dfi::classify(
                            view, dfi::ProxyDirection::kSwitchToController, kSwitchTables));
    }
  });
  costs.decode_ns = ns_per_call(rounds, n, [&] {
    for (const dfi::FrameView& view : views) g_sink = g_sink + dfi::decode(view).ok();
  });

  // PCP: parse, snapshot capture, the pure decision both ways.
  costs.parse_ns = ns_per_call(rounds, n, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      g_sink = g_sink + dfi::make_decision_input(inputs[i].dpid, messages[i]).in_port.value;
    }
  });
  costs.snapshot_view_ns = ns_per_call(rounds, n, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      g_sink = g_sink + system.erm().snapshot_view().epoch() +
               system.policy_manager().snapshot_view()->epoch();
    }
  });
  dfi::DecisionCache<dfi::PcpDecision> no_cache(0);
  std::vector<dfi::PcpDecision> decisions;
  for (const dfi::DecisionInput& input : inputs) {
    decisions.push_back(dfi::decide_on_snapshots(input, snapshots, no_cache, config).decision);
  }
  costs.decide_miss_ns = ns_per_call(rounds, n, [&] {
    for (const dfi::DecisionInput& input : inputs) {
      g_sink = g_sink +
               dfi::decide_on_snapshots(input, snapshots, no_cache, config).decision.allow;
    }
  });
  dfi::DecisionCache<dfi::PcpDecision> warm_cache(config.decision_cache_capacity);
  for (const dfi::DecisionInput& input : inputs) {
    dfi::decide_on_snapshots(input, snapshots, warm_cache, config);
  }
  costs.decide_hit_ns = ns_per_call(rounds, n, [&] {
    for (const dfi::DecisionInput& input : inputs) {
      g_sink = g_sink +
               dfi::decide_on_snapshots(input, snapshots, warm_cache, config).cache_hit;
    }
  });

  // The miss path's stages one by one, on the same inputs.
  std::vector<dfi::EndpointView> srcs(n);
  std::vector<dfi::EndpointView> dsts(n);
  for (std::size_t i = 0; i < n; ++i) endpoints(inputs[i], &srcs[i], &dsts[i]);
  costs.validate_ns = ns_per_call(rounds, n, [&] {
    for (const dfi::EndpointView& src : srcs) {
      g_sink = g_sink + snapshots.erm.validate_identity(src.mac, src.ip).spoofed;
    }
  });
  costs.enrich_ns = ns_per_call(rounds, 2 * n, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      g_sink = g_sink + snapshots.erm.enrich(srcs[i]).usernames.size() +
               snapshots.erm.enrich(dsts[i]).usernames.size();
    }
  });
  costs.query_ns = ns_per_call(rounds, n, [&] {
    for (const dfi::PcpDecision& decision : decisions) {
      g_sink = g_sink + snapshots.policy->query(decision.flow).rule_id.value;
    }
  });
  costs.compile_ns = ns_per_call(rounds, n, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      g_sink = g_sink + dfi::compile_exact_rule(*inputs[i].packet, inputs[i].in_port,
                                                decisions[i].allow,
                                                decisions[i].installed_rule.cookie, config)
                            .priority;
    }
  });

  // Egress: the decision FlowMod, the forwarded Packet-in, the reply patch.
  std::vector<std::uint8_t> out;
  out.reserve(1024);
  std::vector<dfi::OfMessage> mods;
  std::vector<dfi::OfMessage> pins;
  for (std::size_t i = 0; i < n; ++i) {
    mods.push_back(dfi::OfMessage{0, decisions[i].installed_rule});
    pins.push_back(dfi::OfMessage{static_cast<std::uint32_t>(i + 1), messages[i]});
  }
  costs.encode_ns = ns_per_call(rounds, n, [&] {
    for (const dfi::OfMessage& mod : mods) {
      dfi::encode_into(mod, out);
      g_sink = g_sink + out.size();
    }
  });
  costs.encode_pin_ns = ns_per_call(rounds, n, [&] {
    for (const dfi::OfMessage& pin : pins) {
      dfi::encode_into(pin, out);
      g_sink = g_sink + out.size();
    }
  });
  costs.patch_ns = ns_per_call(rounds, n, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      out.assign(controller_reply.begin(), controller_reply.end());
      g_sink = g_sink + dfi::patch_table_refs(out.data(), out.size(),
                                              dfi::ProxyDirection::kControllerToSwitch);
    }
  });
  return costs;
}

}  // namespace e2e
