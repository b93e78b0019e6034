#include "core/policy_index.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <mutex>

#include "common/hash.h"

namespace dfi {

namespace policy_detail {

// Block storage for rules. The miss path tests candidate rules back to
// back, so where rules sit in memory is on the query's critical path: the
// general heap would scatter them into the holes the tries' growing node
// arrays leave behind, while here they are carved in insertion order from
// contiguous slabs, as close together as a bulk load can make them. A
// dropped rule's block is reused by the next insert; until then it is
// poisoned, so ASan still reports a use after free inside the pool. The
// last reference to a revoked rule may drop on a PCP shard thread
// releasing a snapshot, hence the lock.
class RuleSlab {
 public:
  void* allocate(std::size_t bytes) {
    const std::lock_guard<std::mutex> lock(mutex_);
    if (free_ != nullptr) {
      void* block = free_;
      ASAN_UNPOISON_MEMORY_REGION(block, block_bytes_);
      free_ = *static_cast<void**>(block);
      return block;
    }
    if (block_bytes_ == 0) {
      // Every block holds the same type: size them by the first request.
      block_bytes_ = (bytes + alignof(std::max_align_t) - 1) &
                     ~(alignof(std::max_align_t) - 1);
    }
    if (used_ == kBlocksPerSlab) {
      // Uninitialized: a block's pages are touched only once it is used.
      slabs_.emplace_back(new std::byte[kBlocksPerSlab * block_bytes_]);
      used_ = 0;
    }
    return slabs_.back().get() + block_bytes_ * used_++;
  }

  void deallocate(void* block) {
    const std::lock_guard<std::mutex> lock(mutex_);
    *static_cast<void**>(block) = free_;
    free_ = block;
    ASAN_POISON_MEMORY_REGION(block, block_bytes_);
  }

 private:
  static constexpr std::size_t kBlocksPerSlab = 128;
  std::mutex mutex_;
  std::vector<std::unique_ptr<std::byte[]>> slabs_;
  std::size_t block_bytes_ = 0;
  std::size_t used_ = kBlocksPerSlab;
  void* free_ = nullptr;  // intrusive list through freed blocks
};

}  // namespace policy_detail

namespace {

// allocate_shared adapter: a rule and its control block in one slab block.
// The copy held by the control block keeps the slab alive until the last
// rule drops.
template <typename T>
struct RuleAllocator {
  using value_type = T;
  explicit RuleAllocator(std::shared_ptr<policy_detail::RuleSlab> s) : slab(std::move(s)) {}
  template <typename U>
  RuleAllocator(const RuleAllocator<U>& other) : slab(other.slab) {}
  T* allocate(std::size_t n) { return static_cast<T*>(slab->allocate(n * sizeof(T))); }
  void deallocate(T* block, std::size_t) { slab->deallocate(block); }
  template <typename U>
  bool operator==(const RuleAllocator<U>& other) const { return slab == other.slab; }

  std::shared_ptr<policy_detail::RuleSlab> slab;
};

// The fields a rule can name, one mask bit each. The enriched names come
// first: they are the multi-valued fields of a flow.
enum Field : unsigned {
  kSrcUser, kSrcHost, kDstUser, kDstHost,
  kEtherType, kIpProto,
  kSrcIp, kSrcPort, kSrcMac, kSrcSwitchPort, kSrcDpid,
  kDstIp, kDstPort, kDstMac, kDstSwitchPort, kDstDpid,
  kFieldCount
};
constexpr unsigned kNameFields = 4;
constexpr std::uint32_t kNameMask = (1u << kNameFields) - 1;
using FieldValues = std::array<std::uint64_t, kFieldCount>;

constexpr std::uint32_t bit(unsigned field) { return 1u << field; }

// set(field, value) for every single-valued endpoint field `side` (an
// EndpointSpec or EndpointView, which name them alike) has; `ip` is the
// side's first such field.
template <typename Side, typename Set>
void for_each_value(const Side& side, unsigned ip, Set&& set) {
  if (side.ip) set(ip, side.ip->value());
  if (side.l4_port) set(ip + 1, *side.l4_port);
  if (side.mac) set(ip + 2, side.mac->to_u64());
  if (side.switch_port) set(ip + 3, side.switch_port->value);
  if (side.dpid) set(ip + 4, side.dpid->value);
}

// A user or host name's value: a hash of its bytes.
std::uint64_t name_value(const std::string& name) {
  return hash_bytes(name.data(), name.size());
}

// `rule`'s concrete values into `values`; returns the mask of the fields it
// names.
std::uint32_t values_of(const PolicyRule& rule, FieldValues& values) {
  std::uint32_t mask = 0;
  const auto set = [&](unsigned field, std::uint64_t value) {
    mask |= bit(field);
    values[field] = value;
  };
  if (rule.source.user) set(kSrcUser, name_value(rule.source.user->value));
  if (rule.source.host) set(kSrcHost, name_value(rule.source.host->value));
  if (rule.destination.user) set(kDstUser, name_value(rule.destination.user->value));
  if (rule.destination.host) set(kDstHost, name_value(rule.destination.host->value));
  if (rule.properties.ether_type) set(kEtherType, *rule.properties.ether_type);
  if (rule.properties.ip_proto) set(kIpProto, *rule.properties.ip_proto);
  for_each_value(rule.source, kSrcIp, set);
  for_each_value(rule.destination, kDstIp, set);
  return mask;
}

// A subtable's key for `values`: a hash of the values `mask` names.
std::uint64_t masked_key(std::uint32_t mask, const FieldValues& values) {
  std::uint64_t key = mask;
  for (std::uint32_t m = mask; m != 0; m &= m - 1) {
    key = hash_combine(key, values[static_cast<unsigned>(std::countr_zero(m))]);
  }
  return key;
}

// True if `a` wins over `b`: higher priority, then Deny over Allow, then
// the lower id — the order in which query_linear keeps its first choice.
bool outranks(const StoredPolicyRule& a, const StoredPolicyRule& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  if (a.rule.action != b.rule.action) return a.rule.action == PolicyAction::kDeny;
  return a.id < b.id;
}

// A rule's mask and its key in that mask's subtable.
struct RuleKey {
  std::uint32_t mask = 0;
  std::uint64_t key = 0;
};
RuleKey key_of(const PolicyRule& rule) {
  FieldValues values{};
  const std::uint32_t mask = values_of(rule, values);
  return {mask, masked_key(mask, values)};
}

// How many names `flow` binds for name field `field`, and the i-th.
std::size_t bound_count(const FlowView& flow, unsigned field) {
  switch (field) {
    case kSrcUser: return flow.src.usernames.size();
    case kSrcHost: return flow.src.hostnames.size();
    case kDstUser: return flow.dst.usernames.size();
    default: return flow.dst.hostnames.size();
  }
}
const std::string& bound_name(const FlowView& flow, unsigned field, std::size_t i) {
  switch (field) {
    case kSrcUser: return flow.src.usernames[i].value;
    case kSrcHost: return flow.src.hostnames[i].value;
    case kDstUser: return flow.dst.usernames[i].value;
    default: return flow.dst.hostnames[i].value;
  }
}

// `flow`'s single-valued fields into `values`; returns the mask of the
// fields it has a value for, counting a name field when it binds a name.
std::uint32_t flow_values(const FlowView& flow, FieldValues& values) {
  std::uint32_t present = 0;
  const auto set = [&](unsigned field, std::uint64_t value) {
    present |= bit(field);
    values[field] = value;
  };
  for (unsigned field = 0; field < kNameFields; ++field) {
    if (bound_count(flow, field) != 0) present |= bit(field);
  }
  set(kEtherType, flow.ether_type);
  if (flow.ip_proto) set(kIpProto, *flow.ip_proto);
  for_each_value(flow.src, kSrcIp, set);
  for_each_value(flow.dst, kDstIp, set);
  return present;
}

}  // namespace

PolicyRuleIndex::PolicyRuleIndex()
    : slab_(std::make_shared<policy_detail::RuleSlab>()),
      root_(std::make_shared<Root>()) {}

void PolicyRuleIndex::Entry::insert(const StoredPolicyRule* rule) {
  if (first == nullptr) {
    first = rule;
    return;
  }
  if (outranks(*rule, *first)) std::swap(rule, first);
  const auto at = std::find_if(rest.begin(), rest.end(), [rule](const auto* other) {
    return outranks(*rule, *other);
  });
  rest.insert(at, rule);
}

void PolicyRuleIndex::Entry::erase(const StoredPolicyRule* rule) {
  if (rule != first) {
    rest.erase(std::find(rest.begin(), rest.end(), rule));
  } else if (rest.empty()) {
    first = nullptr;
  } else {
    first = rest.front();
    rest.erase(rest.begin());
  }
}

namespace {

// Count one rule more (`add`) or less at `priority` in a subtable's
// descending (priority, rules) list; true when a priority appeared or
// vanished.
bool count_rule(std::vector<std::pair<std::uint32_t, std::uint32_t>>& counts,
                std::uint32_t priority, bool add) {
  const auto at = std::partition_point(counts.begin(), counts.end(),
                                       [&](const auto& c) { return c.first > priority; });
  if (add && (at == counts.end() || at->first != priority)) {
    counts.insert(at, {priority, 1});
    return true;
  }
  if (add) {
    ++at->second;
    return false;
  }
  if (--at->second != 0) return false;
  counts.erase(at);
  return true;
}

// Restore Root::subtables' order after one subtable's priorities changed.
template <typename Subtables>
void sort_subtables(Subtables& subtables) {
  std::sort(subtables.begin(), subtables.end(), [](const auto& a, const auto& b) {
    if (a->max_priority() != b->max_priority()) {
      return a->max_priority() > b->max_priority();
    }
    return a->mask < b->mask;
  });
}

}  // namespace

void PolicyRuleIndex::insert(StoredPolicyRule stored) {
  std::shared_ptr<const StoredPolicyRule> rule = std::allocate_shared<StoredPolicyRule>(
      RuleAllocator<StoredPolicyRule>(slab_), std::move(stored));
  const RuleKey key = key_of(rule->rule);
  const StoredPolicyRule* raw = rule.get();
  Root& root = cow_write(root_, generation_, cow_stats_.root_copies);
  root.rules.assign(raw->id.value, std::move(rule), generation_, cow_stats_);

  auto it = std::find_if(root.subtables.begin(), root.subtables.end(),
                         [&](const auto& table) { return table->mask == key.mask; });
  if (it == root.subtables.end()) it = root.subtables.insert(it, nullptr);
  Subtable& table = cow_write(*it, generation_, cow_stats_.page_copies);
  table.mask = key.mask;
  Entry& entry = table.entries.mutate(key.key, generation_, cow_stats_);
  if (entry.empty()) ++table.keys;
  entry.insert(raw);
  if (count_rule(table.priorities, raw->priority.value, /*add=*/true)) {
    sort_subtables(root.subtables);
  }
}

bool PolicyRuleIndex::remove(PolicyRuleId id) {
  const auto* found = root_->rules.find(id.value);
  if (found == nullptr) return false;
  const std::shared_ptr<const StoredPolicyRule> rule = *found;  // alive until done
  const RuleKey key = key_of(rule->rule);
  Root& root = cow_write(root_, generation_, cow_stats_.root_copies);

  const auto it =
      std::find_if(root.subtables.begin(), root.subtables.end(),
                   [&](const auto& table) { return table->mask == key.mask; });
  const auto& held = (*it)->priorities;
  if (held.size() == 1 && held.front().second == 1) {
    root.subtables.erase(it);  // the subtable's last rule: drop it whole
  } else {
    Subtable& table = cow_write(*it, generation_, cow_stats_.page_copies);
    Entry& entry = table.entries.mutate(key.key, generation_, cow_stats_);
    entry.erase(rule.get());
    if (entry.empty()) {
      table.entries.erase(key.key, generation_, cow_stats_);
      --table.keys;
    }
    if (count_rule(table.priorities, rule->priority.value, /*add=*/false)) {
      sort_subtables(root.subtables);
    }
  }
  root.rules.erase(id.value, generation_, cow_stats_);
  return true;
}

PolicyRuleIndex PolicyRuleIndex::publish() {
  ++generation_;
  return *this;
}

const StoredPolicyRule* PolicyRuleIndex::find(PolicyRuleId id) const {
  const auto* found = root_->rules.find(id.value);
  return found == nullptr ? nullptr : found->get();
}

const StoredPolicyRule* PolicyRuleIndex::best_match(const FlowView& flow,
                                                    PolicyIndexStats* stats) const {
  FieldValues values{};
  const std::uint32_t present = flow_values(flow, values);

  const StoredPolicyRule* best = nullptr;
  // Test an entry's rules in rank order until one matches or none left can
  // outrank the best match so far.
  const auto consider = [&](const Entry& entry) {
    entry.for_each([&](const StoredPolicyRule* stored) {
      if (best != nullptr && !outranks(*stored, *best)) return false;
      if (stats != nullptr) ++stats->match_candidates;
      if (!stored->rule.matches(flow)) return true;
      best = stored;
      return false;
    });
  };
  for (const auto& table_ptr : root_->subtables) {
    const Subtable& table = *table_ptr;
    if (best != nullptr && table.max_priority() < best->priority.value) break;
    if ((table.mask & ~present) != 0) continue;
    if (stats != nullptr) ++stats->subtables_probed;

    // One probe per combination of the flow's bound names the mask holds —
    // unless there are more combinations than entries.
    std::array<unsigned, kNameFields> name_fields{};
    unsigned n = 0;
    std::size_t combinations = 1;
    for (std::uint32_t m = table.mask & kNameMask; m != 0; m &= m - 1) {
      name_fields[n] = static_cast<unsigned>(std::countr_zero(m));
      combinations *= bound_count(flow, name_fields[n++]);
    }
    if (combinations > table.keys) {
      table.entries.for_each(consider);
      continue;
    }
    std::array<std::size_t, kNameFields> at{};
    for (;;) {
      for (unsigned i = 0; i < n; ++i) {
        values[name_fields[i]] = name_value(bound_name(flow, name_fields[i], at[i]));
      }
      if (const Entry* entry = table.entries.find(masked_key(table.mask, values))) {
        consider(*entry);
      }
      unsigned i = 0;
      while (i < n && ++at[i] == bound_count(flow, name_fields[i])) at[i++] = 0;
      if (i == n) break;
    }
  }
  return best;
}

void PolicyRuleIndex::for_each_overlap_candidate(
    const PolicyRule& rule, PdpPriority below, PolicyIndexStats& stats,
    const std::function<void(const StoredPolicyRule&)>& fn) const {
  FieldValues values{};
  const std::uint32_t named = values_of(rule, values);
  const auto visit = [&](const Entry& entry) {
    entry.for_each([&](const StoredPolicyRule* stored) {
      if (stored->priority < below) {
        ++stats.overlap_candidates;
        fn(*stored);
      }
      return true;
    });
  };
  for (const auto& table_ptr : root_->subtables) {
    const Subtable& table = *table_ptr;
    if (table.min_priority() >= below.value) continue;
    if ((table.mask & ~named) == 0) {
      // The new rule names every field of the mask: an overlapping rule
      // agrees with it on all of them, so it sits under the one key.
      if (const Entry* entry = table.entries.find(masked_key(table.mask, values))) {
        visit(*entry);
      }
    } else {
      table.entries.for_each(visit);
    }
  }
}

}  // namespace dfi
