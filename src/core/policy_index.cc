#include "core/policy_index.h"

#include <sanitizer/asan_interface.h>

#include <algorithm>
#include <cstddef>
#include <mutex>

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

// Pack a concrete spec value to its posting-map key.
std::uint64_t key_of(Ipv4Address ip) { return ip.value(); }
std::uint64_t key_of(MacAddress mac) { return mac.to_u64(); }
std::uint64_t key_of(Dpid dpid) { return dpid.value; }

}  // namespace

PolicyRuleIndex::PolicyRuleIndex()
    : slab_(std::make_shared<policy_detail::RuleSlab>()),
      root_(std::make_shared<Root>()),
      names_(std::make_shared<Names>()),
      users_(names_->users.reader()),
      hosts_(names_->hosts.reader()) {}

std::uint64_t PolicyRuleIndex::intern_name(StringInterner& names,
                                           StringInterner::Reader& reader,
                                           const std::string& name) {
  const EntityId id = names.intern(name);
  reader = names.reader();  // the table may have grown
  return id.value;
}

PolicyRuleIndex::Pivot PolicyRuleIndex::pivot_of(const PolicyRule& rule) {
  const EndpointSpec& src = rule.source;
  const EndpointSpec& dst = rule.destination;
  if (src.ip) return {&Bucket::src_ip, key_of(*src.ip)};
  if (dst.ip) return {&Bucket::dst_ip, key_of(*dst.ip)};
  if (src.mac) return {&Bucket::src_mac, key_of(*src.mac)};
  if (dst.mac) return {&Bucket::dst_mac, key_of(*dst.mac)};
  if (src.user) return {&Bucket::src_user, intern_name(names_->users, users_, src.user->value)};
  if (dst.user) return {&Bucket::dst_user, intern_name(names_->users, users_, dst.user->value)};
  if (src.host) return {&Bucket::src_host, intern_name(names_->hosts, hosts_, src.host->value)};
  if (dst.host) return {&Bucket::dst_host, intern_name(names_->hosts, hosts_, dst.host->value)};
  if (src.dpid) return {&Bucket::src_dpid, key_of(*src.dpid)};
  if (dst.dpid) return {&Bucket::dst_dpid, key_of(*dst.dpid)};
  return {};
}

void PolicyRuleIndex::insert(StoredPolicyRule stored) {
  std::shared_ptr<const StoredPolicyRule> rule = std::allocate_shared<StoredPolicyRule>(
      RuleAllocator<StoredPolicyRule>(slab_), std::move(stored));
  const Pivot pivot = pivot_of(rule->rule);
  const StoredPolicyRule* raw = rule.get();
  Root& root = cow_write(root_, generation_, cow_stats_.root_copies);
  root.rules.insert(raw->id.value, std::move(rule), generation_, cow_stats_);

  const std::uint32_t priority = raw->priority.value;
  auto it = std::partition_point(root.buckets.begin(), root.buckets.end(),
                                 [&](const auto& b) { return b.first > priority; });
  if (it == root.buckets.end() || it->first != priority) {
    it = root.buckets.insert(it, {priority, nullptr});
  }
  Bucket& bucket = cow_write(it->second, generation_, cow_stats_.page_copies);
  writable_list(bucket, pivot).push_back(raw);
  ++bucket.size;
}

PolicyRuleIndex::RuleList& PolicyRuleIndex::writable_list(Bucket& bucket,
                                                          const Pivot& pivot) {
  if (pivot.map == nullptr) {
    return cow_write(bucket.wildcard, generation_, cow_stats_.page_copies).rules;
  }
  return (bucket.*pivot.map).mutate(pivot.key, generation_, cow_stats_);
}

bool PolicyRuleIndex::remove(PolicyRuleId id) {
  const auto* found = root_->rules.find(id.value);
  if (found == nullptr) return false;
  const std::shared_ptr<const StoredPolicyRule> rule = *found;  // alive until done
  const Pivot pivot = pivot_of(rule->rule);
  Root& root = cow_write(root_, generation_, cow_stats_.root_copies);

  const std::uint32_t priority = rule->priority.value;
  const auto it = std::partition_point(root.buckets.begin(), root.buckets.end(),
                                       [&](const auto& b) { return b.first > priority; });
  if (it->second->size == 1) {
    root.buckets.erase(it);  // the bucket's last rule: drop it whole
  } else {
    Bucket& bucket = cow_write(it->second, generation_, cow_stats_.page_copies);
    --bucket.size;
    RuleList& list = writable_list(bucket, pivot);
    list.erase(rule.get());
    if (list.empty()) {
      if (pivot.map == nullptr) {
        bucket.wildcard.reset();
      } else {
        (bucket.*pivot.map).erase(pivot.key, generation_, cow_stats_);
      }
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
  // Resolve the flow's user/host names to index-local ids once, outside the
  // bucket walk. A name no rule ever pivoted on has no id — drop it here
  // rather than hashing the string once per bucket.
  std::vector<std::uint32_t> src_users, dst_users, src_hosts, dst_hosts;
  const auto resolve = [](const StringInterner::Reader& names, const auto& observed,
                          std::vector<std::uint32_t>& out) {
    for (const auto& name : observed) {
      const EntityId id = names.find(name.value);
      if (id.valid()) out.push_back(id.value);
    }
  };
  resolve(users_, flow.src.usernames, src_users);
  resolve(users_, flow.dst.usernames, dst_users);
  resolve(hosts_, flow.src.hostnames, src_hosts);
  resolve(hosts_, flow.dst.hostnames, dst_hosts);

  for (const auto& [priority, bucket_ptr] : root_->buckets) {
    const Bucket& bucket = *bucket_ptr;
    if (stats != nullptr) ++stats->buckets_visited;
    const StoredPolicyRule* best = nullptr;
    const auto consider = [&](const StoredPolicyRule* stored) {
      if (stats != nullptr) ++stats->match_candidates;
      if (!stored->rule.matches(flow)) return;
      if (best == nullptr) {
        best = stored;
      } else if (best->rule.action == PolicyAction::kAllow &&
                 stored->rule.action == PolicyAction::kDeny) {
        best = stored;  // equal-priority conflict: Deny wins
      }
    };
    const auto probe = [&](const PostingMap& map, std::uint64_t key) {
      if (const RuleList* list = map.find(key)) list->for_each(consider);
    };
    if (flow.src.ip) probe(bucket.src_ip, key_of(*flow.src.ip));
    if (flow.dst.ip) probe(bucket.dst_ip, key_of(*flow.dst.ip));
    if (flow.src.mac) probe(bucket.src_mac, key_of(*flow.src.mac));
    if (flow.dst.mac) probe(bucket.dst_mac, key_of(*flow.dst.mac));
    for (const std::uint32_t id : src_users) probe(bucket.src_user, id);
    for (const std::uint32_t id : dst_users) probe(bucket.dst_user, id);
    for (const std::uint32_t id : src_hosts) probe(bucket.src_host, id);
    for (const std::uint32_t id : dst_hosts) probe(bucket.dst_host, id);
    if (flow.src.dpid) probe(bucket.src_dpid, key_of(*flow.src.dpid));
    if (flow.dst.dpid) probe(bucket.dst_dpid, key_of(*flow.dst.dpid));
    if (bucket.wildcard != nullptr) bucket.wildcard->rules.for_each(consider);
    if (best != nullptr) return best;  // no lower bucket can outrank this one
  }
  return nullptr;
}

void PolicyRuleIndex::for_each_overlap_candidate(
    const PolicyRule& rule, PdpPriority below, PolicyIndexStats& stats,
    const std::function<void(const StoredPolicyRule&)>& fn) const {
  const auto visit = [&](const RuleList& list) {
    list.for_each([&](const StoredPolicyRule* stored) {
      ++stats.overlap_candidates;
      fn(*stored);
    });
  };
  // Overlap probing: a rule pivoted on field f with value v overlaps the
  // new rule on f iff the new rule wildcards f or names the same v — so a
  // concrete spec costs one probe, a wildcard spec visits the whole map.
  // A concretely named user/host that no indexed rule ever pivoted on has
  // no index-local id and therefore an empty candidate set for that map.
  const auto probe = [&](const PostingMap& map, std::uint64_t key) {
    if (const RuleList* list = map.find(key)) visit(*list);
  };
  const auto sweep_value = [&](const PostingMap& map, const auto& spec) {
    if (!spec.has_value()) {
      map.for_each(visit);
    } else {
      probe(map, key_of(*spec));
    }
  };
  const auto sweep_name = [&](const PostingMap& map, const auto& spec,
                              const StringInterner::Reader& names) {
    if (!spec.has_value()) {
      map.for_each(visit);
      return;
    }
    const EntityId id = names.find(spec->value);
    if (id.valid()) probe(map, id.value);
  };
  // Buckets run in descending priority: skip to the first one strictly
  // below the new rule's.
  const auto& buckets = root_->buckets;
  auto it = std::partition_point(buckets.begin(), buckets.end(),
                                 [&](const auto& b) { return b.first >= below.value; });
  for (; it != buckets.end(); ++it) {
    const Bucket& bucket = *it->second;
    sweep_value(bucket.src_ip, rule.source.ip);
    sweep_value(bucket.dst_ip, rule.destination.ip);
    sweep_value(bucket.src_mac, rule.source.mac);
    sweep_value(bucket.dst_mac, rule.destination.mac);
    sweep_name(bucket.src_user, rule.source.user, users_);
    sweep_name(bucket.dst_user, rule.destination.user, users_);
    sweep_name(bucket.src_host, rule.source.host, hosts_);
    sweep_name(bucket.dst_host, rule.destination.host, hosts_);
    sweep_value(bucket.src_dpid, rule.source.dpid);
    sweep_value(bucket.dst_dpid, rule.destination.dpid);
    if (bucket.wildcard != nullptr) visit(bucket.wildcard->rules);
  }
}

}  // namespace dfi
