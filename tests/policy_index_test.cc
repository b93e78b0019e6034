// Differential/property tests for the posting-list policy index: the
// indexed PolicyManager::query must be semantically equivalent to the
// retained linear-scan oracle query_linear over randomized rule sets and
// flows, including equal-priority Deny-wins and wildcard-only rules, and
// the index-driven insert-time conflict sweep must flush exactly the rules
// the brute-force overlap definition names (paper §III-B).
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <mutex>
#include <random>
#include <thread>
#include <vector>

#include "bus/message_bus.h"
#include "core/policy_manager.h"

namespace dfi {
namespace {

// Small identifier pools: draws collide often enough that rules match
// flows, overlap each other, and tie on priority.
const std::vector<Username> kUsers = {Username{"alice"}, Username{"bob"},
                                      Username{"carol"}};
const std::vector<Hostname> kHosts = {Hostname{"h1"}, Hostname{"h2"},
                                      Hostname{"h3"}};
const std::vector<Ipv4Address> kIps = {
    Ipv4Address(10, 0, 0, 1), Ipv4Address(10, 0, 0, 2), Ipv4Address(10, 0, 0, 3),
    Ipv4Address(10, 0, 0, 4)};
const std::vector<std::uint16_t> kPorts = {22, 80, 445};
const std::vector<std::uint16_t> kEtherTypes = {0x0800, 0x0806};
const std::vector<std::uint8_t> kProtos = {6, 17};

class RandomModel {
 public:
  explicit RandomModel(std::uint32_t seed) : rng_(seed) {}

  bool chance(double p) { return std::uniform_real_distribution<>(0, 1)(rng_) < p; }

  template <typename T>
  const T& pick(const std::vector<T>& pool) {
    return pool[std::uniform_int_distribution<std::size_t>(0, pool.size() - 1)(rng_)];
  }

  EndpointSpec random_spec() {
    EndpointSpec spec;
    if (chance(0.3)) spec.user = pick(kUsers);
    if (chance(0.3)) spec.host = pick(kHosts);
    if (chance(0.4)) spec.ip = pick(kIps);
    if (chance(0.3)) spec.l4_port = pick(kPorts);
    if (chance(0.2)) spec.mac = MacAddress::from_u64(1 + pick(kPorts) % 4);
    if (chance(0.15)) spec.dpid = Dpid{std::uint64_t{1} + pick(kPorts) % 2};
    return spec;
  }

  PolicyRule random_rule() {
    PolicyRule rule;
    rule.action = chance(0.5) ? PolicyAction::kAllow : PolicyAction::kDeny;
    if (chance(0.3)) rule.properties.ether_type = pick(kEtherTypes);
    if (chance(0.25)) rule.properties.ip_proto = pick(kProtos);
    // ~10% of rules stay fully wildcard on both endpoints (wildcard-list
    // coverage); the rest draw random specs, which may still come out
    // wildcard-only on the pivot fields (port-only rules).
    if (!chance(0.1)) {
      rule.source = random_spec();
      rule.destination = random_spec();
    }
    return rule;
  }

  EndpointView random_view() {
    EndpointView view;
    if (chance(0.9)) view.ip = pick(kIps);
    if (chance(0.9)) view.mac = MacAddress::from_u64(1 + pick(kPorts) % 4);
    if (chance(0.8)) view.l4_port = pick(kPorts);
    if (chance(0.3)) view.dpid = Dpid{std::uint64_t{1} + pick(kPorts) % 2};
    while (chance(0.4)) view.hostnames.push_back(pick(kHosts));
    while (chance(0.4)) view.usernames.push_back(pick(kUsers));
    return view;
  }

  FlowView random_flow() {
    FlowView flow;
    flow.ether_type = pick(kEtherTypes);
    if (chance(0.7)) flow.ip_proto = pick(kProtos);
    flow.src = random_view();
    flow.dst = random_view();
    return flow;
  }

  PdpPriority random_priority() {
    return PdpPriority{static_cast<std::uint32_t>(
        std::uniform_int_distribution<>(1, 4)(rng_) * 10)};
  }

 private:
  std::mt19937 rng_;
};

// The differential contract (mirrors tests/differential_test.cc): both
// implementations must agree on default-deny and action. The deciding rule
// id may differ among equally-ranked same-action rules.
void expect_equivalent(const PolicyManager& manager, const FlowView& flow) {
  const PolicyDecision indexed = manager.query(flow);
  const PolicyDecision linear = manager.query_linear(flow);
  ASSERT_EQ(indexed.default_deny, linear.default_deny)
      << "index and linear scan disagree on whether any rule matches";
  ASSERT_EQ(indexed.action, linear.action);
  if (indexed.default_deny || indexed.rule_id == linear.rule_id) return;
  const auto a = manager.find(indexed.rule_id);
  const auto b = manager.find(linear.rule_id);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(a->priority, b->priority);
  EXPECT_EQ(a->rule.action, b->rule.action);
  EXPECT_TRUE(a->rule.matches(flow));
  EXPECT_TRUE(b->rule.matches(flow));
}

class PolicyIndexDifferentialTest : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PolicyIndexDifferentialTest, IndexedQueryMatchesLinearScan) {
  MessageBus bus;
  PolicyManager manager(bus);
  RandomModel model(GetParam());
  for (int i = 0; i < 120; ++i) {
    manager.insert(model.random_rule(), model.random_priority(), "fuzz");
  }
  for (int i = 0; i < 300; ++i) {
    expect_equivalent(manager, model.random_flow());
  }
}

TEST_P(PolicyIndexDifferentialTest, EquivalenceHoldsAcrossInsertRevokeChurn) {
  MessageBus bus;
  PolicyManager manager(bus);
  RandomModel model(GetParam() ^ 0x5a5a5a5au);
  std::vector<PolicyRuleId> live;
  for (int round = 0; round < 200; ++round) {
    if (live.empty() || model.chance(0.6)) {
      live.push_back(manager.insert(model.random_rule(), model.random_priority(), "churn"));
    } else {
      std::swap(live[live.size() / 2], live.back());
      ASSERT_TRUE(manager.revoke(live.back()));
      live.pop_back();
    }
    expect_equivalent(manager, model.random_flow());
  }
  // Drain completely: the index must end empty and default-deny everything.
  for (const PolicyRuleId id : live) ASSERT_TRUE(manager.revoke(id));
  EXPECT_EQ(manager.size(), 0u);
  EXPECT_TRUE(manager.query(model.random_flow()).default_deny);
}

TEST_P(PolicyIndexDifferentialTest, ConflictFlushSetMatchesBruteForce) {
  MessageBus bus;
  RandomModel model(GetParam() ^ 0xc0ffee11u);
  std::vector<PolicyRuleId> flushes;
  PolicyManager manager(bus);
  const Subscription sub = bus.subscribe<FlushDirective>(
      topics::kRuleFlush,
      [&flushes](const FlushDirective& d) { flushes.push_back(d.policy); });

  for (int round = 0; round < 80; ++round) {
    const PolicyRule rule = model.random_rule();
    const PdpPriority priority = model.random_priority();
    // Brute-force reference: strictly lower priority, opposite action,
    // field-wise overlap (paper §III-B consistency conditions).
    std::vector<PolicyRuleId> expected;
    for (const StoredPolicyRule& stored : manager.rules()) {
      if (stored.priority < priority && stored.rule.action != rule.action &&
          stored.rule.overlaps(rule)) {
        expected.push_back(stored.id);
      }
    }
    flushes.clear();
    manager.insert(rule, priority, "sweep");
    std::vector<PolicyRuleId> actual;
    for (const PolicyRuleId id : flushes) {
      if (id.value != kDefaultDenyCookie.value) actual.push_back(id);
    }
    auto by_value = [](PolicyRuleId a, PolicyRuleId b) { return a.value < b.value; };
    std::sort(expected.begin(), expected.end(), by_value);
    std::sort(actual.begin(), actual.end(), by_value);
    ASSERT_EQ(actual, expected) << "round " << round;
  }
}

// Published snapshots share the live copy-on-write index, so every write
// after a publication must path-copy instead of mutating a shared node. A
// snapshot held across later inserts and revokes must keep answering
// exactly as a fresh index built from its epoch's rules in ascending-id
// order does (the old rebuild-per-publication semantics), and as the
// linear scan does up to the choice among equally ranked same-action rules.
// The interleavings create and delete buckets, grow and empty posting
// lists, free revoked rules whose storage later inserts reuse, and send
// half of all writes into the largest bucket.
TEST_P(PolicyIndexDifferentialTest, HeldSnapshotsAnswerLikeAFreshIndexOfTheirEpoch) {
  MessageBus bus;
  PolicyManager manager(bus);
  RandomModel model(GetParam() ^ 0x1d1e5eedu);
  struct Held {
    std::shared_ptr<const PolicySnapshot> snapshot;
    std::uint64_t epoch = 0;
    std::vector<StoredPolicyRule> rules;
    std::unique_ptr<MessageBus> fresh_bus;
    std::unique_ptr<PolicyManager> fresh;
  };
  std::vector<Held> held;
  std::vector<PolicyRuleId> live;

  for (int round = 0; round < 400; ++round) {
    const bool insert =
        live.size() < 3 || (live.size() < 30 && model.chance(0.55));
    if (insert) {
      const PdpPriority priority =
          model.chance(0.5) ? PdpPriority{40} : model.random_priority();
      live.push_back(manager.insert(model.random_rule(), priority, "held"));
    } else {
      const std::size_t victim =
          static_cast<std::size_t>(round * 7919) % live.size();
      std::swap(live[victim], live.back());
      ASSERT_TRUE(manager.revoke(live.back()));
      live.pop_back();
    }
    if (model.chance(0.3)) {
      Held h;
      h.snapshot = manager.snapshot_view();
      h.epoch = manager.epoch();
      h.rules = manager.rules();
      h.fresh_bus = std::make_unique<MessageBus>();
      h.fresh = std::make_unique<PolicyManager>(*h.fresh_bus);
      for (const StoredPolicyRule& stored : h.rules) h.fresh->restore_rule(stored);
      held.push_back(std::move(h));
      if (held.size() > 6) held.erase(held.begin());
    }
    for (const Held& h : held) {
      ASSERT_EQ(h.snapshot->epoch(), h.epoch) << "round " << round;
      ASSERT_EQ(h.snapshot->size(), h.rules.size()) << "round " << round;
      std::size_t i = 0;
      h.snapshot->for_each_rule([&](const StoredPolicyRule& stored) {
        ASSERT_LT(i, h.rules.size());
        EXPECT_EQ(stored.id, h.rules[i].id);
        EXPECT_EQ(stored.priority, h.rules[i].priority);
        EXPECT_EQ(stored.rule, h.rules[i].rule);
        EXPECT_EQ(h.snapshot->find(stored.id), &stored);
        ++i;
      });
      for (int q = 0; q < 4; ++q) {
        const FlowView flow = model.random_flow();
        const PolicyDecision frozen = h.snapshot->query(flow);
        const PolicyDecision fresh = h.fresh->query(flow);
        ASSERT_EQ(frozen.default_deny, fresh.default_deny) << "round " << round;
        ASSERT_EQ(frozen.action, fresh.action) << "round " << round;
        ASSERT_EQ(frozen.rule_id, fresh.rule_id) << "round " << round;
        expect_equivalent(*h.fresh, flow);
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PolicyIndexDifferentialTest,
                         ::testing::Range(0u, 6u));

// One write into one large bucket, then snapshot_view(): the publication
// clones only the nodes on the written path — the root, the bucket, the
// posting trie's nodes above the list, and the id map's path — so the count
// stays under one fixed bound whatever the rule count. The population load
// before the first publication mutates in place and clones nothing.
TEST(PolicyIndexTest, PublishAfterOneWriteClonesABoundedNumberOfNodes) {
  constexpr std::uint64_t kCloneBound = 12;
  for (const std::uint32_t rules : {1000u, 10000u}) {
    MessageBus bus;
    PolicyManager manager(bus);
    const auto make = [](std::uint32_t i) {
      PolicyRule rule;
      rule.action = i % 5 == 0 ? PolicyAction::kDeny : PolicyAction::kAllow;
      rule.source.ip = Ipv4Address(0x0a000000u + i);
      rule.destination.l4_port = 445;
      return rule;
    };
    std::vector<PolicyRuleId> ids;
    for (std::uint32_t i = 0; i < rules; ++i) {
      ids.push_back(manager.insert(make(i), PdpPriority{10}, "bulk"));
    }
    EXPECT_EQ(manager.cow_stats().page_copies, 0u);
    EXPECT_EQ(manager.cow_stats().root_copies, 0u);
    (void)manager.snapshot_view();

    const auto clones_of = [&](const auto& write) {
      const CowTableStats before = manager.cow_stats();
      write();
      (void)manager.snapshot_view();
      const CowTableStats after = manager.cow_stats();
      EXPECT_EQ(after.root_copies - before.root_copies, 1u);
      return (after.page_copies - before.page_copies) +
             (after.root_copies - before.root_copies);
    };
    const std::uint64_t revoke =
        clones_of([&] { ASSERT_TRUE(manager.revoke(ids[rules / 2])); });
    const std::uint64_t insert =
        clones_of([&] { manager.insert(make(rules), PdpPriority{10}, "bulk"); });
    EXPECT_LE(revoke, kCloneBound) << rules << " rules";
    EXPECT_LE(insert, kCloneBound) << rules << " rules";
    EXPECT_GE(revoke, 3u) << "root, bucket and id path at least";
  }
}

// Reader threads query held and freshly published snapshots while the
// control thread keeps writing to the same bucket and publishing. Every
// answer must equal what the live index answered at that snapshot's epoch;
// under TSan this is the race check for the shared copy-on-write index (the
// writer never writes a node a published snapshot can reach, and queries
// on a snapshot write nothing).
TEST(PolicyIndexTest, ConcurrentReadersQueryFrozenSnapshotsWhileWriterPublishes) {
  MessageBus bus;
  PolicyManager manager(bus);
  RandomModel model(77);
  std::vector<FlowView> flows;
  for (int i = 0; i < 24; ++i) flows.push_back(model.random_flow());
  std::vector<PolicyRuleId> live;
  for (int i = 0; i < 150; ++i) {
    live.push_back(manager.insert(model.random_rule(), PdpPriority{10}, "load"));
  }

  struct Published {
    std::shared_ptr<const PolicySnapshot> snapshot;
    std::vector<PolicyDecision> expected;
  };
  std::mutex mutex;
  std::shared_ptr<const Published> current;
  const auto publish = [&] {
    auto published = std::make_shared<Published>();
    published->snapshot = manager.snapshot_view();
    for (const FlowView& flow : flows) published->expected.push_back(manager.query(flow));
    const std::lock_guard<std::mutex> lock(mutex);
    current = std::move(published);
  };
  const auto latest = [&] {
    const std::lock_guard<std::mutex> lock(mutex);
    return current;
  };
  publish();

  std::atomic<bool> stop{false};
  std::atomic<std::uint64_t> checks{0};
  std::atomic<std::uint64_t> mismatches{0};
  std::vector<std::thread> readers;
  for (int r = 0; r < 3; ++r) {
    readers.emplace_back([&, r] {
      std::shared_ptr<const Published> held = latest();
      for (std::uint64_t pass = 0; !stop.load(std::memory_order_relaxed); ++pass) {
        const std::shared_ptr<const Published> fresh = latest();
        for (const Published* p : {held.get(), fresh.get()}) {
          for (std::size_t i = 0; i < flows.size(); ++i) {
            const PolicyDecision got = p->snapshot->query(flows[i]);
            const PolicyDecision& want = p->expected[i];
            if (got.rule_id != want.rule_id || got.action != want.action ||
                got.default_deny != want.default_deny ||
                (!got.default_deny && p->snapshot->find(got.rule_id) == nullptr)) {
              mismatches.fetch_add(1, std::memory_order_relaxed);
            }
            checks.fetch_add(1, std::memory_order_relaxed);
          }
          std::size_t counted = 0;
          p->snapshot->for_each_rule([&](const StoredPolicyRule&) { ++counted; });
          if (counted != p->snapshot->size()) mismatches.fetch_add(1);
        }
        if ((pass + static_cast<std::uint64_t>(r)) % 8 == 0) held = fresh;
      }
    });
  }

  for (int round = 0; round < 300; ++round) {
    if (live.size() > 120 && model.chance(0.5)) {
      std::swap(live[static_cast<std::size_t>(round) % live.size()], live.back());
      ASSERT_TRUE(manager.revoke(live.back()));
      live.pop_back();
    } else {
      live.push_back(manager.insert(model.random_rule(), PdpPriority{10}, "churn"));
    }
    publish();
  }
  while (checks.load() < 3000) std::this_thread::yield();
  stop = true;
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(mismatches.load(), 0u);
}

// ------------------------------------------------- deterministic corners

FlowView flow_for_user(const char* user) {
  FlowView flow;
  flow.ether_type = 0x0800;
  flow.src.ip = Ipv4Address(10, 0, 0, 1);
  flow.src.usernames = {Username{user}};
  flow.dst.ip = Ipv4Address(10, 0, 0, 2);
  return flow;
}

TEST(PolicyIndexTest, EqualPriorityDenyWinsWithinPostingList) {
  MessageBus bus;
  PolicyManager manager(bus);
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  allow.source.user = Username{"alice"};
  PolicyRule deny = allow;
  deny.action = PolicyAction::kDeny;
  manager.insert(allow, PdpPriority{10}, "a");
  manager.insert(deny, PdpPriority{10}, "b");
  EXPECT_EQ(manager.query(flow_for_user("alice")).action, PolicyAction::kDeny);
  EXPECT_EQ(manager.query_linear(flow_for_user("alice")).action, PolicyAction::kDeny);
}

TEST(PolicyIndexTest, EqualPriorityDenyWinsAcrossWildcardAndPostingList) {
  // The Allow names a pivot field (posting list); the Deny is wildcard-only
  // (wildcard list). Equal priority: Deny must still win, which requires
  // the bucket walk to consider both lists before deciding.
  MessageBus bus;
  PolicyManager manager(bus);
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  allow.source.user = Username{"alice"};
  PolicyRule deny;  // fully wildcard
  deny.action = PolicyAction::kDeny;
  manager.insert(allow, PdpPriority{10}, "a");
  manager.insert(deny, PdpPriority{10}, "b");
  EXPECT_EQ(manager.query(flow_for_user("alice")).action, PolicyAction::kDeny);
}

TEST(PolicyIndexTest, WildcardOnlyRuleMatchesViaWildcardList) {
  MessageBus bus;
  PolicyManager manager(bus);
  PolicyRule port_only;  // no pivot field concrete: lives on the wildcard list
  port_only.action = PolicyAction::kAllow;
  port_only.destination.l4_port = 445;
  const PolicyRuleId id = manager.insert(port_only, PdpPriority{10}, "t");
  FlowView flow = flow_for_user("alice");
  flow.dst.l4_port = 445;
  const PolicyDecision decision = manager.query(flow);
  EXPECT_EQ(decision.action, PolicyAction::kAllow);
  EXPECT_EQ(decision.rule_id, id);
}

TEST(PolicyIndexTest, HigherPriorityBucketDecidesBeforeLowerIsVisited) {
  MessageBus bus;
  PolicyManager manager(bus);
  PolicyRule allow;
  allow.action = PolicyAction::kAllow;
  allow.source.user = Username{"alice"};
  PolicyRule deny = allow;
  deny.action = PolicyAction::kDeny;
  const PolicyRuleId high = manager.insert(allow, PdpPriority{30}, "high");
  manager.insert(deny, PdpPriority{10}, "low");
  const PolicyDecision decision = manager.query(flow_for_user("alice"));
  EXPECT_EQ(decision.action, PolicyAction::kAllow);
  EXPECT_EQ(decision.rule_id, high);
}

TEST(PolicyIndexTest, PolicyEpochBumpsOnInsertAndRevokeOnly) {
  MessageBus bus;
  PolicyManager manager(bus);
  const std::uint64_t e0 = manager.epoch();
  const PolicyRuleId id = manager.insert(PolicyRule{}, PdpPriority{10}, "t");
  EXPECT_GT(manager.epoch(), e0);
  const std::uint64_t e1 = manager.epoch();
  manager.query(flow_for_user("alice"));  // queries never bump
  EXPECT_EQ(manager.epoch(), e1);
  EXPECT_TRUE(manager.revoke(id));
  EXPECT_GT(manager.epoch(), e1);
  const std::uint64_t e2 = manager.epoch();
  EXPECT_FALSE(manager.revoke(id));  // failed revoke: no state change
  EXPECT_EQ(manager.epoch(), e2);
}

}  // namespace
}  // namespace dfi
