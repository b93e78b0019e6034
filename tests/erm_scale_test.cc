// Scale tests for the compact entity plane: load an enterprise-scale
// binding population (testbed/scale_generator.h) through the ERM and check
// correctness properties that only show up at volume.
//
// Labeled `scale` in CMake. The population is env-bounded so the same
// binary serves PR CI and the nightly full run:
//   DFI_SCALE_ENTITIES=50000    (PR CI; the default here is smaller still)
//   DFI_SCALE_ENTITIES=1000000  (nightly)
#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "bus/message_bus.h"
#include "core/entity_resolution.h"
#include "testbed/scale_generator.h"

namespace dfi {
namespace {

std::uint32_t scale_hosts() {
  // Entities ~= 4x hosts. Default keeps the un-parameterized ctest run
  // quick; CI raises it via the environment.
  std::size_t entities = 20000;
  if (const char* env = std::getenv("DFI_SCALE_ENTITIES")) {
    entities = std::strtoull(env, nullptr, 10);
  }
  return static_cast<std::uint32_t>(entities / 4);
}

class ErmScaleTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ScaleConfig config;
    config.hosts = scale_hosts();
    gen_ = std::make_unique<ScaleGenerator>(config);
    erm_ = std::make_unique<EntityResolutionManager>(bus_);
    gen_->emit_initial_bindings(
        [&](const BindingEvent& event) { erm_->apply(event); });
  }

  MessageBus bus_;
  std::unique_ptr<ScaleGenerator> gen_;
  std::unique_ptr<EntityResolutionManager> erm_;
};

TEST_F(ErmScaleTest, BindingCountMatchesGenerator) {
  EXPECT_EQ(erm_->binding_count(), gen_->initial_binding_count());
  // Four populated namespaces, sized by the population.
  const EntityInterner& interner = erm_->interner();
  EXPECT_EQ(interner.macs().size(), gen_->config().hosts);
  EXPECT_GE(interner.hosts().size(), gen_->config().hosts);
  EXPECT_EQ(interner.users().size(), gen_->config().hosts);
}

TEST_F(ErmScaleTest, EnrichmentCorrectAcrossThePopulation) {
  const ErmSnapshot snap = erm_->snapshot_view();
  const std::uint32_t hosts = gen_->config().hosts;
  for (std::uint32_t h = 0; h < hosts; h += 997) {
    EndpointView view;
    view.ip = gen_->ip_of(h);
    const EndpointView enriched = snap.enrich(std::move(view));
    ASSERT_FALSE(enriched.hostnames.empty()) << "host " << h;
    EXPECT_EQ(enriched.hostnames.front().value, gen_->host_name(h));
    ASSERT_FALSE(enriched.usernames.empty()) << "host " << h;
    // The host's own primary user is always present.
    bool found = false;
    for (const Username& user : enriched.usernames) {
      found |= user.value == gen_->user_name(h);
    }
    EXPECT_TRUE(found) << "host " << h;
  }
}

TEST_F(ErmScaleTest, SpoofValidationAtScale) {
  const ErmSnapshot snap = erm_->snapshot_view();
  const std::uint32_t hosts = gen_->config().hosts;
  for (std::uint32_t h = 0; h < hosts; h += 1009) {
    // Correct IP<->MAC pairing passes; a neighbor's MAC is spoofing.
    EXPECT_FALSE(
        snap.validate_identity(gen_->mac_of(h), gen_->ip_of(h)).spoofed);
    const std::uint32_t other = (h + 1) % hosts;
    EXPECT_TRUE(
        snap.validate_identity(gen_->mac_of(other), gen_->ip_of(h)).spoofed);
  }
}

// Inner levels of a CowRadixMap holding the ids below `ids`: a root at
// height h covers the ids below 32^(h + 1), and a non-empty tree has one.
std::uint64_t radix_height(std::uint64_t ids) {
  std::uint64_t height = 1;
  for (std::uint64_t covered = 32 * 32; covered < ids; covered *= 32) ++height;
  return height;
}

TEST_F(ErmScaleTest, IncrementalPublicationIsOChanged) {
  // Hold one snapshot of the loaded state, then run a churn storm with a
  // publication after every event. Each publish clones exactly the tree
  // paths the event wrote — never a table-sized amount.
  (void)erm_->snapshot_view();
  const std::uint64_t pages_at_load = erm_->cow_stats().page_copies;

  constexpr std::uint32_t kEvents = 200;
  std::uint32_t applied = 0;
  gen_->emit_logon_storm(0, kEvents / 2, 1, [&](const BindingEvent& event) {
    erm_->apply(event);
    (void)erm_->snapshot_view();
    ++applied;
  });
  const std::uint64_t pages_churn = erm_->cow_stats().page_copies - pages_at_load;
  // Each user-host event rewrites one posting list in user_to_hosts (keyed
  // by user ids) and one in host_to_users (keyed by host ids), cloning one
  // node per level of each: 6 nodes up to 32k ids, 8 up to 1M. O(total)
  // would be thousands of times larger at scale.
  const EntityInterner& interner = erm_->interner();
  const std::uint64_t path_nodes = radix_height(interner.users().size()) + 1 +
                                   radix_height(interner.hosts().size()) + 1;
  EXPECT_EQ(pages_churn, std::uint64_t{applied} * path_nodes);
  EXPECT_GT(applied, 0u);
}

TEST_F(ErmScaleTest, HeldSnapshotUnchangedByChurnStorms) {
  const std::uint32_t hosts = gen_->config().hosts;
  // Odd index: not an alias host, so after the rollover nothing else is
  // bound to its old primary IP.
  const std::uint32_t probe = (hosts / 2) | 1u;
  const ErmSnapshot before = erm_->snapshot_view();
  const std::uint64_t epoch_before = before.epoch();

  // DHCP rollover + mobility + logon churn over the whole population.
  const auto apply = [&](const BindingEvent& event) { erm_->apply(event); };
  gen_->emit_dhcp_rollover(0, hosts, true, apply);
  gen_->emit_logon_storm(0, hosts, 3, apply);
  gen_->emit_host_mobility(0, hosts, 1, apply);

  // The held snapshot still answers from the pre-churn world.
  EXPECT_EQ(before.epoch(), epoch_before);
  EndpointView view;
  view.ip = gen_->ip_of(probe);
  const EndpointView enriched = before.enrich(std::move(view));
  ASSERT_FALSE(enriched.hostnames.empty());
  EXPECT_EQ(enriched.hostnames.front().value, gen_->host_name(probe));
  EXPECT_FALSE(
      before.validate_identity(gen_->mac_of(probe), gen_->ip_of(probe)).spoofed);

  // The live ERM moved on: the primary lease is gone (rolled to the
  // alternate pool), so the old pairing no longer validates as bound.
  const ErmSnapshot after = erm_->snapshot_view();
  EXPECT_GT(after.epoch(), epoch_before);
  EndpointView live_view;
  live_view.ip = gen_->ip_of(probe);
  EXPECT_TRUE(after.enrich(std::move(live_view)).hostnames.empty());
}

TEST_F(ErmScaleTest, RolloverKeepsIdentityConsistent) {
  const std::uint32_t hosts = gen_->config().hosts;
  const auto apply = [&](const BindingEvent& event) { erm_->apply(event); };
  gen_->emit_dhcp_rollover(0, hosts, true, apply);
  const ErmSnapshot snap = erm_->snapshot_view();
  for (std::uint32_t h = 0; h < hosts; h += 1013) {
    // New lease enriches to the same hostname.
    EndpointView view;
    view.ip = Ipv4Address((11u << 24) + h);  // alternate pool
    const EndpointView enriched = snap.enrich(std::move(view));
    ASSERT_FALSE(enriched.hostnames.empty()) << "host " << h;
    EXPECT_EQ(enriched.hostnames.front().value, gen_->host_name(h));
  }
}

}  // namespace
}  // namespace dfi
