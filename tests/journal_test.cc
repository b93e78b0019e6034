// Tests for the durable write-ahead journal (core/journal.h): framing,
// torn-tail recovery, crash-during-append semantics, snapshot+compaction
// atomicity, and exact id/epoch restoration.
#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "bus/message_bus.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "core/health_monitor.h"
#include "core/journal.h"
#include "core/persistence.h"
#include "sim/simulator.h"

namespace dfi {
namespace {

PolicyRule make_rule(std::uint8_t octet, PolicyAction action) {
  PolicyRule rule;
  rule.action = action;
  rule.properties.ether_type = 0x0800;
  rule.source.ip = Ipv4Address(10, 0, 0, octet);
  rule.source.user = Username{"user" + std::to_string(octet)};
  rule.destination.l4_port = static_cast<std::uint16_t>(1000 + octet);
  return rule;
}

BindingEvent make_binding(BindingKind kind, std::uint8_t octet) {
  BindingEvent event;
  event.kind = kind;
  event.user = Username{"user" + std::to_string(octet)};
  event.host = Hostname{"host" + std::to_string(octet)};
  event.ip = Ipv4Address(10, 0, 0, octet);
  event.mac = MacAddress::from_u64(0xa000 + octet);
  event.dpid = Dpid{1};
  event.port = PortNo{octet};
  return event;
}

// A journaled control-plane store: bus + managers wired to one journal.
struct Plane {
  explicit Plane(Journal* journal = nullptr)
      : manager(bus), erm(bus) {
    if (journal != nullptr) {
      manager.attach_journal(journal);
      erm.attach_journal(journal);
    }
  }

  // Byte-exact logical state, for oracle comparison.
  std::string image() const { return save_policies(manager) + "=== " + save_bindings(erm); }

  MessageBus bus;
  PolicyManager manager;
  EntityResolutionManager erm;
};

// Apply a fixed op script; `upto` limits how many ops run (for prefix
// oracles). Returns the number of ops in the script.
std::size_t run_script(Plane& plane, std::size_t upto = SIZE_MAX) {
  std::size_t op = 0;
  std::vector<PolicyRuleId> ids;
  const auto step = [&](auto&& fn) {
    if (op < upto) fn();
    ++op;
  };
  step([&] { ids.push_back(plane.manager.insert(make_rule(1, PolicyAction::kAllow), PdpPriority{10}, "pdp-a")); });
  step([&] { plane.erm.apply(make_binding(BindingKind::kUserHost, 1)); });
  step([&] { ids.push_back(plane.manager.insert(make_rule(2, PolicyAction::kDeny), PdpPriority{20}, "pdp-b")); });
  step([&] { plane.erm.apply(make_binding(BindingKind::kHostIp, 1)); });
  step([&] { ids.push_back(plane.manager.insert(make_rule(3, PolicyAction::kAllow), PdpPriority{20}, "pdp-b")); });
  step([&] {
    if (ids.size() > 1) plane.manager.revoke(ids[1]);
  });
  step([&] { plane.erm.apply(make_binding(BindingKind::kIpMac, 2)); });
  step([&] {
    BindingEvent retract = make_binding(BindingKind::kUserHost, 1);
    retract.retracted = true;
    plane.erm.apply(retract);
  });
  step([&] { ids.push_back(plane.manager.insert(make_rule(4, PolicyAction::kDeny), PdpPriority{5}, "pdp-c")); });
  step([&] { plane.erm.apply(make_binding(BindingKind::kMacLocation, 2)); });
  return op;
}

TEST(Journal, RecoverReproducesStateIdsAndEpochs) {
  InMemoryJournalStore store;
  Journal journal(store);
  Plane sut(&journal);
  run_script(sut);

  Plane oracle;
  run_script(oracle);

  Plane recovered;
  Journal reader(store);
  const auto recovery = reader.recover(recovered.manager, recovered.erm);
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  EXPECT_FALSE(recovery.value().tail_truncated);
  EXPECT_FALSE(recovery.value().snapshot_loaded);
  EXPECT_GT(recovery.value().records_replayed, 0u);

  EXPECT_EQ(recovered.image(), oracle.image());
  EXPECT_EQ(recovered.manager.epoch(), oracle.manager.epoch());
  EXPECT_EQ(recovered.erm.epoch(), oracle.erm.epoch());
  EXPECT_EQ(recovered.manager.next_id(), oracle.manager.next_id());

  // Ids survive exactly (Table-0 cookies cite them).
  const auto sut_rules = sut.manager.rules();
  const auto rec_rules = recovered.manager.rules();
  ASSERT_EQ(sut_rules.size(), rec_rules.size());
  for (std::size_t i = 0; i < sut_rules.size(); ++i) {
    EXPECT_EQ(sut_rules[i].id, rec_rules[i].id);
    EXPECT_EQ(sut_rules[i].pdp_name, rec_rules[i].pdp_name);
  }
}

TEST(Journal, TornTailSweepRecoversLongestValidPrefix) {
  // Build the full log once, note each record boundary, then recover from
  // every possible byte-level cut of the image. The recovered state must
  // equal the oracle that ran exactly the ops whose records fit the cut.
  InMemoryJournalStore full_store;
  Journal full_journal(full_store);
  Plane full(&full_journal);
  const std::size_t op_count = run_script(full);
  const std::vector<std::uint8_t> image = full_store.read_all();

  // Frame boundaries: record k ends at ends[k].
  std::vector<std::size_t> ends;
  std::size_t offset = 0;
  while (image.size() - offset >= 8) {
    const std::uint32_t length = image[offset] |
                                 (image[offset + 1] << 8) |
                                 (image[offset + 2] << 16) |
                                 (static_cast<std::uint32_t>(image[offset + 3]) << 24);
    offset += 8u + length;
    ASSERT_LE(offset, image.size());
    ends.push_back(offset);
  }
  ASSERT_EQ(ends.size(), op_count);  // one record per op in this script

  for (std::size_t cut = 0; cut <= image.size(); ++cut) {
    // How many records survive a cut at this byte?
    std::size_t complete = 0;
    while (complete < ends.size() && ends[complete] <= cut) ++complete;

    InMemoryJournalStore store;
    store.append(image.data(), cut);  // preload the truncated image
    Plane recovered;
    Journal reader(store);
    const auto recovery = reader.recover(recovered.manager, recovered.erm);
    ASSERT_TRUE(recovery.ok()) << "cut " << cut << ": " << recovery.error().message;
    const std::size_t last_end = complete == 0 ? 0 : ends[complete - 1];
    EXPECT_EQ(recovery.value().records_replayed, complete) << "cut " << cut;
    EXPECT_EQ(recovery.value().tail_truncated, cut > last_end) << "cut " << cut;

    Plane oracle;
    run_script(oracle, complete);
    EXPECT_EQ(recovered.image(), oracle.image()) << "cut " << cut;
    EXPECT_EQ(recovered.manager.epoch(), oracle.manager.epoch()) << "cut " << cut;
    EXPECT_EQ(recovered.erm.epoch(), oracle.erm.epoch()) << "cut " << cut;
    EXPECT_EQ(store.size(), last_end) << "cut " << cut;
  }
}

TEST(Journal, CrashMidAppendLosesTheOpUnlessFullyDurable) {
  // The WAL boundary op is ambiguous by design: a crash mid-append loses
  // the op (its record is torn, CRC fails, recovery truncates it) — unless
  // the tear kept 100% of the bytes, in which case the record is durable
  // and recovery correctly replays an op the crashed process never got to
  // apply in memory. Both worlds must be internally consistent.
  for (const double tear : {0.0, 0.3, 0.5, 1.0}) {
    InMemoryJournalStore store;
    Journal journal(store);
    Plane sut(&journal);

    sut.manager.insert(make_rule(1, PolicyAction::kAllow), PdpPriority{10}, "pdp-a");
    sut.erm.apply(make_binding(BindingKind::kUserHost, 1));

    Plane oracle;
    oracle.manager.insert(make_rule(1, PolicyAction::kAllow), PdpPriority{10}, "pdp-a");
    oracle.erm.apply(make_binding(BindingKind::kUserHost, 1));

    CrashPoint point;
    point.armed = true;
    point.ops_remaining = 0;
    point.tear_fraction = tear;
    store.arm_crash(point);

    const std::uint64_t next_before = sut.manager.next_id();
    const std::uint64_t epoch_before = sut.manager.epoch();
    EXPECT_THROW(sut.manager.insert(make_rule(2, PolicyAction::kDeny), PdpPriority{20},
                                    "pdp-b"),
                 CrashException)
        << "tear " << tear;
    // WAL ordering: the append threw, so the crashed process never applied
    // the insert — no id consumed, no epoch moved, no rule stored.
    EXPECT_EQ(sut.manager.next_id(), next_before);
    EXPECT_EQ(sut.manager.epoch(), epoch_before);
    EXPECT_EQ(sut.manager.size(), 1u);

    const bool fully_durable = tear >= 1.0;
    if (fully_durable) {
      // The record made it down intact: recovery must replay the insert,
      // with the id the crashed process would have assigned.
      oracle.manager.insert(make_rule(2, PolicyAction::kDeny), PdpPriority{20},
                            "pdp-b");
    }

    Plane recovered;
    Journal reader(store);
    const auto recovery = reader.recover(recovered.manager, recovered.erm);
    ASSERT_TRUE(recovery.ok()) << recovery.error().message;
    EXPECT_EQ(recovery.value().tail_truncated, tear > 0.0 && tear < 1.0);
    EXPECT_EQ(recovered.image(), oracle.image()) << "tear " << tear;
    EXPECT_EQ(recovered.manager.next_id(), oracle.manager.next_id());
    EXPECT_EQ(recovered.manager.epoch(), oracle.manager.epoch()) << "tear " << tear;
  }
}

TEST(Journal, CrashDuringSyncKeepsTheDurableRecord) {
  // sync() crashing loses no appended bytes in this model: the op's record
  // is already in the image, so recovery replays it even though the
  // crashed process never applied it.
  InMemoryJournalStore store;
  Journal journal(store);
  Plane sut(&journal);
  sut.manager.insert(make_rule(1, PolicyAction::kAllow), PdpPriority{10}, "pdp-a");

  CrashPoint point;
  point.armed = true;
  point.ops_remaining = 1;  // op 0 = append, op 1 = sync
  store.arm_crash(point);
  EXPECT_THROW(
      sut.manager.insert(make_rule(2, PolicyAction::kDeny), PdpPriority{20}, "pdp-b"),
      CrashException);
  EXPECT_EQ(sut.manager.size(), 1u);  // in-memory: never applied

  Plane oracle;
  oracle.manager.insert(make_rule(1, PolicyAction::kAllow), PdpPriority{10}, "pdp-a");
  oracle.manager.insert(make_rule(2, PolicyAction::kDeny), PdpPriority{20}, "pdp-b");

  Plane recovered;
  Journal reader(store);
  const auto recovery = reader.recover(recovered.manager, recovered.erm);
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  EXPECT_FALSE(recovery.value().tail_truncated);
  EXPECT_EQ(recovered.image(), oracle.image());
  EXPECT_EQ(recovered.manager.epoch(), oracle.manager.epoch());
}

TEST(Journal, CompactionRoundTripAndTailReplay) {
  InMemoryJournalStore store;
  Journal journal(store);
  Plane sut(&journal);
  run_script(sut);

  const std::size_t before = store.size();
  ASSERT_TRUE(journal.compact(sut.manager, sut.erm).ok());
  EXPECT_LT(store.size(), before);  // ten records down to one snapshot

  // Post-compaction mutations land as WAL tail after the snapshot.
  sut.manager.insert(make_rule(9, PolicyAction::kAllow), PdpPriority{99}, "pdp-z");
  sut.erm.apply(make_binding(BindingKind::kHostIp, 9));

  Plane recovered;
  Journal reader(store);
  const auto recovery = reader.recover(recovered.manager, recovered.erm);
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  EXPECT_TRUE(recovery.value().snapshot_loaded);
  EXPECT_EQ(recovery.value().records_replayed, 3u);  // snapshot + two ops

  EXPECT_EQ(recovered.image(), sut.image());
  EXPECT_EQ(recovered.manager.epoch(), sut.manager.epoch());
  EXPECT_EQ(recovered.erm.epoch(), sut.erm.epoch());
  EXPECT_EQ(recovered.manager.next_id(), sut.manager.next_id());
  const auto sut_rules = sut.manager.rules();
  const auto rec_rules = recovered.manager.rules();
  ASSERT_EQ(sut_rules.size(), rec_rules.size());
  for (std::size_t i = 0; i < sut_rules.size(); ++i) {
    EXPECT_EQ(sut_rules[i].id, rec_rules[i].id);
  }
}

TEST(Journal, CrashDuringCompactionLeavesOldOrNewImageNeverAMix) {
  for (const bool survives : {false, true}) {
    InMemoryJournalStore store;
    Journal journal(store);
    Plane sut(&journal);
    run_script(sut);

    // Compaction's durable ops: append_rewrite (op 0), commit_rewrite (op 1).
    CrashPoint point;
    point.armed = true;
    point.ops_remaining = 1;
    point.commit_survives = survives;
    store.arm_crash(point);
    EXPECT_THROW(journal.compact(sut.manager, sut.erm), CrashException);

    Plane recovered;
    Journal reader(store);
    const auto recovery = reader.recover(recovered.manager, recovered.erm);
    ASSERT_TRUE(recovery.ok()) << recovery.error().message;
    EXPECT_EQ(recovery.value().snapshot_loaded, survives);
    EXPECT_FALSE(recovery.value().tail_truncated);
    // Either way the logical state is intact.
    EXPECT_EQ(recovered.image(), sut.image());
    EXPECT_EQ(recovered.manager.epoch(), sut.manager.epoch());
    EXPECT_EQ(recovered.erm.epoch(), sut.erm.epoch());
    EXPECT_EQ(recovered.manager.next_id(), sut.manager.next_id());
  }
}

TEST(Journal, CrashDuringRewriteStagingKeepsOldImage) {
  InMemoryJournalStore store;
  Journal journal(store);
  Plane sut(&journal);
  run_script(sut);
  const std::vector<std::uint8_t> before = store.read_all();

  CrashPoint point;
  point.armed = true;
  point.ops_remaining = 0;  // lands on append_rewrite
  store.arm_crash(point);
  EXPECT_THROW(journal.compact(sut.manager, sut.erm), CrashException);
  EXPECT_EQ(store.read_all(), before);  // staged image died with the process
}

TEST(Journal, RejectsCorruptRecordWithPosition) {
  InMemoryJournalStore store;
  Journal journal(store);
  Plane sut(&journal);
  sut.manager.insert(make_rule(1, PolicyAction::kAllow), PdpPriority{10}, "pdp-a");

  // Hand-frame a record that passes the CRC but has an unknown type: this
  // is corruption beyond torn-tail tolerance and must be a hard error.
  const std::string payload = "x|garbage";
  std::string framed;
  const auto put = [&framed](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) framed += static_cast<char>((v >> (8 * i)) & 0xff);
  };
  put(static_cast<std::uint32_t>(payload.size()));
  put(crc32(reinterpret_cast<const std::uint8_t*>(payload.data()), payload.size()));
  framed += payload;
  store.append(reinterpret_cast<const std::uint8_t*>(framed.data()), framed.size());

  Plane recovered;
  Journal reader(store);
  const auto recovery = reader.recover(recovered.manager, recovered.erm);
  ASSERT_FALSE(recovery.ok());
  EXPECT_NE(recovery.error().message.find("record 1"), std::string::npos)
      << recovery.error().message;
}

TEST(Journal, FileStoreRoundTripAndCompaction) {
  const std::string path = ::testing::TempDir() + "dfi_journal_test.wal";
  std::remove(path.c_str());

  Plane oracle;
  run_script(oracle);
  {
    FileJournalStore store(path);
    Journal journal(store);
    Plane sut(&journal);
    run_script(sut);
    ASSERT_TRUE(journal.compact(sut.manager, sut.erm).ok());
    sut.manager.insert(make_rule(9, PolicyAction::kAllow), PdpPriority{99}, "pdp-z");
    oracle.manager.insert(make_rule(9, PolicyAction::kAllow), PdpPriority{99}, "pdp-z");
  }

  // A fresh process: new store object on the same path.
  FileJournalStore store(path);
  Journal reader(store);
  Plane recovered;
  const auto recovery = reader.recover(recovered.manager, recovered.erm);
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  EXPECT_TRUE(recovery.value().snapshot_loaded);
  EXPECT_EQ(recovered.image(), oracle.image());
  EXPECT_EQ(recovered.manager.epoch(), oracle.manager.epoch());
  EXPECT_EQ(recovered.erm.epoch(), oracle.erm.epoch());
  std::remove(path.c_str());
}

TEST(Journal, FileStoreTruncatesTornTailOnDisk) {
  const std::string path = ::testing::TempDir() + "dfi_journal_torn.wal";
  std::remove(path.c_str());
  {
    FileJournalStore store(path);
    Journal journal(store);
    Plane sut(&journal);
    run_script(sut);
    // Simulate a torn final write: append half a garbage frame.
    const std::uint8_t torn[5] = {0xff, 0xff, 0x00, 0x00, 0x42};
    store.append(torn, sizeof(torn));
  }
  FileJournalStore store(path);
  Journal reader(store);
  Plane recovered;
  const auto recovery = reader.recover(recovered.manager, recovered.erm);
  ASSERT_TRUE(recovery.ok()) << recovery.error().message;
  EXPECT_TRUE(recovery.value().tail_truncated);
  EXPECT_EQ(recovery.value().bytes_discarded, 5u);

  Plane oracle;
  run_script(oracle);
  EXPECT_EQ(recovered.image(), oracle.image());

  // The truncation is durable: a third open sees a clean log.
  FileJournalStore store2(path);
  Journal reader2(store2);
  Plane recovered2;
  const auto recovery2 = reader2.recover(recovered2.manager, recovered2.erm);
  ASSERT_TRUE(recovery2.ok());
  EXPECT_FALSE(recovery2.value().tail_truncated);
  std::remove(path.c_str());
}

TEST(Journal, FenceEpochPersistsAcrossRecoveryAndCompaction) {
  InMemoryJournalStore store;
  Journal journal(store);
  Plane sut(&journal);
  run_script(sut, 4);
  ASSERT_TRUE(journal.set_fence_epoch(3).ok());
  run_script(sut);  // more appends after the fence record
  EXPECT_EQ(journal.fence_epoch(), 3u);
  EXPECT_EQ(journal.stats().fence_bumps, 1u);

  Plane recovered;
  Journal reader(store);
  ASSERT_TRUE(reader.recover(recovered.manager, recovered.erm).ok());
  EXPECT_EQ(reader.fence_epoch(), 3u);
  EXPECT_FALSE(reader.fenced_out());

  // Compaction carries the fence into the rewritten image.
  ASSERT_TRUE(reader.compact(recovered.manager, recovered.erm).ok());
  Plane again;
  Journal reader2(store);
  ASSERT_TRUE(reader2.recover(again.manager, again.erm).ok());
  EXPECT_EQ(reader2.fence_epoch(), 3u);
  EXPECT_EQ(again.image(), recovered.image());
}

TEST(Journal, FencedOutAppendRefusesAndMutatesNothing) {
  InMemoryJournalStore store;
  Journal journal(store);
  Plane sut(&journal);
  run_script(sut, 3);
  const std::string before = sut.image();
  const std::size_t bytes_before = store.size();

  // A higher epoch arrives from the promoted survivor: this journal's
  // owner was deposed. Every mutation must fail closed.
  journal.observe_fence(journal.fence_epoch() + 1);
  ASSERT_TRUE(journal.fenced_out());
  EXPECT_THROW(
      sut.manager.insert(make_rule(7, PolicyAction::kDeny), PdpPriority{7}, "pdp-x"),
      FencedException);
  BindingEvent event = make_binding(BindingKind::kUserHost, 9);
  EXPECT_THROW(sut.erm.apply(event), FencedException);
  EXPECT_EQ(sut.image(), before);
  EXPECT_EQ(store.size(), bytes_before);  // nothing durable either
  EXPECT_EQ(journal.stats().fenced_appends, 2u);

  // Adopting an epoch at or above everything observed clears the fence
  // (this is what promotion does).
  ASSERT_TRUE(journal.set_fence_epoch(journal.observed_fence() + 1).ok());
  EXPECT_FALSE(journal.fenced_out());
  sut.manager.insert(make_rule(7, PolicyAction::kDeny), PdpPriority{7}, "pdp-x");
  EXPECT_NE(sut.image(), before);
}

TEST(Journal, FenceEpochMayNotRegress) {
  InMemoryJournalStore store;
  Journal journal(store);
  ASSERT_TRUE(journal.set_fence_epoch(5).ok());
  EXPECT_FALSE(journal.set_fence_epoch(4).ok());
  EXPECT_TRUE(journal.set_fence_epoch(5).ok());  // idempotent, no new record
  EXPECT_EQ(journal.stats().fence_bumps, 1u);
}

TEST(Journal, IngestReplicatedMirrorsPeerAppends) {
  // Primary: journaled plane whose append observer captures every record.
  InMemoryJournalStore primary_store;
  Journal primary_journal(primary_store);
  std::vector<std::string> shipped;
  primary_journal.set_append_observer(
      [&](const std::string& payload) { shipped.push_back(payload); });
  Plane primary(&primary_journal);
  run_script(primary);
  ASSERT_FALSE(shipped.empty());

  // Standby: fresh plane; ingest each record through the WAL-first path.
  InMemoryJournalStore standby_store;
  Journal standby_journal(standby_store);
  Plane standby;
  for (const std::string& payload : shipped) {
    ASSERT_TRUE(
        standby_journal.ingest_replicated(payload, standby.manager, standby.erm).ok());
  }
  EXPECT_EQ(standby.image(), primary.image());
  EXPECT_EQ(standby.manager.epoch(), primary.manager.epoch());
  EXPECT_EQ(standby.erm.epoch(), primary.erm.epoch());
  EXPECT_EQ(standby.manager.next_id(), primary.manager.next_id());

  // The standby's own journal is a valid WAL: recovery reproduces the
  // same bytes (byte-identical promotion).
  Plane recovered;
  Journal reader(standby_store);
  ASSERT_TRUE(reader.recover(recovered.manager, recovered.erm).ok());
  EXPECT_EQ(recovered.image(), primary.image());
}

TEST(Journal, InstallSnapshotBootstrapsFreshPlane) {
  InMemoryJournalStore primary_store;
  Journal primary_journal(primary_store);
  Plane primary(&primary_journal);
  run_script(primary);
  ASSERT_TRUE(primary_journal.set_fence_epoch(2).ok());
  const std::string snapshot = Journal::snapshot_payload(primary.manager, primary.erm);

  InMemoryJournalStore standby_store;
  Journal standby_journal(standby_store);
  Plane standby;
  ASSERT_TRUE(standby_journal
                  .install_snapshot(snapshot, primary_journal.fence_epoch(),
                                    standby.manager, standby.erm)
                  .ok());
  EXPECT_EQ(standby.image(), primary.image());
  EXPECT_EQ(standby.manager.next_id(), primary.manager.next_id());
  EXPECT_EQ(standby_journal.fence_epoch(), 2u);

  // Restart of the bootstrapped standby lands on the same state.
  Plane recovered;
  Journal reader(standby_store);
  ASSERT_TRUE(reader.recover(recovered.manager, recovered.erm).ok());
  EXPECT_EQ(recovered.image(), primary.image());
  EXPECT_EQ(reader.fence_epoch(), 2u);
}

TEST(Journal, FileStoreIoFailureOpensDegradedWindow) {
  // A store whose file cannot be opened fails every durable op; with a
  // HealthMonitor attached that surfaces as a journal-io degraded window
  // instead of a log line.
  Simulator sim;
  MessageBus bus;
  HealthConfig config;
  config.enabled = true;
  config.recovering_hold = milliseconds(0);
  HealthMonitor health(sim.clock(), bus, config, Rng(7));

  const std::string path = ::testing::TempDir() + "no_such_dir_dfi/j.wal";
  FileJournalStore store(path);
  store.attach_health(&health);
  EXPECT_EQ(health.state(), HealthState::kHealthy);

  const std::uint8_t bytes[4] = {1, 2, 3, 4};
  store.append(bytes, sizeof(bytes));
  EXPECT_TRUE(store.io_degraded());
  EXPECT_GE(store.io_failures(), 1u);
  EXPECT_EQ(health.state(), HealthState::kDegraded);

  // Repeated failures keep ONE window open (ref-counted, not stacked).
  store.sync();
  store.append(bytes, sizeof(bytes));
  EXPECT_EQ(health.degraded_refs(), 1u);

  // Detaching (or destruction) balances the window.
  store.attach_health(nullptr);
  EXPECT_EQ(health.degraded_refs(), 0u);
}

TEST(Journal, FileStoreRecoversHealthAfterSuccessfulDurableOp) {
  Simulator sim;
  MessageBus bus;
  HealthConfig config;
  config.enabled = true;
  config.recovering_hold = milliseconds(0);
  HealthMonitor health(sim.clock(), bus, config, Rng(7));

  const std::string path = ::testing::TempDir() + "dfi_journal_health.wal";
  std::remove(path.c_str());
  FileJournalStore store(path);
  store.attach_health(&health);

  // Healthy path: append+sync works, no window ever opens.
  const std::uint8_t bytes[4] = {9, 9, 9, 9};
  store.append(bytes, sizeof(bytes));
  store.sync();
  EXPECT_FALSE(store.io_degraded());
  EXPECT_EQ(store.io_failures(), 0u);
  EXPECT_EQ(health.state(), HealthState::kHealthy);
  std::remove(path.c_str());
}

TEST(Journal, LoadersHonorEpochFloor) {
  Plane source;
  run_script(source);
  const std::string policies = save_policies(source.manager);
  const std::string bindings = save_bindings(source.erm);

  // Plain load lands wherever replaying the surviving state lands —
  // behind the live epochs (revocations and retractions are gone).
  Plane plain;
  ASSERT_TRUE(load_policies(plain.manager, policies).ok());
  ASSERT_TRUE(load_bindings(plain.erm, bindings).ok());
  EXPECT_LT(plain.manager.epoch(), source.manager.epoch());

  // With the floor, the epoch can never fall behind the pre-restart value.
  Plane floored;
  ASSERT_TRUE(load_policies(floored.manager, policies, source.manager.epoch()).ok());
  ASSERT_TRUE(load_bindings(floored.erm, bindings, source.erm.epoch()).ok());
  EXPECT_EQ(floored.manager.epoch(), source.manager.epoch());
  EXPECT_EQ(floored.erm.epoch(), source.erm.epoch());
}

}  // namespace
}  // namespace dfi
