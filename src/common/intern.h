// Arena string/value interner with small dense entity ids.
//
// The million-entity ERM (DESIGN.md §8) cannot key its binding tables on
// heap strings: every map node then carries a 32+-byte key, every probe
// hashes the full string, and enrichment output ordering needs ordered sets
// of strings. Instead, every entity named anywhere in the identity plane is
// interned once into a per-kind namespace (user / host / IP / MAC) and from
// then on travels as a dense 32-bit `EntityId` — small enough to pack into
// posting lists, to key copy-on-write radix trees (common/cow_table.h)
// whose nodes it fills densely, and to mark in a scratch bitmap during
// enrichment dedup.
//
// Id contract:
//   * ids are dense: the k-th distinct entity interned into a namespace
//     gets id k, forever — ids are never reused or re-assigned, so an id
//     captured inside a published ErmSnapshot stays valid (and means the
//     same string) across every later epoch.
//   * namespaces are independent: interning "alice" as a user and "alice"
//     as a host yields two unrelated ids.
//
// Concurrency contract (mirrors common/snapshot.h): exactly one writer —
// the control thread — ever calls intern() and the interners' own find().
// Concurrent readers (PCP shard workers enriching against a published
// ErmSnapshot) may call
//   * view()/key() for any id they obtained from a published snapshot or
//     from a lookup table capture, and
//   * find() through a `ValueInterner::Reader` captured on the control
//     thread at snapshot time (the snapshot's IP lookup).
// Entry storage is chunked with atomically published chunk pointers and
// the lookup table uses open-addressing slots published with release
// stores, so readers never observe a partially initialized entry. Growth
// rehashes into a fresh table; readers holding the previous capture simply
// miss entries interned after their snapshot, which is exactly what their
// snapshot's binding tables answer anyway. Users and hosts are only ever
// resolved name -> id on the control thread, so StringInterner has no
// reader capture.
#pragma once

#include <atomic>
#include <array>
#include <cstdint>
#include <cstring>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/hash.h"

namespace dfi {

// Dense identifier of one interned entity within one namespace.
struct EntityId {
  static constexpr std::uint32_t kInvalid = 0xffffffffu;
  std::uint32_t value = kInvalid;

  bool valid() const { return value != kInvalid; }
  friend auto operator<=>(const EntityId&, const EntityId&) = default;
};

// The four identity-plane namespaces (paper Figure 3's identifier kinds).
enum class EntityKind : std::uint8_t { kUser = 0, kHost = 1, kIp = 2, kMac = 3 };

namespace intern_detail {

inline constexpr std::uint32_t kChunkShift = 12;  // 4096 entries per chunk
inline constexpr std::uint32_t kChunkSize = 1u << kChunkShift;
inline constexpr std::uint32_t kChunkMask = kChunkSize - 1;
inline constexpr std::uint32_t kMaxChunks = 1u << 12;  // 16M ids per namespace

// Open-addressing lookup table: slots hold id+1 (0 = empty), published with
// release stores so a reader that observes a slot also observes the entry
// it refers to. Append-only, no tombstones.
struct LookupTable {
  explicit LookupTable(std::uint32_t capacity_log2)
      : mask((1u << capacity_log2) - 1),
        slots(new std::atomic<std::uint32_t>[std::size_t{1} << capacity_log2]) {
    for (std::uint32_t i = 0; i <= mask; ++i) {
      slots[i].store(0, std::memory_order_relaxed);
    }
  }
  std::uint32_t mask;
  std::unique_ptr<std::atomic<std::uint32_t>[]> slots;
};

// Grow-only chunked entry store: entry k lives at chunks[k >> shift][k &
// mask]. Chunk pointers are published atomically once and never change, so
// readers index without touching any growable container.
template <typename Entry>
class ChunkedStore {
 public:
  ChunkedStore() {
    for (auto& chunk : chunks_) chunk.store(nullptr, std::memory_order_relaxed);
  }
  ~ChunkedStore() {
    for (auto& chunk : chunks_) delete[] chunk.load(std::memory_order_relaxed);
  }
  ChunkedStore(const ChunkedStore&) = delete;
  ChunkedStore& operator=(const ChunkedStore&) = delete;

  // Writer only: slot for the next entry at index `id`.
  Entry& writable(std::uint32_t id) {
    const std::uint32_t chunk_index = id >> kChunkShift;
    Entry* chunk = chunks_[chunk_index].load(std::memory_order_relaxed);
    if (chunk == nullptr) {
      chunk = new Entry[kChunkSize]();
      chunks_[chunk_index].store(chunk, std::memory_order_release);
    }
    return chunk[id & kChunkMask];
  }

  // Any thread, for ids published to it (snapshot handoff or table slot).
  const Entry& at(std::uint32_t id) const {
    const Entry* chunk = chunks_[id >> kChunkShift].load(std::memory_order_acquire);
    return chunk[id & kChunkMask];
  }

 private:
  std::array<std::atomic<Entry*>, kMaxChunks> chunks_;
};

}  // namespace intern_detail

// Interns strings into dense ids. The character data lives in append-only
// arena blocks owned by the interner, so `view()` results stay valid for
// the interner's lifetime.
class StringInterner {
 public:
  StringInterner() : table_(std::make_shared<intern_detail::LookupTable>(10)) {}
  StringInterner(const StringInterner&) = delete;
  StringInterner& operator=(const StringInterner&) = delete;

  // Writer only: id of `s`, interning it on first sight.
  EntityId intern(std::string_view s) {
    const std::uint64_t hash = hash_bytes(s.data(), s.size());
    if (const EntityId found = find_in(*table_, s, hash); found.valid()) return found;
    if ((size_ + 1) * 10 > (std::uint64_t{table_->mask} + 1) * 7) grow();
    const EntityId id{size_};
    Entry& entry = entries_.writable(id.value);
    entry.data = arena_append(s);
    entry.length = static_cast<std::uint32_t>(s.size());
    publish(*table_, id, hash);
    ++size_;
    return id;
  }

  // Writer thread (probes the current table).
  EntityId find(std::string_view s) const {
    return find_in(*table_, s, hash_bytes(s.data(), s.size()));
  }

  // Any thread, for any id obtained from a published structure.
  std::string_view view(EntityId id) const {
    const Entry& entry = entries_.at(id.value);
    return {entry.data, entry.length};
  }

  std::uint32_t size() const { return size_; }

 private:
  struct Entry {
    const char* data = nullptr;
    std::uint32_t length = 0;
  };

  EntityId find_in(const intern_detail::LookupTable& table, std::string_view s,
                   std::uint64_t hash) const {
    for (std::uint32_t probe = static_cast<std::uint32_t>(hash);;) {
      probe &= table.mask;
      const std::uint32_t slot = table.slots[probe].load(std::memory_order_acquire);
      if (slot == 0) return EntityId{};
      const EntityId id{slot - 1};
      if (view(id) == s) return id;
      ++probe;
    }
  }

  void publish(intern_detail::LookupTable& table, EntityId id, std::uint64_t hash) {
    for (std::uint32_t probe = static_cast<std::uint32_t>(hash);;) {
      probe &= table.mask;
      if (table.slots[probe].load(std::memory_order_relaxed) == 0) {
        table.slots[probe].store(id.value + 1, std::memory_order_release);
        return;
      }
      ++probe;
    }
  }

  void grow() {
    std::uint32_t log2 = 1;
    while ((1u << log2) <= table_->mask) ++log2;
    auto grown = std::make_shared<intern_detail::LookupTable>(log2 + 1);
    for (std::uint32_t id = 0; id < size_; ++id) {
      const std::string_view s = view(EntityId{id});
      publish(*grown, EntityId{id},
              hash_bytes(s.data(), s.size()));
    }
    // Readers holding the old table keep using it unharmed; new entries
    // from here on land only in the grown table.
    table_ = std::move(grown);
  }

  const char* arena_append(std::string_view s) {
    static constexpr std::size_t kBlockSize = 1u << 16;
    if (blocks_.empty() || block_used_ + s.size() > blocks_.back().second) {
      const std::size_t block = std::max(kBlockSize, s.size());
      blocks_.emplace_back(std::make_unique<char[]>(block), block);
      block_used_ = 0;
    }
    char* dest = blocks_.back().first.get() + block_used_;
    std::memcpy(dest, s.data(), s.size());
    block_used_ += s.size();
    return dest;
  }

  intern_detail::ChunkedStore<Entry> entries_;
  std::shared_ptr<intern_detail::LookupTable> table_;
  std::vector<std::pair<std::unique_ptr<char[]>, std::size_t>> blocks_;
  std::size_t block_used_ = 0;
  std::uint32_t size_ = 0;
};

// Interns fixed-width values (IPv4 addresses as u32, MACs as u48-in-u64)
// into dense ids, so the numeric namespaces get the same dense-id table and
// bitmap treatment as the string ones.
class ValueInterner {
 public:
  ValueInterner() : table_(std::make_shared<intern_detail::LookupTable>(10)) {}
  ValueInterner(const ValueInterner&) = delete;
  ValueInterner& operator=(const ValueInterner&) = delete;

  // Writer only.
  EntityId intern(std::uint64_t key) {
    if (const EntityId found = find_in(*table_, key); found.valid()) return found;
    if ((size_ + 1) * 10 > (std::uint64_t{table_->mask} + 1) * 7) grow();
    const EntityId id{size_};
    entries_.writable(id.value) = key;
    publish(*table_, id, key);
    ++size_;
    return id;
  }

  EntityId find(std::uint64_t key) const { return find_in(*table_, key); }

  std::uint64_t key(EntityId id) const { return entries_.at(id.value); }
  std::uint32_t size() const { return size_; }

  // Capture of the lookup table for concurrent readers. Take it on the
  // writer thread; find() through it from anywhere. Entries interned after
  // the capture may or may not be visible — both answers are consistent
  // with any snapshot taken at or before the capture.
  class Reader {
   public:
    Reader() = default;
    EntityId find(std::uint64_t key) const {
      if (owner_ == nullptr) return EntityId{};
      return owner_->find_in(*table_, key);
    }

   private:
    friend class ValueInterner;
    Reader(const ValueInterner* owner,
           std::shared_ptr<const intern_detail::LookupTable> table)
        : owner_(owner), table_(std::move(table)) {}
    const ValueInterner* owner_ = nullptr;
    std::shared_ptr<const intern_detail::LookupTable> table_;
  };

  // Writer only.
  Reader reader() const { return Reader(this, table_); }

 private:
  EntityId find_in(const intern_detail::LookupTable& table, std::uint64_t key) const {
    for (std::uint32_t probe = static_cast<std::uint32_t>(mix64(key));;) {
      probe &= table.mask;
      const std::uint32_t slot = table.slots[probe].load(std::memory_order_acquire);
      if (slot == 0) return EntityId{};
      const EntityId id{slot - 1};
      if (entries_.at(id.value) == key) return id;
      ++probe;
    }
  }

  void publish(intern_detail::LookupTable& table, EntityId id, std::uint64_t key) {
    for (std::uint32_t probe = static_cast<std::uint32_t>(mix64(key));;) {
      probe &= table.mask;
      if (table.slots[probe].load(std::memory_order_relaxed) == 0) {
        table.slots[probe].store(id.value + 1, std::memory_order_release);
        return;
      }
      ++probe;
    }
  }

  void grow() {
    std::uint32_t log2 = 1;
    while ((1u << log2) <= table_->mask) ++log2;
    auto grown = std::make_shared<intern_detail::LookupTable>(log2 + 1);
    for (std::uint32_t id = 0; id < size_; ++id) {
      publish(*grown, EntityId{id}, entries_.at(id));
    }
    table_ = std::move(grown);
  }

  intern_detail::ChunkedStore<std::uint64_t> entries_;
  std::shared_ptr<intern_detail::LookupTable> table_;
  std::uint32_t size_ = 0;
};

// The identity plane's four namespaces under one roof. Shared (via
// shared_ptr) between the live ERM and every published snapshot — interning
// is append-only, so a snapshot's ids stay meaningful forever.
class EntityInterner {
 public:
  StringInterner& users() { return users_; }
  const StringInterner& users() const { return users_; }
  StringInterner& hosts() { return hosts_; }
  const StringInterner& hosts() const { return hosts_; }
  ValueInterner& ips() { return ips_; }
  const ValueInterner& ips() const { return ips_; }
  ValueInterner& macs() { return macs_; }
  const ValueInterner& macs() const { return macs_; }

 private:
  StringInterner users_;
  StringInterner hosts_;
  ValueInterner ips_;
  ValueInterner macs_;
};

}  // namespace dfi

namespace std {
template <>
struct hash<dfi::EntityId> {
  size_t operator()(const dfi::EntityId& id) const noexcept {
    return hash<uint32_t>{}(id.value);
  }
};
}  // namespace std
