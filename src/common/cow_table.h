// Generation-tagged copy-on-write structures: paged tables keyed by dense
// entity ids, hash tries keyed by sparse 64-bit values, and radix trees
// keyed by ascending ids.
//
// PR 2's snapshot isolation rebuilt the whole ErmIdentityTables on every
// dirty epoch — O(total bindings) per publication, which is exactly what a
// million-entity ERM cannot afford when one log-on event lands between two
// Packet-in bursts. A CowTable instead stores its values in fixed-size
// pages behind a shared root: taking a snapshot is a root-pointer copy, and
// the *next* mutation path-copies only the root page vector and the one
// dirty page — O(changed), independent of table size. A CowHashMap applies
// the same scheme to keys too sparse for dense pages (IPs, MACs, DPIDs),
// and a CowRadixMap to ids issued in ascending order, whose live range
// drifts upward under churn: their nodes have a bounded size, and a
// mutation path-copies the nodes from the root down to the one slot it
// writes (the policy index, core/policy_index.h).
//
// Race-freedom without use_count() probes (see the caveat in
// common/snapshot.h): sharing is tracked by generation tags, not refcounts.
// Publishing a snapshot — CowTable::freeze(), or the owner's own counter
// for the maps, which take the generation as an argument — bumps the
// structure's generation; a node (page, trie node or root) whose
// tag lags the current generation may be referenced by some snapshot and
// is cloned before the first write (cow_write below), while nodes created
// after the latest freeze carry the current tag and are mutated in place.
// The control thread never writes memory a snapshot can reach, so readers
// need no synchronization beyond the snapshot handoff itself.
//
// Single-writer contract (same as common/snapshot.h): all mutation and
// freezing happen on the control thread; reader threads only ever touch
// frozen copies obtained through a published snapshot.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "common/hash.h"

namespace dfi {

struct CowTableStats {
  std::uint64_t page_copies = 0;   // pages/nodes cloned because a snapshot shares them
  std::uint64_t root_copies = 0;   // root vectors cloned after a freeze
};

// The one path-copy step every structure here is built from: make `node`
// writable at `generation`. A null node is created; a node whose tag lags
// the generation may be shared by a published snapshot and is cloned first
// (counted in `copies`); a node created since the latest freeze is private
// to the writer and mutated in place. `Node` needs a `tag` member.
template <typename Node>
Node& cow_write(std::shared_ptr<Node>& node, std::uint64_t generation,
                std::uint64_t& copies) {
  if (node == nullptr) {
    node = std::make_shared<Node>();
  } else if (node->tag != generation) {
    node = std::make_shared<Node>(*node);
    ++copies;
  } else {
    return *node;
  }
  node->tag = generation;
  return *node;
}

template <typename V, std::uint32_t kPageShift = 9>
class CowTable {
 public:
  static constexpr std::uint32_t kPageSize = 1u << kPageShift;
  static constexpr std::uint32_t kPageMask = kPageSize - 1;

  CowTable() : root_(std::make_shared<Root>()) {}

  // Readable slot for `id`, or nullptr when the id was never written in
  // this version. Safe on any thread holding a frozen copy.
  const V* find(std::uint32_t id) const {
    const Root& root = *root_;
    const std::uint32_t page_index = id >> kPageShift;
    if (page_index >= root.pages.size()) return nullptr;
    const Page* page = root.pages[page_index].get();
    if (page == nullptr) return nullptr;
    return &page->slots[id & kPageMask];
  }

  // Writer only: mark every currently reachable page as potentially shared.
  // Call once per published snapshot; the next mutation of each shared
  // page clones it first.
  void freeze() { ++generation_; }

  // Writer only: writable slot for `id`, path-copying shared structure.
  V& mutate(std::uint32_t id) {
    Root& root = cow_write(root_, generation_, stats_.root_copies);
    const std::uint32_t page_index = id >> kPageShift;
    if (page_index >= root.pages.size()) root.pages.resize(page_index + 1);
    Page& page = cow_write(root.pages[page_index], generation_, stats_.page_copies);
    return page.slots[id & kPageMask];
  }

  std::size_t page_count() const { return root_->pages.size(); }
  const CowTableStats& stats() const { return stats_; }

 private:
  struct Page {
    std::uint64_t tag = 0;
    std::array<V, kPageSize> slots{};
  };
  struct Root {
    std::uint64_t tag = 0;
    std::vector<std::shared_ptr<Page>> pages;
  };

  std::shared_ptr<Root> root_;
  std::uint64_t generation_ = 0;
  CowTableStats stats_;
};

// Copy-on-write hash trie over 64-bit keys (a CHAMP trie: each node holds
// up to 32 inline entries and sub-nodes, addressed by a 5-bit slice of the
// key's hash). Empty key ranges cost nothing, so sparse keys need no dense
// pages. The hash is mix64, a bijection, so two keys never share a full
// hash path and no collision nodes exist. A write path-copies one node per
// level it descends (at most 13; a few thousand keys sit 2-3 deep) and
// never a sibling. Erase folds a sub-node left holding one entry back into
// its parent, so churn leaves no chains of near-empty nodes.
//
// The map has no generation of its own: its owner passes one in, so one
// counter bump freezes a whole structure of maps at once.
template <typename V>
class CowHashMap {
 public:
  // The value stored under `key`, or nullptr. Safe on any thread holding a
  // frozen copy.
  const V* find(std::uint64_t key) const {
    const std::uint64_t hash = mix64(key);
    const Node* node = root_.get();
    for (unsigned shift = 0; node != nullptr; shift += kBits) {
      const std::uint32_t bit = bit_at(hash, shift);
      if ((node->datamap & bit) != 0) {
        const Entry& entry = node->entries[index_of(node->datamap, bit)];
        return entry.first == key ? &entry.second : nullptr;
      }
      if ((node->nodemap & bit) == 0) return nullptr;
      node = node->children[index_of(node->nodemap, bit)].get();
    }
    return nullptr;
  }

  // Writer only: writable value under `key` (value-initialized when the key
  // is new), path-copying every node above it that lags `generation`.
  V& mutate(std::uint64_t key, std::uint64_t generation, CowTableStats& stats) {
    return mutate_in(root_, key, mix64(key), 0, generation, stats);
  }

  // Writer only: remove `key`; false (and no copy) when absent.
  bool erase(std::uint64_t key, std::uint64_t generation, CowTableStats& stats) {
    if (find(key) == nullptr) return false;
    erase_in(root_, mix64(key), 0, generation, stats);
    if (root_->entries.empty() && root_->children.empty()) root_.reset();
    return true;
  }

  // fn(value) for every entry, in hash order.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (root_ != nullptr) for_each_in(*root_, fn);
  }

 private:
  static constexpr unsigned kBits = 5;
  using Entry = std::pair<std::uint64_t, V>;
  struct Node {
    std::uint64_t tag = 0;
    std::uint32_t datamap = 0;  // slices holding an inline entry
    std::uint32_t nodemap = 0;  // slices holding a sub-node
    std::vector<Entry> entries;                   // in slice order
    std::vector<std::shared_ptr<Node>> children;  // in slice order
  };

  static std::uint32_t bit_at(std::uint64_t hash, unsigned shift) {
    return std::uint32_t{1} << ((hash >> shift) & 31u);
  }
  static unsigned index_of(std::uint32_t map, std::uint32_t bit) {
    return static_cast<unsigned>(std::popcount(map & (bit - 1)));
  }

  V& mutate_in(std::shared_ptr<Node>& slot, std::uint64_t key, std::uint64_t hash,
               unsigned shift, std::uint64_t generation, CowTableStats& stats) {
    Node& node = cow_write(slot, generation, stats.page_copies);
    const std::uint32_t bit = bit_at(hash, shift);
    if ((node.nodemap & bit) != 0) {
      return mutate_in(node.children[index_of(node.nodemap, bit)], key, hash,
                       shift + kBits, generation, stats);
    }
    const unsigned i = index_of(node.datamap, bit);
    if ((node.datamap & bit) == 0) {
      node.datamap |= bit;
      return node.entries.insert(node.entries.begin() + i, Entry{key, V{}})->second;
    }
    if (node.entries[i].first == key) return node.entries[i].second;
    // Two keys share this slice: push the resident entry one level down,
    // then descend with the new key (which splits again while they agree).
    auto child = std::make_shared<Node>();
    child->tag = generation;
    child->datamap = bit_at(mix64(node.entries[i].first), shift + kBits);
    child->entries.push_back(std::move(node.entries[i]));
    node.entries.erase(node.entries.begin() + i);
    node.datamap &= ~bit;
    node.nodemap |= bit;
    const auto at = node.children.insert(
        node.children.begin() + index_of(node.nodemap, bit), std::move(child));
    return mutate_in(*at, key, hash, shift + kBits, generation, stats);
  }

  void erase_in(std::shared_ptr<Node>& slot, std::uint64_t hash, unsigned shift,
                std::uint64_t generation, CowTableStats& stats) {
    Node& node = cow_write(slot, generation, stats.page_copies);
    const std::uint32_t bit = bit_at(hash, shift);
    if ((node.datamap & bit) != 0) {
      node.entries.erase(node.entries.begin() + index_of(node.datamap, bit));
      node.datamap &= ~bit;
      return;
    }
    const unsigned j = index_of(node.nodemap, bit);
    erase_in(node.children[j], hash, shift + kBits, generation, stats);
    Node& child = *node.children[j];  // private now: erase_in cloned it
    if (child.nodemap != 0 || child.entries.size() != 1) return;
    Entry last = std::move(child.entries.front());
    node.children.erase(node.children.begin() + j);
    node.nodemap &= ~bit;
    node.datamap |= bit;
    node.entries.insert(node.entries.begin() + index_of(node.datamap, bit),
                        std::move(last));
  }

  template <typename Fn>
  static void for_each_in(const Node& node, Fn& fn) {
    for (const Entry& entry : node.entries) fn(entry.second);
    for (const auto& child : node.children) for_each_in(*child, fn);
  }

  std::shared_ptr<Node> root_;
};

// Copy-on-write radix tree over 64-bit keys issued in ascending order (ids).
// Nodes are 32-way and indexed most significant slice first, and the tree
// grows in height as keys grow, so consecutive keys share their whole path:
// a bulk load keeps writing one hot leaf, iteration runs in key order, and
// a subtree emptied by churn is freed instead of lingering as a dead page.
// A write path-copies one node per level (log32 of the largest key: three
// levels up to 32k, four up to 1M). A default-constructed V marks an empty
// slot, so V must test false when empty (a smart pointer).
template <typename V>
class CowRadixMap {
 public:
  // The value stored under `key`, or nullptr. Safe on any thread holding a
  // frozen copy.
  const V* find(std::uint64_t key) const {
    if (!covers(key)) return nullptr;
    const Inner* node = root_.get();
    for (unsigned level = height_; level > 1; --level) {
      node = node->inners[slice(key, level)].get();
      if (node == nullptr) return nullptr;
    }
    const Leaf* leaf = node->leaves[slice(key, 1)].get();
    if (leaf == nullptr) return nullptr;
    const V& value = leaf->values[slice(key, 0)];
    return value ? &value : nullptr;
  }

  // Writer only: store non-empty `value` under absent `key`.
  void insert(std::uint64_t key, V value, std::uint64_t generation, CowTableStats& stats) {
    while (!covers(key)) {
      auto grown = std::make_shared<Inner>();
      grown->tag = generation;
      if (root_ != nullptr) {
        grown->inners[0] = std::move(root_);
        grown->live = 1;
      }
      root_ = std::move(grown);
      ++height_;
    }
    Inner* node = &cow_write(root_, generation, stats.page_copies);
    for (unsigned level = height_; level > 1; --level) {
      std::shared_ptr<Inner>& child = node->inners[slice(key, level)];
      if (child == nullptr) ++node->live;
      node = &cow_write(child, generation, stats.page_copies);
    }
    std::shared_ptr<Leaf>& slot = node->leaves[slice(key, 1)];
    if (slot == nullptr) ++node->live;
    Leaf& leaf = cow_write(slot, generation, stats.page_copies);
    leaf.values[slice(key, 0)] = std::move(value);
    ++leaf.live;
    ++size_;
  }

  // Writer only: remove `key`; false (and no copy) when absent.
  bool erase(std::uint64_t key, std::uint64_t generation, CowTableStats& stats) {
    if (find(key) == nullptr) return false;
    erase_in(root_, key, height_, generation, stats);
    if (--size_ == 0) {
      root_.reset();
      height_ = 0;
    }
    return true;
  }

  // fn(value) for every entry, ascending key.
  template <typename Fn>
  void for_each(Fn&& fn) const {
    if (root_ != nullptr) for_each_in(*root_, height_, fn);
  }

  std::size_t size() const { return size_; }

 private:
  static constexpr unsigned kBits = 5;
  static constexpr unsigned kMaxHeight = 12;  // inner levels: 65 bits with the leaf
  struct Leaf {
    std::uint64_t tag = 0;
    std::uint32_t live = 0;  // occupied values
    std::array<V, 32> values{};
  };
  struct Inner {
    std::uint64_t tag = 0;
    std::uint32_t live = 0;  // occupied children
    // One level down: inner nodes above level 1, leaves at it.
    std::array<std::shared_ptr<Inner>, 32> inners{};
    std::array<std::shared_ptr<Leaf>, 32> leaves{};
  };

  static unsigned slice(std::uint64_t key, unsigned level) {
    return static_cast<unsigned>(key >> (kBits * level)) & 31u;
  }
  // The root at height h (inner levels) covers keys below 2^(5 * (h + 1)).
  bool covers(std::uint64_t key) const {
    return height_ == kMaxHeight || (height_ > 0 && (key >> (kBits * (height_ + 1))) == 0);
  }

  void erase_in(std::shared_ptr<Inner>& slot, std::uint64_t key, unsigned level,
                std::uint64_t generation, CowTableStats& stats) {
    Inner& node = cow_write(slot, generation, stats.page_copies);
    const unsigned i = slice(key, level);
    if (level == 1) {
      Leaf& leaf = cow_write(node.leaves[i], generation, stats.page_copies);
      leaf.values[slice(key, 0)] = V{};
      if (--leaf.live == 0) {
        node.leaves[i].reset();
        --node.live;
      }
      return;
    }
    erase_in(node.inners[i], key, level - 1, generation, stats);
    if (node.inners[i]->live == 0) {
      node.inners[i].reset();
      --node.live;
    }
  }

  template <typename Fn>
  static void for_each_in(const Inner& node, unsigned level, Fn& fn) {
    for (unsigned i = 0; i < 32; ++i) {
      if (level > 1) {
        if (node.inners[i] != nullptr) for_each_in(*node.inners[i], level - 1, fn);
      } else if (node.leaves[i] != nullptr) {
        for (const V& value : node.leaves[i]->values) {
          if (value) fn(value);
        }
      }
    }
  }

  std::shared_ptr<Inner> root_;
  unsigned height_ = 0;  // inner levels above the leaves
  std::size_t size_ = 0;
};

}  // namespace dfi
