// Generation-tagged copy-on-write structures: hash tries keyed by sparse
// 64-bit values, and radix trees keyed by ids issued in ascending order.
//
// Both databases the decision path reads publish through these maps: the
// ERM's binding tables (core/erm_snapshot.h), keyed by dense entity ids,
// and the policy index (core/policy_index.h), whose rules sit in a
// CowRadixMap by id and whose subtables are CowHashMaps over masked keys.
// Taking a snapshot is an O(1) copy of the owner's root pointers, and the
// *next* mutation path-copies only the nodes from the root down to the one
// slot it writes — O(changed), independent of how much the map holds.
//
// Race-freedom without use_count() probes (see the caveat in
// common/snapshot.h): sharing is tracked by generation tags, not refcounts.
// The maps have no generation of their own: their owner keeps one counter
// and passes it to every write, so one bump at publication freezes every
// map of a structure at once. A node whose tag lags the current generation
// may be referenced by some snapshot and is cloned before the first write
// (cow_write below), while nodes created after the latest publication carry
// the current tag and are mutated in place. The control thread never writes
// memory a snapshot can reach, so readers need no synchronization beyond
// the snapshot handoff itself.
//
// Single-writer contract (same as common/snapshot.h): all mutation and
// publication happen on the control thread; reader threads only ever touch
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
  std::uint64_t page_copies = 0;   // map nodes cloned because a snapshot shares them
  std::uint64_t root_copies = 0;   // owner roots cloned after a publication
};

// The one path-copy step every structure here is built from: make `node`
// writable at `generation`. A null node is created; a node whose tag lags
// the generation may be shared by a published snapshot and is cloned first
// (counted in `copies`); a node created since the latest publication is
// private to the writer and mutated in place. `Node` needs a `tag` member.
// A slot may hold its node through a base type (`Slot`, with the `tag`),
// in which case `Node` names the node's actual type.
template <typename Slot, typename Node = Slot>
Node& cow_write(std::shared_ptr<Slot>& slot, std::uint64_t generation,
                std::uint64_t& copies) {
  if (slot == nullptr) {
    slot = std::make_shared<Node>();
  } else if (slot->tag != generation) {
    slot = std::make_shared<Node>(static_cast<const Node&>(*slot));
    ++copies;
  } else {
    return static_cast<Node&>(*slot);
  }
  slot->tag = generation;
  return static_cast<Node&>(*slot);
}

// Copy-on-write hash trie over 64-bit keys (a CHAMP trie: each node holds
// up to 32 inline entries and sub-nodes, addressed by a 5-bit slice of the
// key's hash). Empty key ranges cost nothing, so sparse keys need no dense
// arrays. The hash is mix64, a bijection, so two keys never share a full
// hash path and no collision nodes exist. A write path-copies one node per
// level it descends (at most 13; a few thousand keys sit 2-3 deep) and
// never a sibling. Erase folds a sub-node left holding one entry back into
// its parent, so churn leaves no chains of near-empty nodes.
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
// a subtree emptied by churn is freed instead of lingering as a dead node.
// A write path-copies one node per level (log32 of the largest key: three
// levels up to 32k, four up to 1M). A default-constructed V marks an empty
// slot, so V must test false when empty (a smart pointer, or a number whose
// 0 means absent); emptying a slot is an erase, not an assign.
template <typename V>
class CowRadixMap {
 public:
  // The value stored under `key`, or nullptr. Safe on any thread holding a
  // frozen copy.
  const V* find(std::uint64_t key) const {
    if (!covers(key)) return nullptr;
    const Inner* node = root_.get();
    for (unsigned level = height_; level > 1; --level) {
      node = static_cast<const Inner*>(node->children[slice(key, level)].get());
      if (node == nullptr) return nullptr;
    }
    const auto* leaf = static_cast<const Leaf*>(node->children[slice(key, 1)].get());
    if (leaf == nullptr) return nullptr;
    const V& value = leaf->values[slice(key, 0)];
    return value ? &value : nullptr;
  }

  // Writer only: store non-empty `value` under `key`, replacing any value
  // already there.
  void assign(std::uint64_t key, V value, std::uint64_t generation, CowTableStats& stats) {
    while (!covers(key)) {
      auto grown = std::make_shared<Inner>();
      grown->tag = generation;
      if (root_ != nullptr) {
        grown->children[0] = std::move(root_);
        grown->live = 1;
      }
      root_ = std::move(grown);
      ++height_;
    }
    Inner* node = &cow_write(root_, generation, stats.page_copies);
    for (unsigned level = height_; level > 1; --level) {
      std::shared_ptr<Node>& child = node->children[slice(key, level)];
      if (child == nullptr) ++node->live;
      node = &cow_write<Node, Inner>(child, generation, stats.page_copies);
    }
    std::shared_ptr<Node>& slot = node->children[slice(key, 1)];
    if (slot == nullptr) ++node->live;
    Leaf& leaf = cow_write<Node, Leaf>(slot, generation, stats.page_copies);
    V& stored = leaf.values[slice(key, 0)];
    if (!stored) {
      ++leaf.live;
      ++size_;
    }
    stored = std::move(value);
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
  // What every node starts with. A child pointer holds one through this
  // type, and the level says which node it is: a leaf at level 1, an inner
  // node above it. (The control block frees it as what it was made.)
  struct Node {
    std::uint64_t tag = 0;
    std::uint32_t live = 0;  // occupied values or children
  };
  struct Leaf : Node {
    std::array<V, 32> values{};
  };
  struct Inner : Node {
    std::array<std::shared_ptr<Node>, 32> children{};
  };

  static unsigned slice(std::uint64_t key, unsigned level) {
    return static_cast<unsigned>(key >> (kBits * level)) & 31u;
  }
  // The root at height h (inner levels) covers keys below 2^(5 * (h + 1)).
  bool covers(std::uint64_t key) const {
    return height_ == kMaxHeight || (height_ > 0 && (key >> (kBits * (height_ + 1))) == 0);
  }

  template <typename Slot>
  void erase_in(std::shared_ptr<Slot>& slot, std::uint64_t key, unsigned level,
                std::uint64_t generation, CowTableStats& stats) {
    Inner& node = cow_write<Slot, Inner>(slot, generation, stats.page_copies);
    std::shared_ptr<Node>& child = node.children[slice(key, level)];
    if (level == 1) {
      Leaf& leaf = cow_write<Node, Leaf>(child, generation, stats.page_copies);
      leaf.values[slice(key, 0)] = V{};
      --leaf.live;
    } else {
      erase_in(child, key, level - 1, generation, stats);
    }
    if (child->live == 0) {
      child.reset();
      --node.live;
    }
  }

  template <typename Fn>
  static void for_each_in(const Inner& node, unsigned level, Fn& fn) {
    for (const std::shared_ptr<Node>& child : node.children) {
      if (child == nullptr) continue;
      if (level > 1) {
        for_each_in(static_cast<const Inner&>(*child), level - 1, fn);
      } else {
        for (const V& value : static_cast<const Leaf&>(*child).values) {
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
