#include "core/erm_snapshot.h"

#include <algorithm>
#include <vector>

namespace dfi {
namespace {

// Scratch bitmap for alias-expansion dedup (one bit per user id).
//
// A host reachable via several hostname bindings must contribute each
// logged-on user once. The old layout deduplicated with sort+unique over
// freshly copied strings (and before that, repeated std::set inserts — the
// FrameDecoder-style quadratic risk); here membership is one test-and-set
// per candidate id. The bitmap is thread_local so concurrent snapshot
// readers each get their own, grow-only so steady state allocates nothing,
// and cleared by unsetting exactly the bits just collected — O(output),
// not O(id space).
class ScratchIdBitmap {
 public:
  bool test_and_set(EntityId id) {
    const std::size_t word = id.value >> 6;
    if (word >= words_.size()) words_.resize(word + 1, 0);
    const std::uint64_t bit = 1ull << (id.value & 63);
    if ((words_[word] & bit) != 0) return false;
    words_[word] |= bit;
    return true;
  }

  void clear(const std::vector<EntityId>& set_ids) {
    for (const EntityId id : set_ids) {
      words_[id.value >> 6] &= ~(1ull << (id.value & 63));
    }
  }

 private:
  std::vector<std::uint64_t> words_;
};

}  // namespace

EndpointView ErmIdentityTables::enrich(EndpointView view) const {
  if (!view.ip.has_value()) return view;
  const std::vector<EntityId>* hosts =
      list_of(ip_to_hosts, ip_lookup.find(view.ip->value()));
  if (hosts == nullptr) return view;

  const StringInterner& host_names = interner->hosts();
  const StringInterner& user_names = interner->users();
  view.hostnames.clear();
  view.hostnames.reserve(hosts->size());
  for (const EntityId host : *hosts) {
    view.hostnames.push_back(Hostname{std::string(host_names.view(host))});
  }

  if (hosts->size() == 1) {
    // Single-host fast path: its user list is already sorted and unique.
    if (const std::vector<EntityId>* users = list_of(host_to_users, (*hosts)[0])) {
      view.usernames.reserve(users->size());
      for (const EntityId user : *users) {
        view.usernames.push_back(Username{std::string(user_names.view(user))});
      }
    }
    return view;
  }

  // Multi-host enrichment: a user logged on to a host reachable via several
  // hostname bindings must appear once. Collect ids through the scratch
  // bitmap, then order the survivors lexicographically — the presentation
  // order every per-host list already uses, so output matches the old
  // ordered-set layout byte for byte.
  thread_local ScratchIdBitmap scratch;
  std::vector<EntityId> user_ids;
  for (const EntityId host : *hosts) {
    const std::vector<EntityId>* users = list_of(host_to_users, host);
    if (users == nullptr) continue;
    user_ids.reserve(user_ids.size() + users->size());
    for (const EntityId user : *users) {
      if (scratch.test_and_set(user)) user_ids.push_back(user);
    }
  }
  scratch.clear(user_ids);
  std::sort(user_ids.begin(), user_ids.end(), [&](EntityId a, EntityId b) {
    return user_names.view(a) < user_names.view(b);
  });
  view.usernames.reserve(user_ids.size());
  for (const EntityId user : user_ids) {
    view.usernames.push_back(Username{std::string(user_names.view(user))});
  }
  return view;
}

SpoofCheck ErmIdentityTables::validate_identity(
    const std::optional<MacAddress>& mac, const std::optional<Ipv4Address>& ip) const {
  if (ip.has_value() && mac.has_value()) {
    const EntityId ip_id = ip_lookup.find(ip->value());
    if (ip_id.valid()) {
      if (const std::uint64_t* packed = ip_to_mac.find(ip_id.value)) {
        const MacAddress bound = MacAddress::from_u64(*packed - 1);
        if (bound != *mac) {
          return {true, "IP " + ip->to_string() + " is bound to MAC " +
                            bound.to_string() + ", not " + mac->to_string()};
        }
      }
    }
  }
  return {false, ""};
}

}  // namespace dfi
