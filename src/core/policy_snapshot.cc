#include "core/policy_snapshot.h"

namespace dfi {

PolicyDecision decision_of(const StoredPolicyRule* best) {
  if (best == nullptr) {
    return PolicyDecision{PolicyAction::kDeny,
                          PolicyRuleId{kDefaultDenyCookie.value},
                          /*default_deny=*/true};
  }
  return PolicyDecision{best->rule.action, best->id, /*default_deny=*/false};
}

}  // namespace dfi
