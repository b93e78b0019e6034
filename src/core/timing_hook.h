// The PCP's and proxy's only view of the paper's timing model
// (sim/paper_timing.h, DESIGN.md §5). DfiSystem supplies one for a
// paper-timed config; a null hook is the live path, where the PCP decides
// inline and nothing waits a modelled delay.
#pragma once

#include <cstddef>
#include <functional>

namespace dfi {

class TimingHook {
 public:
  virtual ~TimingHook() = default;

  // Admit a decision job to `shard`'s modelled service station; `decide`
  // runs when its modelled service time has elapsed. False: the queue is
  // full and the job is dropped.
  virtual bool admit(std::size_t shard, std::function<void()> decide) = 0;

  // Threaded backend: the milliseconds one decision spends blocked on its
  // component queries, drawn on the control thread at submission.
  virtual double draw_blocking_ms() = 0;

  // Run an in-process delivery after the modelled proxy delay.
  virtual void delay(std::function<void()> deliver) = 0;
};

}  // namespace dfi
