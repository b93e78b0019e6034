// Tracing aids of the traced run: in-memory spans with self time, a global
// allocation counter, and a timing JournalStore decorator.
//
// Spans are recorded only around the benchmark's own calls into the
// program (its emulators, the event-loop turn it drives, the writes it
// applies) and around the journal store it hands the program. A span's
// self time is its duration minus the time its child spans cover. With no
// tracer installed every span is a single branch.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "core/journal.h"

namespace e2e {

enum class SpanName : std::uint8_t {
  kEmuSend,         // switch emulator writes Packet-ins
  kLoopTurn,        // one EventLoop::run_once
  kEmuRecv,         // an emulator reads and parses what arrived
  kChurnPublish,    // binding event published on erm.bindings
  kChurnInsert,     // PolicyManager::insert
  kChurnRevoke,     // PolicyManager::revoke
  kJournalAppend,   // JournalStore::append
  kJournalSync,     // JournalStore::sync
  kErmSnapshot,     // EntityResolutionManager::snapshot_view after a write
  kPolicySnapshot,  // PolicyManager::snapshot_view after a write
  kCount,
};
inline constexpr std::size_t kSpanNames = static_cast<std::size_t>(SpanName::kCount);
const char* span_name(SpanName name);

class Tracer {
 public:
  struct Totals {
    std::uint64_t count = 0;
    std::int64_t total_ns = 0;
    std::int64_t self_ns = 0;
  };
  using TotalsTable = std::array<Totals, kSpanNames>;

  // Keeps at most `capacity` span records for the dump; totals count all.
  explicit Tracer(std::size_t capacity);

  void begin(SpanName name, std::uint32_t request);
  void end();

  const TotalsTable& totals() const { return totals_; }
  std::size_t recorded() const { return spans_.size(); }
  std::uint64_t unrecorded() const { return unrecorded_; }

  // One line per recorded span: index, name, start/end (ns), parent index
  // (-1 for a root), request id (Packet-in xid, 0 if none), self ns.
  bool write_tsv(const std::string& path) const;

 private:
  static constexpr std::uint32_t kNone = 0xffffffffu;
  struct Open {
    SpanName name;
    std::uint32_t index;
    std::int64_t start;
    std::int64_t child_ns;
  };
  struct Span {
    std::int64_t start = 0;
    std::int64_t end = 0;
    std::int64_t self = 0;
    std::uint32_t parent = kNone;
    std::uint32_t request = 0;
    SpanName name = SpanName::kCount;
  };

  std::size_t capacity_;
  std::vector<Open> stack_;
  std::vector<Span> spans_;
  std::uint64_t unrecorded_ = 0;
  TotalsTable totals_{};
};

// The installed tracer, or null (untraced).
extern Tracer* g_tracer;

class ScopedSpan {
 public:
  explicit ScopedSpan(SpanName name, std::uint32_t request = 0) : tracer_(g_tracer) {
    if (tracer_ != nullptr) tracer_->begin(name, request);
  }
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end();
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer* tracer_;
};

// Global operator new counter. Counting is off until switched on.
struct AllocCounts {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};
void set_alloc_counting(bool on);
AllocCounts alloc_counts();

// JournalStore decorator: spans around append and sync, plus counts.
class TimingJournalStore final : public dfi::JournalStore {
 public:
  explicit TimingJournalStore(dfi::JournalStore& inner) : inner_(inner) {}

  void append(const std::uint8_t* data, std::size_t size) override;
  void sync() override;
  std::vector<std::uint8_t> read_all() const override { return inner_.read_all(); }
  void truncate(std::size_t size) override { inner_.truncate(size); }
  void begin_rewrite() override { inner_.begin_rewrite(); }
  void append_rewrite(const std::uint8_t* data, std::size_t size) override {
    inner_.append_rewrite(data, size);
  }
  void commit_rewrite() override { inner_.commit_rewrite(); }

  std::uint64_t appends() const { return appends_; }
  std::uint64_t syncs() const { return syncs_; }

 private:
  dfi::JournalStore& inner_;
  std::uint64_t appends_ = 0;
  std::uint64_t syncs_ = 0;
};

}  // namespace e2e
