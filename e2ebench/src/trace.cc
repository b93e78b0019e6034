#include "trace.h"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>

#include "host.h"

namespace e2e {

Tracer* g_tracer = nullptr;

const char* span_name(SpanName name) {
  switch (name) {
    case SpanName::kEmuSend: return "emu.send";
    case SpanName::kLoopTurn: return "loop.turn";
    case SpanName::kEmuRecv: return "emu.recv";
    case SpanName::kChurnPublish: return "churn.publish";
    case SpanName::kChurnInsert: return "churn.insert";
    case SpanName::kChurnRevoke: return "churn.revoke";
    case SpanName::kJournalAppend: return "journal.append";
    case SpanName::kJournalSync: return "journal.sync";
    case SpanName::kErmSnapshot: return "erm.snapshot";
    case SpanName::kPolicySnapshot: return "policy.snapshot";
    case SpanName::kCount: break;
  }
  return "?";
}

Tracer::Tracer(std::size_t capacity) : capacity_(capacity) {
  spans_.reserve(capacity_);
  stack_.reserve(16);
}

void Tracer::begin(SpanName name, std::uint32_t request) {
  const std::int64_t now = wall_ns();
  std::uint32_t index = kNone;
  if (spans_.size() < capacity_) {
    index = static_cast<std::uint32_t>(spans_.size());
    Span span;
    span.start = now;
    span.parent = stack_.empty() ? kNone : stack_.back().index;
    // A child without its own request id inherits the enclosing one.
    span.request = request != 0 || stack_.empty() || stack_.back().index == kNone
                       ? request
                       : spans_[stack_.back().index].request;
    span.name = name;
    spans_.push_back(span);
  } else {
    ++unrecorded_;
  }
  stack_.push_back(Open{name, index, now, 0});
}

void Tracer::end() {
  if (stack_.empty()) return;
  const std::int64_t now = wall_ns();
  const Open open = stack_.back();
  stack_.pop_back();
  const std::int64_t duration = now - open.start;
  const std::int64_t self = duration - open.child_ns;
  Totals& totals = totals_[static_cast<std::size_t>(open.name)];
  ++totals.count;
  totals.total_ns += duration;
  totals.self_ns += self;
  if (!stack_.empty()) stack_.back().child_ns += duration;
  if (open.index != kNone) {
    spans_[open.index].end = now;
    spans_[open.index].self = self;
  }
}

bool Tracer::write_tsv(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out, "index\tname\tstart_ns\tend_ns\tparent\trequest\tself_ns\n");
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(out, "%zu\t%s\t%lld\t%lld\t%lld\t%u\t%lld\n", i, span_name(s.name),
                 static_cast<long long>(s.start), static_cast<long long>(s.end),
                 s.parent == kNone ? -1LL : static_cast<long long>(s.parent),
                 s.request, static_cast<long long>(s.self));
  }
  return std::fclose(out) == 0;
}

void TimingJournalStore::append(const std::uint8_t* data, std::size_t size) {
  ScopedSpan span(SpanName::kJournalAppend);
  ++appends_;
  inner_.append(data, size);
}

void TimingJournalStore::sync() {
  ScopedSpan span(SpanName::kJournalSync);
  ++syncs_;
  inner_.sync();
}

namespace {

std::atomic<bool> g_counting{false};
std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

void* counted_alloc(std::size_t size) {
  if (g_counting.load(std::memory_order_relaxed)) {
    g_alloc_count.fetch_add(1, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(size, std::memory_order_relaxed);
  }
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

}  // namespace

void set_alloc_counting(bool on) { g_counting.store(on, std::memory_order_relaxed); }

AllocCounts alloc_counts() {
  return AllocCounts{g_alloc_count.load(std::memory_order_relaxed),
                     g_alloc_bytes.load(std::memory_order_relaxed)};
}

}  // namespace e2e

// Replacement global allocation functions (the array and sized forms
// forward here by default). Same malloc/free pairing as the library's own.
void* operator new(std::size_t size) { return e2e::counted_alloc(size); }
void* operator new[](std::size_t size) { return e2e::counted_alloc(size); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
