// In-memory spans for the traced run. Each thread appends to its own
// fixed-capacity buffer (no locks on the record path); perfbench collects
// and clears the buffers between passes, while every recording thread is
// idle, and writes the spans out when the run ends.
#ifndef PERFBENCH_SRC_TRACE_H_
#define PERFBENCH_SRC_TRACE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "src/common/mutex.h"
#include "src/common/timing.h"
#include "src/kvserver/kv_service.h"

namespace perfbench {

enum class SpanKind : std::uint16_t {
  kClientRequest,  // generator: due time -> response parsed (full stack)
  kServiceGet,     // Connection::Drive of one get request
  kServiceSet,     // Connection::Drive of one set request
  kPersistOnSet,   // MutationObserver::OnSet (inside the bucket lock)
  kPersistOnDelete,
  kPersistWaitDurable,
  kTableLookup,    // one map lookup call
  kTableUpsert,    // one map upsert call
  kTableInsert,    // one map insert call
  kStoreRead,      // TieredStore::ReadValue that went to disk
};
const char* SpanKindName(SpanKind kind);

// Trivial on purpose: span buffers are allocated without being touched.
struct Span {
  std::uint64_t request;  // shared by every span of one request; 0 = none
  std::uint64_t start;
  std::uint64_t end;
  SpanKind kind;
};

// The request the current thread is working on; observer spans recorded on
// this thread are linked to it.
std::uint64_t& CurrentRequest();

class SpanStore {
 public:
  static SpanStore& Instance();

  void SetEnabled(bool enabled) { enabled_.store(enabled, std::memory_order_relaxed); }
  bool enabled() const noexcept { return enabled_.load(std::memory_order_relaxed); }

  void Record(SpanKind kind, std::uint64_t request, std::uint64_t start, std::uint64_t end);

  // Move out every recorded span and clear the buffers. Call only while no
  // thread records.
  std::vector<Span> Collect();
  std::uint64_t dropped() const noexcept { return dropped_.load(std::memory_order_relaxed); }

 private:
  struct Buffer {
    explicit Buffer(std::size_t cap)
        : spans(std::make_unique_for_overwrite<Span[]>(cap)), capacity(cap) {}
    std::unique_ptr<Span[]> spans;
    std::size_t capacity;
    std::atomic<std::size_t> count{0};
  };
  // The calling thread's buffer. A thread's buffer goes back to the free
  // list when it exits (its spans stay until collected), so the threads of
  // the next pass reuse already-touched memory.
  Buffer* Local();
  void Release(Buffer* buffer);

  std::atomic<bool> enabled_{false};
  std::atomic<std::uint64_t> dropped_{0};
  cuckoo::Mutex mu_;
  std::vector<std::unique_ptr<Buffer>> buffers_ GUARDED_BY(mu_);
  std::vector<Buffer*> free_ GUARDED_BY(mu_);
};

// Times `fn` as one span of `kind` for `request` when tracing is on.
template <typename Fn>
auto Traced(SpanKind kind, std::uint64_t request, Fn&& fn) {
  SpanStore& store = SpanStore::Instance();
  if (!store.enabled()) {
    return fn();
  }
  const std::uint64_t start = cuckoo::NowNanos();
  if constexpr (std::is_void_v<decltype(fn())>) {
    fn();
    store.Record(kind, request, start, cuckoo::NowNanos());
  } else {
    auto result = fn();
    store.Record(kind, request, start, cuckoo::NowNanos());
    return result;
  }
}

// Forwarding MutationObserver installed over the durability manager for
// traced passes: spans around OnSet, OnDelete and WaitDurable, linked to
// the thread's current request.
class TracingObserver : public cuckoo::KvService::MutationObserver {
 public:
  explicit TracingObserver(cuckoo::KvService::MutationObserver* inner) : inner_(inner) {}
  std::uint64_t OnSet(std::string_view key,
                      const cuckoo::KvService::StoredValue& stored) override {
    return Traced(SpanKind::kPersistOnSet, CurrentRequest(),
                  [&] { return inner_->OnSet(key, stored); });
  }
  std::uint64_t OnDelete(std::string_view key) override {
    return Traced(SpanKind::kPersistOnDelete, CurrentRequest(),
                  [&] { return inner_->OnDelete(key); });
  }
  bool WaitDurable(std::uint64_t lsn) override {
    return Traced(SpanKind::kPersistWaitDurable, CurrentRequest(),
                  [&] { return inner_->WaitDurable(lsn); });
  }

 private:
  cuckoo::KvService::MutationObserver* inner_;
};

// Durations (ns) of the spans of one kind.
std::vector<double> Durations(const std::vector<Span>& spans, SpanKind kind);

// Append `spans` of one pass to a tab-separated trace file (pass, kind,
// request, start_ns, end_ns), at most `limit` lines per pass.
void WriteSpans(const std::string& path, const std::string& pass,
                const std::vector<Span>& spans, std::size_t limit);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_TRACE_H_
