#include "perfbench/src/trace.h"

#include <cstdio>

namespace perfbench {
namespace {

// Per-thread span capacity; the rest of a pass is counted as dropped.
constexpr std::size_t kSpansPerThread = std::size_t{1} << 21;

}  // namespace

const char* SpanKindName(SpanKind kind) {
  switch (kind) {
    case SpanKind::kClientRequest:
      return "client.request";
    case SpanKind::kServiceGet:
      return "service.get";
    case SpanKind::kServiceSet:
      return "service.set";
    case SpanKind::kPersistOnSet:
      return "persist.on_set";
    case SpanKind::kPersistOnDelete:
      return "persist.on_delete";
    case SpanKind::kPersistWaitDurable:
      return "persist.wait_durable";
    case SpanKind::kTableLookup:
      return "table.lookup";
    case SpanKind::kTableUpsert:
      return "table.upsert";
    case SpanKind::kTableInsert:
      return "table.insert";
    case SpanKind::kStoreRead:
      return "store.read";
  }
  return "unknown";
}

std::uint64_t& CurrentRequest() {
  thread_local std::uint64_t request = 0;
  return request;
}

SpanStore& SpanStore::Instance() {
  static SpanStore store;
  return store;
}

SpanStore::Buffer* SpanStore::Local() {
  struct Handle {
    Buffer* buffer = nullptr;
    ~Handle() {
      if (buffer != nullptr) {
        SpanStore::Instance().Release(buffer);
      }
    }
  };
  thread_local Handle local;
  if (local.buffer == nullptr) {
    cuckoo::MutexLock lock(mu_);
    if (!free_.empty()) {
      local.buffer = free_.back();
      free_.pop_back();
    } else {
      buffers_.push_back(std::make_unique<Buffer>(kSpansPerThread));
      local.buffer = buffers_.back().get();
    }
  }
  return local.buffer;
}

void SpanStore::Release(Buffer* buffer) {
  cuckoo::MutexLock lock(mu_);
  free_.push_back(buffer);
}

void SpanStore::Record(SpanKind kind, std::uint64_t request, std::uint64_t start,
                       std::uint64_t end) {
  Buffer* b = Local();
  const std::size_t n = b->count.load(std::memory_order_acquire);
  if (n >= b->capacity) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  b->spans[n] = Span{request, start, end, kind};
  b->count.store(n + 1, std::memory_order_release);
}

std::vector<Span> SpanStore::Collect() {
  std::vector<Span> out;
  cuckoo::MutexLock lock(mu_);
  for (const auto& b : buffers_) {
    const std::size_t n = b->count.load(std::memory_order_acquire);
    out.insert(out.end(), b->spans.get(), b->spans.get() + n);
    b->count.store(0, std::memory_order_release);
  }
  return out;
}

std::vector<double> Durations(const std::vector<Span>& spans, SpanKind kind) {
  std::vector<double> d;
  for (const Span& s : spans) {
    if (s.kind == kind) {
      d.push_back(static_cast<double>(s.end - s.start));
    }
  }
  return d;
}

void WriteSpans(const std::string& path, const std::string& pass,
                const std::vector<Span>& spans, std::size_t limit) {
  std::FILE* f = std::fopen(path.c_str(), "a");
  if (f == nullptr) {
    return;
  }
  std::size_t written = 0;
  for (const Span& s : spans) {
    if (written++ == limit) {
      break;
    }
    std::fprintf(f, "%s\t%s\t%llu\t%llu\t%llu\n", pass.c_str(), SpanKindName(s.kind),
                 static_cast<unsigned long long>(s.request),
                 static_cast<unsigned long long>(s.start),
                 static_cast<unsigned long long>(s.end));
  }
  std::fclose(f);
}

}  // namespace perfbench
