// KvService — a MemC3-shaped in-process key-value service: the memcached
// text protocol dispatched onto the concurrent cuckoo table. Variable-length
// keys and values go through GeneralCuckooMap (the §7 generality layer);
// every public method is safe to call from any number of connection threads.
//
// Supported semantics: get/gets (single- and multi-key)/set/cas/delete/touch/
// stats, with lazy TTL expiry and monotonically increasing cas ids. exptime
// follows memcached: 0 = never, <= 30 days = relative seconds, > 30 days =
// absolute UNIX timestamp. Multi-key gets route through the table's batched
// prefetching lookup (WithValueBatch).
#ifndef SRC_KVSERVER_KV_SERVICE_H_
#define SRC_KVSERVER_KV_SERVICE_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "src/common/per_thread_counter.h"
#include "src/cuckoo/general_cuckoo_map.h"
#include "src/kvserver/protocol.h"
#include "src/obs/catalog.h"
#include "src/obs/histogram.h"
#include "src/obs/slowlog.h"
#include "src/store/tiered_store.h"

namespace cuckoo {

class KvService {
 public:
  // exptime values above this are absolute UNIX timestamps, not relative
  // TTLs (memcached's REALTIME_MAXDELTA, 30 days in seconds).
  static constexpr std::uint32_t kMaxRelativeExptime = 60 * 60 * 24 * 30;

  // The stored record for one key. Public so the durability layer (WAL,
  // snapshots, recovery) can serialize and restore entries verbatim.
  // With a tiered store attached, values at/above the tiering threshold
  // keep `data` empty and carry a value-log location instead — the table
  // entry is then a 16-byte index record, which is what lets the dataset
  // outgrow RAM.
  struct StoredValue {
    std::string data;
    std::uint32_t flags = 0;
    std::uint64_t cas_id = 0;
    std::uint64_t expires_at = 0;  // absolute seconds; 0 = never
    store::ValueLocation loc{};    // set iff the value lives in the value log

    bool Tiered() const noexcept { return loc.IsValid(); }
  };

  using StoreMap = GeneralCuckooMap<std::string, StoredValue>;

  // Durability hook. OnSet/OnDelete are invoked INSIDE the table's
  // bucket-pair critical section at the instant the mutation is applied, so
  // the observer can assign a log sequence number whose order matches the
  // per-key order of table mutations (two racing SETs of one key serialize
  // identically in the table and in the log). They must not block on I/O —
  // enqueue and return. WaitDurable is called OUTSIDE the locks, before the
  // client response is released, and may block per the fsync policy. It
  // returns false when durability could not be achieved (the log hit a
  // write/fsync error); the service then answers SERVER_ERROR instead of a
  // success ack — the mutation is applied in memory but never promised.
  // Only the synchronous API (Process(request, out), Drive(bytes, out)) and
  // services without an AckSource call WaitDurable; the socket path asks the
  // AckSource instead and never blocks.
  //
  // Every mutation is logged as its resolved unconditional effect: a
  // successful cas/touch reports the final stored state through OnSet, so
  // replay never needs to re-evaluate conditions.
  class MutationObserver {
   public:
    virtual ~MutationObserver() = default;
    virtual std::uint64_t OnSet(std::string_view key, const StoredValue& stored) = 0;
    virtual std::uint64_t OnDelete(std::string_view key) = 0;
    virtual bool WaitDurable(std::uint64_t lsn) = 0;
  };

  // Install before serving traffic; the observer must outlive the service.
  void SetMutationObserver(MutationObserver* observer) { observer_ = observer; }

  // Non-blocking write acks, for the async Drive. The durability layer
  // registers one beside its MutationObserver. It is deliberately not an
  // observer method: a wrapping observer that forwards only OnSet/OnDelete/
  // WaitDurable would otherwise route every write back to the blocking wait
  // without anyone noticing. Methods are thread-safe and never block.
  class AckSource {
   public:
    virtual ~AckSource() = default;
    // Decide `lsn`'s ack now if its fate is already known: true with *ok
    // set, false while it still waits (fsync, replica).
    virtual bool TryAck(std::uint64_t lsn, bool* ok) = 0;
    // Run done(acked_through) exactly once, on any thread (possibly inline),
    // once the acks of the writes logged at `lsns` (ascending, non-empty)
    // are all decided: those <= acked_through are acked, the rest refused.
    virtual void NotifyAcked(std::vector<std::uint64_t> lsns,
                             std::function<void(std::uint64_t acked_through)> done) = 0;
    // A write appended to the log at `append_ns` (NowNanos) got its answer,
    // acked or refused. Called once per logged write, on either path.
    virtual void AckResolved(std::uint64_t append_ns) = 0;
  };

  // Install before serving traffic (null detaches); must outlive the service.
  void SetAckSource(AckSource* acks) { acks_ = acks; }

  // `bgsave` command handler: return true if a snapshot was started, false
  // if one is already running (reported to the client as BUSY).
  void SetBgsaveHook(std::function<bool()> hook) { bgsave_ = std::move(hook); }

  // ----- Replication hooks ---------------------------------------------------

  // Read-only (replica) mode: set/cas/delete/touch answer SERVER_ERROR with
  // a redirect to `primary` instead of mutating, and lazy expiry stops
  // erasing on GET (the primary replicates the authoritative delete; erasing
  // locally would fork the replica's WAL off the primary's LSN sequence).
  // `primary` is latched on the first call and must not change afterwards;
  // promotion (`replicaof none`) only ever flips the flag back off.
  void SetReadOnly(bool read_only, const std::string& primary) {
    if (readonly_redirect_.empty() && !primary.empty()) {
      readonly_redirect_ = primary;
    }
    read_only_.store(read_only, std::memory_order_release);
  }
  bool ReadOnly() const noexcept { return read_only_.load(std::memory_order_acquire); }

  // Allow `replicate` connection upgrades (the server wires the actual fd
  // handoff; without this the verb answers SERVER_ERROR).
  void SetReplicationUpgradeEnabled(bool enabled) { repl_upgrade_enabled_ = enabled; }

  // `replicaof` command handler: receives the parsed request and returns the
  // full protocol response (e.g. "OK\r\n"). Unset => ERROR.
  void SetReplicaofHandler(std::function<std::string(const Request&)> handler) {
    replicaof_ = std::move(handler);
  }

  struct Options {
    std::size_t initial_bucket_count_log2 = 10;
    bool auto_expand = true;
    // Lock stripes in the backing table. Expansion goes incremental (online)
    // once bucket_count % stripe_count == 0; smaller tables fall back to the
    // stop-the-world rehash. Tests shrink this to force the online path early.
    std::size_t stripe_count = LockStripes::kDefaultStripeCount;
    // Back the table cores with 2 MB transparent huge pages (madvise; falls
    // back to normal pages when the kernel declines). The granted byte count
    // is visible as `table_hugepage_bytes` / cuckoo_table_hugepage_bytes.
    bool hugepages = false;
    // Time source in seconds; injectable so TTL behaviour is testable
    // deterministically. Null = wall clock.
    std::function<std::uint64_t()> clock;
    // Commands taking at least this long land in a bounded ring dumped by
    // `stats slowlog`. 0 disables the log (the per-command latency
    // histograms are always on).
    std::uint64_t slowlog_threshold_ns = 0;
    std::size_t slowlog_capacity = 128;
    // Larger-than-memory tier. Null = every value inline in RAM (legacy
    // behaviour). The tier must be opened before and outlive the service.
    store::TieredStore* tier = nullptr;
  };

  KvService() : KvService(Options{}) {}
  explicit KvService(Options opts);

  // A GET parked on disk reads: HandleGet fills the item list and location
  // records, StartFetches resolves them on reader threads, FinishDeferred
  // renders the response in key order back on the caller's thread.
  struct DeferredGet {
    struct Item {
      std::string key;
      bool live = false;        // table hit, not expired
      bool need_fetch = false;  // tiered and not in the hot cache
      bool fetch_ok = false;    // disk read landed and verified
      std::string data;
      std::uint32_t flags = 0;
      std::uint64_t cas_id = 0;
      store::ValueLocation loc{};
    };
    bool with_cas = false;
    RequestType type = RequestType::kGet;
    std::uint64_t start_ns = 0;  // Process() entry; closes at FinishDeferred
    std::vector<Item> items;
    std::atomic<std::size_t> remaining{0};  // outstanding disk fetches
  };

  // kUpgradeReplication: the request was a `replicate` verb on a server with
  // replication enabled — no response bytes are appended; the caller must
  // detach the connection and hand its fd to the replication hub.
  enum class ProcessStatus : std::uint8_t { kDone, kSuspended, kUpgradeReplication };

  // Execute one request, appending the protocol response to *response_out.
  void Process(const Request& request, std::string* response_out) {
    (void)Process(request, response_out, nullptr);
  }

  // Async-aware variant: a GET that must touch disk returns kSuspended with
  // *deferred set instead of blocking; the caller parks the connection,
  // calls StartFetches, and on completion FinishDeferred. With `deferred`
  // null every request completes synchronously (disk reads block inline).
  ProcessStatus Process(const Request& request, std::string* response_out,
                        std::shared_ptr<DeferredGet>* deferred);

  // Submit the deferred GET's disk reads; `on_complete` fires exactly once,
  // on a reader thread, after the last fetch lands. Call once per deferred.
  void StartFetches(const std::shared_ptr<DeferredGet>& deferred,
                    std::function<void()> on_complete);

  // Render the completed deferred GET (failed fetches count as misses) and
  // close out its latency accounting.
  void FinishDeferred(DeferredGet& deferred, std::string* out);

  // A write reply waiting on its ack (async Drive only). The success reply
  // is already in the output at [offset, offset + length); nothing from
  // `offset` on may be sent until the ack is decided. A refused ack rewrites
  // the span to SERVER_ERROR.
  struct AckFence {
    std::uint64_t lsn = 0;
    std::uint64_t append_ns = 0;  // when OnSet/OnDelete logged the write
    std::uint64_t start_ns = 0;   // Process() entry; latency closes at resolution
    std::size_t offset = 0;
    std::size_t length = 0;
    RequestType type = RequestType::kSet;
    std::string key;
  };

  // Per-connection driver: feed raw protocol bytes, receive raw response
  // bytes. Each connection owns one Connection (the parser is stateful);
  // all connections share the service.
  class Connection {
   public:
    // `acks_decided` runs once per batch of fenced writes (see the async
    // Drive), on any thread (possibly inline), when their acks are decided;
    // the owner then calls ResolveAcks on its own thread.
    explicit Connection(KvService* service, std::function<void()> acks_decided = {})
        : service_(service), acks_decided_(std::move(acks_decided)) {}

    // kUpgradeReplication: stop driving — the stream switched protocols.
    // upgrade_start_lsn() has the requested LSN and TakeBufferedInput() any
    // bytes that arrived after the `replicate` line.
    enum class DriveStatus : std::uint8_t { kIdle, kSuspended, kUpgradeReplication };

    // Parse and execute everything in `bytes`; append responses to *out.
    // Writes wait for their durable ack before their reply is appended.
    void Drive(std::string_view bytes, std::string* out) {
      (void)Drive(bytes, out, nullptr);
    }

    // Async-aware variant: stops at the first request that parks on disk,
    // returning kSuspended with *deferred set; unparsed input stays
    // buffered. After FinishDeferred, call Drive("", ...) to resume the
    // buffered stream (which may suspend again).
    //
    // With an AckSource installed, a write whose ack is still pending does
    // not block either: its reply goes behind an ack fence and the stream
    // continues. Before returning, Drive registers one notification for the
    // batch's new fences (acks_decided). The caller must send no output
    // past FlushLimit() and call ResolveAcks() once notified.
    DriveStatus Drive(std::string_view bytes, std::string* out,
                      std::shared_ptr<DeferredGet>* deferred);

    // ----- Ack fences (async Drive only) -----------------------------------

    // Output before this offset may be sent; the rest waits on a write ack.
    // Below out_size exactly while a fenced reply is pending.
    std::size_t FlushLimit(std::size_t out_size) const noexcept {
      return fences_.empty() ? out_size : fences_.front().offset;
    }
    // Apply every decided notification, oldest first: acked fences release
    // their reply, refused ones turn into SERVER_ERROR. Owner thread only.
    void ResolveAcks(std::string* out);
    // The caller erased the first `n` (already sent) bytes of the output.
    void OutputConsumed(std::size_t n) noexcept {
      for (AckFence& fence : fences_) {
        fence.offset -= n;
      }
    }

    // Bytes of partial request currently buffered (backpressure input).
    std::size_t BufferedBytes() const noexcept { return parser_.BufferedBytes(); }

    // True if the protocol stream is unrecoverable; close the connection.
    bool Broken() const noexcept { return parser_.Broken(); }

    // Valid after Drive returned kUpgradeReplication.
    std::uint64_t upgrade_start_lsn() const noexcept { return upgrade_start_lsn_; }
    std::string TakeBufferedInput() { return parser_.TakeBuffered(); }

   private:
    // One NotifyAcked registration: decides the `fences` oldest unresolved
    // fences once `done`.
    struct AckWatch {
      std::size_t fences = 0;
      std::atomic<std::uint64_t> acked_through{0};
      std::atomic<bool> done{false};
    };

    DriveStatus Run(std::string_view bytes, std::string* out,
                    std::shared_ptr<DeferredGet>* deferred);
    // Register one AckWatch for the fences no watch covers yet.
    void WatchNewFences();

    KvService* service_;
    std::function<void()> acks_decided_;
    RequestParser parser_;
    std::uint64_t upgrade_start_lsn_ = 0;
    std::deque<AckFence> fences_;                   // unresolved, request order
    std::deque<std::shared_ptr<AckWatch>> watches_;  // registration order
    std::size_t watched_fences_ = 0;  // fences_ prefix the watches cover
  };

  // `acks_decided`: see Connection.
  Connection Connect(std::function<void()> acks_decided = {}) {
    return Connection(this, std::move(acks_decided));
  }

  // ----- Tiered-store integration -------------------------------------------

  store::TieredStore* tier() const noexcept { return tier_; }

  // GC relocation hook (see TieredStore::RelocateFn): re-checks liveness
  // under the bucket locks and swings the entry's location to the record's
  // new home, logging the move through the normal observer path.
  store::TieredStore::RelocateResult RelocateTiered(const std::string& key,
                                                    const store::ValueLocation& old_loc,
                                                    std::string_view data);

  // The metric catalog `stats`, `stats detail` and /metrics render from.
  // The service registers its own entries (commands, table, tier, slowlog);
  // the socket server, durability manager and replication layers register
  // theirs through scoped handles. Thread-safe.
  obs::MetricCatalog& metrics() noexcept { return metrics_; }

  obs::Slowlog& slowlog() noexcept { return slowlog_; }
  const obs::Slowlog& slowlog() const noexcept { return slowlog_; }

  // Snapshot of the end-to-end Process() latency histogram for one command
  // kind (benches and tests; `stats detail` serves the same data on-wire).
  obs::HistogramSnapshot CommandLatency(RequestType type) const {
    return cmd_ns_[static_cast<std::size_t>(type)].Snapshot();
  }

  // Toggle sampled latency recording inside the cuckoo table (the
  // per-command histograms in this class are unaffected — they are one
  // clock pair per network request and always on).
  void SetLatencyProfiling(bool enabled) { store_.SetLatencyProfiling(enabled); }

  // ----- Recovery API (single-threaded, before serving traffic) -------------

  // Apply a snapshot/WAL record directly: upsert the entry verbatim and
  // advance the cas floor past its cas id. Returns false only if the table
  // refused the insert (auto_expand disabled and full).
  bool RestoreEntry(std::string key, StoredValue value);

  // Apply a logged delete. Missing keys are fine (idempotent replay).
  bool RestoreErase(const std::string& key) { return store_.Erase(key); }

  // Ensure future cas ids are strictly greater than `cas_id`.
  void AdvanceCasFloor(std::uint64_t cas_id);

  // Drop everything (recovery retry after a partially loaded corrupt
  // snapshot). Exclusive; only call before serving traffic.
  void RestoreClear() { store_.Clear(); }

  // ----- Online snapshot (fuzzy walk; writers keep running) -----------------

  // Walk a fuzzy snapshot of the store (see GeneralCuckooMap::
  // TrySnapshotBuckets): `fn` sees each live entry at least once, copies
  // taken under per-bucket locks only. Returns false if a table expansion
  // interrupted the walk — the caller discards partial output and retries.
  bool TrySnapshotEntries(const std::function<void(const std::string&, const StoredValue&)>& fn,
                          StoreMap::SnapshotWalkStats* stats = nullptr) const {
    return store_.TrySnapshotBuckets(fn, /*lock_retries=*/8, stats);
  }

  std::size_t ItemCount() const noexcept { return store_.Size(); }
  std::uint64_t GetHits() const noexcept { return static_cast<std::uint64_t>(hits_.Sum()); }
  std::uint64_t GetMisses() const noexcept { return static_cast<std::uint64_t>(misses_.Sum()); }
  std::uint64_t Expirations() const noexcept {
    return static_cast<std::uint64_t>(expirations_.Sum());
  }
  MapStatsSnapshot StoreStats() const { return store_.Stats(); }

 private:
  std::uint64_t NowSeconds() const { return clock_(); }
  // memcached exptime semantics: 0 = never; values up to 30 days are a
  // relative TTL; anything larger is already an absolute UNIX timestamp
  // (which may be in the past, making the entry immediately expired).
  std::uint64_t DeadlineFor(std::uint32_t exptime) const {
    if (exptime == 0) {
      return 0;
    }
    if (exptime > kMaxRelativeExptime) {
      return exptime;
    }
    return NowSeconds() + exptime;
  }
  bool Expired(const StoredValue& value, std::uint64_t now) const {
    return value.expires_at != 0 && value.expires_at <= now;
  }

  ProcessStatus HandleGet(const Request& request, bool with_cas, std::string* out,
                          std::shared_ptr<DeferredGet>* deferred);
  // Write handlers. `fences` is non-null on the async path: a write whose
  // ack is still pending appends its reply behind a new fence there.
  void HandleSet(const Request& request, std::string* out, std::deque<AckFence>* fences);
  void HandleCas(const Request& request, std::string* out, std::deque<AckFence>* fences);
  void HandleTouch(const Request& request, std::string* out, std::deque<AckFence>* fences);
  void HandleStats(const Request& request, std::string* out);
  void HandleDelete(const Request& request, std::string* out, std::deque<AckFence>* fences);

  // Answer a write logged at `lsn`: `reply` once its ack is decided,
  // SERVER_ERROR if refused, or `reply` behind a fence while it is pending
  // (async path only). Returns true if the write is acked or fenced.
  bool AnswerWrite(const Request& request, std::uint64_t lsn, std::uint64_t append_ns,
                   void (*reply)(std::string*), std::string* out,
                   std::deque<AckFence>* fences);
  // Close out a fenced write once its ack is decided: counters, latency.
  void FinishAck(const AckFence& fence, bool ok);
  void CountWrite(RequestType type);  // cmd_set / cmd_delete on success

  // Shared tail of the sync and deferred GET paths: VALUE blocks in key
  // order, hit/miss accounting, END.
  void RenderGet(DeferredGet& deferred, std::string* out);

  // Process() with the fence list of the async Drive (null = writes block).
  ProcessStatus Execute(const Request& request, std::string* out,
                        std::shared_ptr<DeferredGet>* deferred, std::deque<AckFence>* fences);
  // Execute() minus the latency accounting (the switch on request type).
  ProcessStatus Dispatch(const Request& request, std::string* out,
                         std::shared_ptr<DeferredGet>* deferred, std::deque<AckFence>* fences);
  void RecordLatency(RequestType type, std::uint64_t elapsed_ns, const std::string& key);
  // `STAT slowlog_entry ...` lines for `stats slowlog`.
  void AppendSlowlogEntries(std::string* out) const;
  // The service's own catalog groups, registered at construction.
  std::vector<obs::MetricGroup> MetricGroups() const;

  // One histogram slot per RequestType value.
  static constexpr std::size_t kCommandKinds = 10;
  static const char* CommandName(RequestType type) noexcept;

  StoreMap store_;
  store::TieredStore* tier_ = nullptr;
  std::function<std::uint64_t()> clock_;
  MutationObserver* observer_ = nullptr;
  AckSource* acks_ = nullptr;
  std::function<bool()> bgsave_;
  std::function<std::string(const Request&)> replicaof_;
  std::atomic<bool> read_only_{false};
  bool repl_upgrade_enabled_ = false;    // set before serving traffic
  std::string readonly_redirect_;        // latched before serving traffic
  std::atomic<std::uint64_t> next_cas_{1};
  PerThreadCounter hits_;
  PerThreadCounter misses_;
  PerThreadCounter sets_;
  PerThreadCounter deletes_;
  PerThreadCounter expirations_;
  obs::Histogram cmd_ns_[kCommandKinds];  // end-to-end Process() latency
  obs::Slowlog slowlog_;
  obs::MetricCatalog metrics_;
  obs::MetricCatalog::Handle own_metrics_;
};

}  // namespace cuckoo

#endif  // SRC_KVSERVER_KV_SERVICE_H_
