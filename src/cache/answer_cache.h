// Sharded exact-match answer cache for the query service.
//
// Results are immutable within an epoch, and under a skewed workload the
// same chain queries arrive over and over: the cache stores one
// materialized answer set per (program fingerprint, predicate, binding)
// key so a repeat is served on the caller thread in microseconds instead
// of paying the full queue + traversal round trip. Two load-bearing
// mechanisms:
//
//  * Epoch-scoped invalidation. Every entry records its *support set* —
//    the base (EDB) relations the query's evaluation can read, the same
//    TransitiveBasePreds dependency data EvalArtifacts uses — as pinned
//    shared_ptr<const Relation> handles plus their dead_mutations
//    counters. A lookup (or the publish-time sweep) re-validates the
//    entry against the batch's epoch by pointer equality: copy-on-write
//    guarantees any insert or retraction replaces the Relation object, so
//    pointer-shared relations keep their entries alive across publishes
//    and only entries whose support actually changed are dropped. The
//    shared_ptr pin makes the comparison ABA-safe (the old object cannot
//    be freed and its address reused while the entry holds it).
//
//  * Bounded memory. Segmented LRU (probation -> protected) per shard
//    with per-entry byte accounting against a fixed cap: a new entry
//    lands in probation, a re-hit promotes it, eviction drains probation
//    tails first so one burst of one-shot queries cannot flush the
//    protected working set.
//
// The cache is a pure answer store. Collapsing concurrent identical
// misses onto one evaluation is the service's single-flight table, which
// runs whether or not a cache exists.
//
// Thread safety: every public method is safe from any thread. Shards are
// independently locked. Nothing here blocks on evaluation — the cache only
// stores finished answers.
#ifndef BINCHAIN_CACHE_ANSWER_CACHE_H_
#define BINCHAIN_CACHE_ANSWER_CACHE_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "eval/engine.h"
#include "storage/database.h"

namespace binchain {
namespace obs {
class Counter;
class Gauge;
class Histogram;
}  // namespace obs

namespace cache {

/// One materialized answer, shared between the cache and every response
/// replaying it (responses copy the tuples out; the shared_ptr only keeps
/// the entry's data alive past a concurrent eviction).
struct CachedAnswer {
  std::vector<Tuple> tuples;  // sorted, deduplicated — verbatim engine output
  EvalStats stats;            // replayed verbatim so batch totals stay
                              // byte-identical cache-on vs cache-off
  uint64_t fetches = 0;
  uint64_t result_hash = 0;  // FNV-1a over the tuples (see HashTuples)
};

/// One supporting relation of a cached entry: the relation object the
/// answer was computed from, pinned. `rel` may be null (the predicate had
/// no EDB relation at fill time — e.g. an unknown-constant empty answer);
/// the entry then stays valid exactly while the predicate remains absent.
struct SupportDep {
  SymbolId pred = 0;
  std::shared_ptr<const Relation> rel;
  uint64_t dead_mutations = 0;
};

/// Point-in-time cache statistics for /debug/cache, the CLI `cache`
/// command, and tests. Counters are per-cache (the process-wide
/// binchain_cache_* registry family aggregates across services).
struct CacheSnapshot {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t inserts = 0;
  uint64_t evictions = 0;
  uint64_t invalidations = 0;  // entries dropped by support-set changes
  uint64_t entries = 0;
  uint64_t bytes = 0;
  uint64_t max_bytes = 0;
  uint64_t program_fingerprint = 0;

  /// hits / (hits + misses), 0 when idle.
  double HitRate() const {
    const uint64_t total = hits + misses;
    return total == 0 ? 0.0 : static_cast<double>(hits) / total;
  }
  /// One JSON object (no trailing newline), appended to *out.
  void RenderJson(std::string* out) const;
};

class AnswerCache {
 public:
  /// `max_bytes` caps the summed per-entry byte accounting (keys, tuples,
  /// the stats' answer curve, support sets, bookkeeping); must be > 0 — a
  /// service that wants no cache simply constructs none.
  /// `program_fingerprint` identifies the prepared program the keys were
  /// derived under (recorded in every key; see QueryService::RequestKey).
  AnswerCache(size_t max_bytes, uint64_t program_fingerprint);
  ~AnswerCache();  // out-of-line: Shard is incomplete here
  AnswerCache(const AnswerCache&) = delete;
  AnswerCache& operator=(const AnswerCache&) = delete;

  /// Exact-match lookup, validated against `db` (the epoch the requesting
  /// batch pinned). A stale entry — any support relation's pointer or
  /// dead_mutations counter differing in `db` — is dropped and reported
  /// as a miss. Returns the shared answer or nullptr.
  std::shared_ptr<const CachedAnswer> Lookup(const std::string& key,
                                             const Database& db);

  /// Inserts (or keeps — first writer wins on a racing double insert) the
  /// answer under `key` with its support set, accounted against the byte
  /// cap. `epoch` is the epoch the answer was computed on. Entries larger
  /// than the whole cache are not stored.
  void Insert(const std::string& key, std::vector<SupportDep> deps,
              std::shared_ptr<const CachedAnswer> answer, uint64_t epoch);

  /// Publish-time sweep: re-validates every entry against the new serving
  /// tip, dropping exactly the entries whose support set changed and
  /// re-stamping the survivors. Selective by construction — a publish
  /// that touched relation R invalidates only R-supported entries.
  /// Lookups self-validate too, so the swap -> sweep window is safe; the
  /// sweep's job is to release stale pins promptly and keep the
  /// invalidation counter meaningful per publish.
  void OnPublish(const Database& tip);

  /// Records one cache-hit response latency into
  /// binchain_cache_hit_latency_ms.
  void ObserveHitLatency(double ms);

  /// Drops every entry (counters survive).
  void Clear();

  CacheSnapshot Snapshot() const;
  uint64_t program_fingerprint() const { return fingerprint_; }
  size_t max_bytes() const { return max_bytes_; }

  /// FNV-1a over (count, symbols) of a tuple set — the stored
  /// result_hash, for /debug/cache and bench cross-checks.
  static uint64_t HashTuples(const std::vector<Tuple>& tuples);

 private:
  struct Entry;
  struct Shard;
  static constexpr size_t kShards = 8;

  Shard& ShardFor(const std::string& key);
  /// True when every dep still matches `db` (pointer + dead_mutations).
  static bool Valid(const Entry& e, const Database& db);
  /// Approximate resident footprint of one entry: the Entry and
  /// CachedAnswer records, the key, the tuples, the support set and the
  /// answer curve's steps.
  static size_t EntryBytes(const std::string& key, const Entry& e);
  /// Unlinks + erases `e` from `s` (caller holds the shard lock).
  void EraseLocked(Shard& s, Entry* e);
  /// Evicts probation tails, then protected tails, until the shard is
  /// within its share of the byte cap.
  void EvictLocked(Shard& s);

  const size_t max_bytes_;
  const uint64_t fingerprint_;
  std::unique_ptr<Shard[]> shards_;

  // Per-cache counters (Snapshot) ...
  std::atomic<uint64_t> hits_{0}, misses_{0}, inserts_{0}, evictions_{0},
      invalidations_{0};
  // ... mirrored into the process-wide binchain_cache_* registry family.
  obs::Counter* m_hits_;
  obs::Counter* m_misses_;
  obs::Counter* m_inserts_;
  obs::Counter* m_evictions_;
  obs::Counter* m_invalidations_;
  obs::Gauge* m_bytes_;
  obs::Gauge* m_entries_;
  obs::Histogram* m_hit_latency_;
};

}  // namespace cache
}  // namespace binchain

#endif  // BINCHAIN_CACHE_ANSWER_CACHE_H_
