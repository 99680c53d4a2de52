#include "cache/answer_cache.h"

#include <cstdio>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"

namespace binchain {
namespace cache {

namespace {

uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const unsigned char* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ull;
  }
  return h;
}

}  // namespace

void CacheSnapshot::RenderJson(std::string* out) const {
  char buf[640];
  std::snprintf(
      buf, sizeof(buf),
      "{\"hits\": %llu, \"misses\": %llu, \"hit_rate\": %.4f, "
      "\"inserts\": %llu, \"evictions\": %llu, \"invalidations\": %llu, "
      "\"entries\": %llu, \"bytes\": %llu, "
      "\"max_bytes\": %llu, \"program_fingerprint\": \"0x%016llx\"}",
      static_cast<unsigned long long>(hits),
      static_cast<unsigned long long>(misses), HitRate(),
      static_cast<unsigned long long>(inserts),
      static_cast<unsigned long long>(evictions),
      static_cast<unsigned long long>(invalidations),
      static_cast<unsigned long long>(entries),
      static_cast<unsigned long long>(bytes),
      static_cast<unsigned long long>(max_bytes),
      static_cast<unsigned long long>(program_fingerprint));
  out->append(buf);
}

/// One cached answer plus the metadata validation and eviction need. Map
/// values are stable (unordered_map nodes), so the LRU lists hold plain
/// Entry pointers.
struct AnswerCache::Entry {
  std::string key;  // owned here; the map keys by string_view into it
  std::shared_ptr<const CachedAnswer> answer;
  std::vector<SupportDep> deps;
  /// Epoch the support set last validated clean against — the lookup
  /// fast path (stamp == batch epoch skips the per-dep walk).
  uint64_t validated_epoch = 0;
  size_t bytes = 0;
  bool in_protected = false;  // which LRU segment holds lru_it
  std::list<Entry*>::iterator lru_it;
};

/// One lock-striped slice of the key space: its own map and its own
/// segmented LRU, sized against max_bytes / kShards.
struct AnswerCache::Shard {
  std::mutex mu;
  std::unordered_map<std::string, Entry> entries;
  std::list<Entry*> probation;    // front = most recent
  std::list<Entry*> protected_;   // front = most recent
  size_t bytes = 0;
};

AnswerCache::AnswerCache(size_t max_bytes, uint64_t program_fingerprint)
    : max_bytes_(max_bytes == 0 ? 1 : max_bytes),
      fingerprint_(program_fingerprint),
      shards_(new Shard[kShards]) {
  obs::Registry& r = obs::Registry::Global();
  m_hits_ = r.GetCounter("binchain_cache_hits_total",
                         "Answer-cache lookups served from a valid entry");
  m_misses_ = r.GetCounter(
      "binchain_cache_misses_total",
      "Answer-cache lookups that missed (stale entries included)");
  m_inserts_ = r.GetCounter("binchain_cache_inserts_total",
                            "Answers materialized into the cache");
  m_evictions_ = r.GetCounter(
      "binchain_cache_evictions_total",
      "Entries evicted by the segmented-LRU byte cap");
  m_invalidations_ = r.GetCounter(
      "binchain_cache_invalidations_total",
      "Entries dropped because a supporting relation changed");
  m_bytes_ = r.GetGauge("binchain_cache_bytes",
                        "Resident answer-cache bytes (all caches)");
  m_entries_ = r.GetGauge("binchain_cache_entries",
                          "Resident answer-cache entries (all caches)");
  m_hit_latency_ = r.GetHistogram(
      "binchain_cache_hit_latency_ms",
      "Latency of cache-hit responses, submission to completion");
}

AnswerCache::~AnswerCache() {
  // Return this cache's residency to the global gauges: they aggregate
  // across caches, and a died-with-entries cache must not pin them high.
  Clear();
}

void AnswerCache::ObserveHitLatency(double ms) { m_hit_latency_->Observe(ms); }

uint64_t AnswerCache::HashTuples(const std::vector<Tuple>& tuples) {
  uint64_t h = 1469598103934665603ull;
  uint64_t n = tuples.size();
  h = Fnv1a(&n, sizeof(n), h);
  for (const Tuple& t : tuples) {
    for (SymbolId c : t) h = Fnv1a(&c, sizeof(c), h);
  }
  return h;
}

AnswerCache::Shard& AnswerCache::ShardFor(const std::string& key) {
  uint64_t h = Fnv1a(key.data(), key.size(), 1469598103934665603ull);
  return shards_[h % kShards];
}

bool AnswerCache::Valid(const Entry& e, const Database& db) {
  for (const SupportDep& d : e.deps) {
    const Relation* now = db.FindById(d.pred);
    if (now != d.rel.get()) return false;
    if (now != nullptr && now->dead_mutations() != d.dead_mutations) {
      // Defensive: copy-on-write already replaces the object on every
      // retraction, but the counter check keeps the invalidation rule
      // honest against any future in-place dead-set mutation.
      return false;
    }
  }
  return true;
}

size_t AnswerCache::EntryBytes(const std::string& key, const Entry& e) {
  size_t bytes = sizeof(Entry) + key.size() + sizeof(CachedAnswer);
  bytes += e.deps.size() * sizeof(SupportDep);
  if (e.answer != nullptr) {
    bytes += e.answer->tuples.size() * sizeof(Tuple);
    for (const Tuple& t : e.answer->tuples) bytes += t.size() * sizeof(SymbolId);
    bytes += e.answer->stats.answers_per_iteration.heap_bytes();
  }
  return bytes;
}

void AnswerCache::EraseLocked(Shard& s, Entry* e) {
  if (e->in_protected) {
    s.protected_.erase(e->lru_it);
  } else {
    s.probation.erase(e->lru_it);
  }
  s.bytes -= e->bytes;
  m_bytes_->Add(-static_cast<int64_t>(e->bytes));
  m_entries_->Add(-1);
  // Local copy: e->key lives inside the node erase() destroys.
  const std::string key = e->key;
  s.entries.erase(key);
}

void AnswerCache::EvictLocked(Shard& s) {
  const size_t cap = max_bytes_ / kShards;
  while (s.bytes > cap && !(s.probation.empty() && s.protected_.empty())) {
    Entry* victim =
        !s.probation.empty() ? s.probation.back() : s.protected_.back();
    EraseLocked(s, victim);
    evictions_.fetch_add(1, std::memory_order_relaxed);
    m_evictions_->Inc();
  }
}

std::shared_ptr<const CachedAnswer> AnswerCache::Lookup(
    const std::string& key, const Database& db) {
  Shard& s = ShardFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  auto it = s.entries.find(key);
  if (it == s.entries.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    m_misses_->Inc();
    return nullptr;
  }
  Entry& e = it->second;
  if (e.validated_epoch != db.epoch()) {
    if (!Valid(e, db)) {
      EraseLocked(s, &e);
      invalidations_.fetch_add(1, std::memory_order_relaxed);
      m_invalidations_->Inc();
      misses_.fetch_add(1, std::memory_order_relaxed);
      m_misses_->Inc();
      return nullptr;
    }
    e.validated_epoch = db.epoch();
  }
  // Segmented-LRU promotion: a probation re-hit earns protected status; a
  // protected hit just refreshes recency.
  if (e.in_protected) {
    s.protected_.splice(s.protected_.begin(), s.protected_, e.lru_it);
  } else {
    s.probation.erase(e.lru_it);
    s.protected_.push_front(&e);
    e.lru_it = s.protected_.begin();
    e.in_protected = true;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  m_hits_->Inc();
  return e.answer;
}

void AnswerCache::Insert(const std::string& key, std::vector<SupportDep> deps,
                         std::shared_ptr<const CachedAnswer> answer,
                         uint64_t epoch) {
  Shard& s = ShardFor(key);
  std::lock_guard<std::mutex> lock(s.mu);
  if (s.entries.count(key) != 0) return;  // racing identical insert: keep first
  Entry e;
  e.key = key;
  e.answer = std::move(answer);
  e.deps = std::move(deps);
  e.validated_epoch = epoch;
  e.bytes = EntryBytes(key, e);
  if (e.bytes > max_bytes_ / kShards) return;  // larger than its whole shard
  auto it = s.entries.emplace(key, std::move(e)).first;
  Entry& stored = it->second;
  s.probation.push_front(&stored);
  stored.lru_it = s.probation.begin();
  s.bytes += stored.bytes;
  m_bytes_->Add(static_cast<int64_t>(stored.bytes));
  m_entries_->Add(1);
  inserts_.fetch_add(1, std::memory_order_relaxed);
  m_inserts_->Inc();
  EvictLocked(s);
}

void AnswerCache::OnPublish(const Database& tip) {
  for (size_t i = 0; i < kShards; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    for (auto it = s.entries.begin(); it != s.entries.end();) {
      Entry& e = it->second;
      ++it;  // EraseLocked invalidates e's iterator, not the successor
      if (Valid(e, tip)) {
        e.validated_epoch = tip.epoch();
      } else {
        EraseLocked(s, &e);
        invalidations_.fetch_add(1, std::memory_order_relaxed);
        m_invalidations_->Inc();
      }
    }
  }
}

void AnswerCache::Clear() {
  for (size_t i = 0; i < kShards; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    m_bytes_->Add(-static_cast<int64_t>(s.bytes));
    m_entries_->Add(-static_cast<int64_t>(s.entries.size()));
    s.probation.clear();
    s.protected_.clear();
    s.entries.clear();
    s.bytes = 0;
  }
}

CacheSnapshot AnswerCache::Snapshot() const {
  CacheSnapshot snap;
  snap.hits = hits_.load(std::memory_order_relaxed);
  snap.misses = misses_.load(std::memory_order_relaxed);
  snap.inserts = inserts_.load(std::memory_order_relaxed);
  snap.evictions = evictions_.load(std::memory_order_relaxed);
  snap.invalidations = invalidations_.load(std::memory_order_relaxed);
  snap.max_bytes = max_bytes_;
  snap.program_fingerprint = fingerprint_;
  for (size_t i = 0; i < kShards; ++i) {
    Shard& s = shards_[i];
    std::lock_guard<std::mutex> lock(s.mu);
    snap.entries += s.entries.size();
    snap.bytes += s.bytes;
  }
  return snap;
}

}  // namespace cache
}  // namespace binchain
