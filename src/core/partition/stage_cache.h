#pragma once

#include <cstddef>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "core/partition/partitioner.h"

namespace dpipe {

/// Memoizes DpPartitioner::stage_cost results for one fixed (ProfileDb,
/// CommModel, PartitionOptions) context. The DP partitioner revisits the
/// same (lo, hi, replicas, chain_begin) tuple from many DP states (and the
/// bidirectional DP re-costs each down-stage under every up-placement it
/// pairs it with), the brute-force oracle re-enumerates the same stages,
/// and the schedule builder re-derives the chosen stages' timings — all of
/// which collapse to one computation per distinct key here.
///
/// A cache is only valid for the PartitionOptions it was first used with:
/// the first bind() snapshots every option field stage_cost reads, and
/// later binds verify the snapshot (DPIPE_ENSURE on mismatch), so sharing
/// one cache across the DP, the oracle, and the builder inside one planner
/// evaluation is safe, while accidental reuse across configurations is a
/// hard error instead of silent wrong numbers.
///
/// Not thread-safe: use one cache per thread (the planner creates one per
/// bidirectional (S, M, D) evaluation, each of which runs on a single
/// search thread).
class StageCostCache {
 public:
  struct Key {
    int component = -1;
    int lo = 0;
    int hi = 0;
    int replicas = 1;
    int chain_begin = 0;
    PipeDirection direction = PipeDirection::kDown;

    friend bool operator==(const Key&, const Key&) = default;
  };

  /// Returns the cached cost for `key`, or nullptr on a miss. Hit/miss
  /// counters update either way (mutable: lookups from the builder go
  /// through a const pointer).
  [[nodiscard]] const StageCost* find(const Key& key) const;

  void insert(const Key& key, const StageCost& cost);

  /// Snapshot (first call) or verify (later calls) the option fields
  /// stage_cost depends on. Throws std::logic_error if this cache is
  /// reused under different options.
  void bind(const PartitionOptions& opts);

  [[nodiscard]] std::size_t size() const { return map_.size(); }
  [[nodiscard]] std::size_t hits() const { return hits_; }
  [[nodiscard]] std::size_t misses() const { return misses_; }

  /// Copies every entry absent from this cache out of `other` (values for
  /// shared keys are identical by the determinism of stage_cost, so
  /// insert-if-absent is exact) and folds its hit/miss counters in. Both
  /// caches must be bound to the same fingerprint (or one unbound);
  /// DPIPE_ENSURE otherwise. Used by StageCostStore to fold a contended
  /// private cache back into the shared entry.
  void merge_from(const StageCostCache& other);

 private:
  struct KeyHash {
    std::size_t operator()(const Key& key) const {
      // FNV-1a over the key fields.
      std::size_t h = 1469598103934665603ull;
      const auto mix = [&h](std::size_t v) {
        h = (h ^ v) * 1099511628211ull;
      };
      mix(static_cast<std::size_t>(key.component));
      mix(static_cast<std::size_t>(key.lo));
      mix(static_cast<std::size_t>(key.hi));
      mix(static_cast<std::size_t>(key.replicas));
      mix(static_cast<std::size_t>(key.chain_begin));
      mix(static_cast<std::size_t>(key.direction));
      return h;
    }
  };

  /// Every PartitionOptions field read by DpPartitioner::stage_cost.
  struct Fingerprint {
    double microbatch_size = 0.0;
    int group_size = 0;
    int data_parallel_degree = 0;
    bool self_conditioning = false;
    double self_cond_prob = 0.0;
    double comm_competition_factor = 1.0;
    std::vector<int> device_ranks;
    int dp_rank_stride = 0;

    friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
  };

  std::optional<Fingerprint> bound_;
  std::unordered_map<Key, StageCost, KeyHash> map_;
  mutable std::size_t hits_ = 0;
  mutable std::size_t misses_ = 0;
};

/// A persistent, thread-safe pool of StageCostCaches keyed by the full
/// evaluation context — a caller-supplied context fingerprint (model +
/// cluster + profiler, so tenants with different profiles never share
/// costs) plus world size and the (S, M, D, dp, microbatch) combo — so
/// costs memoized by one Planner::plan() survive into later plans: the
/// warm re-plan path of elastic recovery and the plan service's shared
/// cross-tenant store. Keying by the whole context keeps every per-combo
/// cache fingerprint-valid by construction: a key collision implies
/// identical PartitionOptions, so bind() never trips.
///
/// Concurrency model: the map is mutex-guarded, and caches are handed out
/// through exclusive leases. acquire() grants the shared entry when it is
/// free; when another lease already holds it, the caller gets a fresh
/// private cache instead, whose contents are merged back into the shared
/// entry on release (insert-if-absent — values are deterministic, so the
/// merge is exact). StageCostCache itself stays single-threaded; the lease
/// protocol is what makes concurrent Planner::plan() calls over one store
/// race-free.
class StageCostStore {
 public:
  struct Key {
    std::string context;  ///< Model/cluster/profiler fingerprint.
    int world = 0;
    int num_stages = 0;
    int num_microbatches = 0;
    int group_size = 0;
    int data_parallel_degree = 0;
    double microbatch_size = 0.0;

    friend bool operator<(const Key& a, const Key& b) {
      return std::tie(a.context, a.world, a.num_stages, a.num_microbatches,
                      a.group_size, a.data_parallel_degree,
                      a.microbatch_size) <
             std::tie(b.context, b.world, b.num_stages, b.num_microbatches,
                      b.group_size, b.data_parallel_degree,
                      b.microbatch_size);
    }
  };

  struct Stats {
    std::size_t entries = 0;         ///< Distinct (context, combo) caches.
    std::size_t acquires = 0;
    std::size_t shared_grants = 0;   ///< Leases that got the shared entry.
    std::size_t private_grants = 0;  ///< Contended leases (private cache).
    std::size_t merged_back = 0;     ///< Private caches folded into entries
                                     ///< (immediately or via the pending
                                     ///< queue).
    std::size_t dropped_merges = 0;  ///< Caches whose warmth was lost: the
                                     ///< entry was invalidated while the
                                     ///< lease was out.
    std::size_t invalidated = 0;     ///< Entries removed by invalidate/clear.
    std::size_t cost_hits = 0;       ///< Summed over idle entries' caches.
    std::size_t cost_misses = 0;
  };

  /// An exclusive handle on one combo's cache. Movable, not copyable; the
  /// destructor releases the entry (merging a private cache back into the
  /// shared one when possible). cache() stays valid for the lease lifetime
  /// even if the entry is invalidated concurrently.
  class Lease {
   public:
    Lease() = default;
    Lease(Lease&& other) noexcept { *this = std::move(other); }
    Lease& operator=(Lease&& other) noexcept;
    Lease(const Lease&) = delete;
    Lease& operator=(const Lease&) = delete;
    ~Lease() { release(); }

    [[nodiscard]] StageCostCache* cache() const { return cache_.get(); }
    [[nodiscard]] explicit operator bool() const { return cache_ != nullptr; }
    void release();

   private:
    friend class StageCostStore;
    StageCostStore* store_ = nullptr;
    Key key_;
    std::shared_ptr<StageCostCache> cache_;
    bool private_ = false;
  };

  /// Leases the cache for one (context, world, S, M, D, dp,
  /// microbatch_size) evaluation context, creating the entry on first use.
  /// Thread-safe.
  [[nodiscard]] Lease acquire(const std::string& context, int world,
                              int num_stages, int num_microbatches,
                              int group_size, int data_parallel_degree,
                              double microbatch_size);

  /// Drops every entry whose context equals `context` (e.g. the
  /// model/cluster fingerprint of an invalidated tenant). Outstanding
  /// leases keep their caches alive; their release becomes a no-op merge.
  /// Returns the number of entries removed.
  std::size_t invalidate(const std::string& context);

  /// Drops every entry.
  void clear();

  [[nodiscard]] std::size_t size() const;
  [[nodiscard]] Stats stats() const;

 private:
  struct Entry {
    std::shared_ptr<StageCostCache> cache;
    bool busy = false;
    /// Private caches released while the shared lease was out; folded into
    /// `cache` when that lease returns (merging earlier would race with
    /// its holder).
    std::vector<std::shared_ptr<StageCostCache>> pending;
  };

  void release_lease(const Key& key, bool was_private,
                     const std::shared_ptr<StageCostCache>& cache);

  mutable std::mutex mutex_;
  std::map<Key, Entry> map_;
  Stats stats_;
};

}  // namespace dpipe
