/**
 * @file
 * Forward-only sharded inference over a frozen snapshot. One engine per
 * rank; Forward is collective (mirrors the trainer's hybrid-parallel
 * data flow through the shared ShardRouter — input AllToAll, local
 * pooled lookup, pooled AllToAll, interaction, top MLP — then an
 * AllGather so every rank holds the full batch's logits). No optimizer
 * state exists and no parameter is ever written: snapshot tables are
 * read via const row accessors, so all ranks share them race-free.
 *
 * Tables whose shard exceeds `ddr_threshold_bytes` are served through
 * the tiered cache path (a CachedEmbeddingStore copy) — the DDR-resident
 * serving story of Sec. 4.1.3: each batch's distinct rows are read
 * through the cache once (ops::StageRows), then every shard, direct or
 * tiered, pools in one ops::PoolBags call. Bitwise identical to direct
 * lookup because the cache is lossless.
 */
#pragma once

#include <memory>
#include <vector>

#include "cache/cached_embedding_store.h"
#include "comm/process_group.h"
#include "core/shard_router.h"
#include "ops/mlp.h"
#include "ops/row_store.h"
#include "serve/snapshot.h"
#include "tensor/interaction.h"

namespace neo::serve {

struct EngineOptions {
    /** Wire precision of the pooled-embedding AllToAll. */
    Precision forward_alltoall = Precision::kFp32;
    /**
     * Shards at least this many parameter bytes serve through the
     * HBM-cache-over-DDR tiered path instead of direct reads. 0 (the
     * default) disables tiering.
     */
    size_t ddr_threshold_bytes = 0;
    /** Cache geometry for tiered shards. */
    cache::CacheConfig cache;
};

/** Per-rank forward-only executor. */
class InferenceEngine
{
  public:
    /** @param pg This rank's communicator (not owned; must outlive). */
    InferenceEngine(const EngineOptions& options, comm::ProcessGroup& pg);

    /**
     * Score a dispatched batch (collective; every rank passes the SAME
     * snapshot and global batch). The global batch size must be a
     * multiple of the world size; each rank computes its b_local slice
     * and the final AllGather leaves all b_global logits in
     * `logits_out` on every rank, rank-0 sample order preserved.
     */
    void Forward(const std::shared_ptr<const ModelSnapshot>& snapshot,
                 const Matrix& global_dense,
                 const data::KeyedJagged& global_sparse,
                 std::vector<float>& logits_out);

    /**
     * Pre-build the version state for `snapshot` off the serve path
     * (local, non-collective). The next Forward on that version promotes
     * the prepared state instead of paying the cold build inline — the
     * snapshot warm-up that removes the first-request latency cliff
     * after a Publish. Building is identical to the inline path, so a
     * warmed Forward is bitwise identical to a cold one. No-op if the
     * engine is already on (or warmed for) that version.
     */
    void Prefetch(const std::shared_ptr<const ModelSnapshot>& snapshot);

    /** Aggregate tiered-cache hit rate across local shards ([0,1];
     *  0 when no shard is tiered). A batch reads each distinct row of a
     *  tiered shard once, so repeats within a batch count once. */
    double CacheHitRate() const;

  private:
    /** Tiered serving state for one DDR-resident shard. Heap-pinned:
     *  the store holds pointers to the tiers. */
    struct Tiered {
        /** The store charges traffic to these; nothing reads it. */
        cache::MemoryTier hbm;
        cache::MemoryTier ddr;
        cache::CachedEmbeddingStore store;
        /** The current batch's rows, read through the cache. */
        ops::StagedRows staged;
        Tiered(const cache::CacheConfig& config,
               const ops::EmbeddingTable& table);
    };

    /** Everything derived from one snapshot version. Rebuilt on version
     *  change (one-slot cache: versions are monotonic and batches use
     *  one snapshot each, so LRU depth 1 suffices). */
    struct VersionState {
        std::shared_ptr<const ModelSnapshot> snapshot;
        std::unique_ptr<ops::Mlp> bottom;
        std::unique_ptr<ops::Mlp> top;
        std::unique_ptr<DotInteraction> interaction;
        std::unique_ptr<core::ShardRouter> router;
        /** This rank's shards (canonical order, == router local order). */
        std::vector<const ModelSnapshot::ShardData*> local_shards;
        /** Parallel to local_shards; null => direct const lookup. */
        std::vector<std::unique_ptr<Tiered>> tiered;
    };

    std::unique_ptr<VersionState> BuildVersionState(
        const std::shared_ptr<const ModelSnapshot>& snapshot);

    EngineOptions options_;
    comm::ProcessGroup& pg_;
    int rank_;
    int world_;
    std::unique_ptr<VersionState> state_;
    /** Warm-built state awaiting promotion (see Prefetch). Only the rank
     *  loop thread touches the engine, so no lock. */
    std::unique_ptr<VersionState> next_state_;
};

}  // namespace neo::serve
