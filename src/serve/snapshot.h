/**
 * @file
 * Immutable model snapshots for online serving (the publish half of the
 * train→publish→serve loop, Sec. 4.1.3). A snapshot freezes everything a
 * forward pass needs — dense MLP weights, per-shard embedding tables
 * under a serving plan, replicated DP tables — so serving never races
 * the trainer's updates. Snapshots are published through a versioned
 * registry with RCU-style shared_ptr hot-swap: readers grab the current
 * snapshot at batch dispatch and keep serving it even if a newer version
 * lands mid-batch; the old version is reclaimed when its last in-flight
 * batch drops the reference.
 */
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <vector>

#include "core/checkpoint.h"
#include "core/distributed_trainer.h"
#include "core/dlrm_config.h"
#include "ops/embedding_table.h"
#include "sharding/planner.h"

namespace neo::serve {

/**
 * One frozen model version. Holds the COMPLETE model (every shard of
 * the serving plan, not just one rank's), shared read-only across rank
 * threads; each rank's engine touches only the shards the plan assigned
 * it. EmbeddingTable row reads are const, so concurrent lookups from
 * all ranks are race-free by construction.
 */
struct ModelSnapshot {
    /** Registry version (strictly increasing across publishes). */
    uint64_t version = 0;
    /** Checkpoint epoch (or step counter) this snapshot was cut from. */
    uint64_t source_epoch = 0;

    core::DlrmConfig config;
    /** Serving plan the shards below are laid out under. */
    sharding::ShardingPlan plan;

    /** One frozen non-DP shard. */
    struct ShardData {
        sharding::Shard meta;
        ops::EmbeddingTable table;
        ShardData(const sharding::Shard& m, ops::EmbeddingTable t)
            : meta(m), table(std::move(t)) {}
    };
    /** All non-DP shards of the plan, canonical (ShardLess) order. */
    std::vector<ShardData> shards;

    /** One replicated data-parallel table. */
    struct DpData {
        int table = -1;
        ops::EmbeddingTable replica;
        DpData(int idx, ops::EmbeddingTable t)
            : table(idx), replica(std::move(t)) {}
    };
    std::vector<DpData> dp_tables;

    /** Dense state: bottom MLP then top MLP (Mlp::Save format); trailing
     *  bytes (e.g. a checkpoint's dense-optimizer state) are ignored. */
    std::vector<uint8_t> dense_blob;
};

/**
 * Build a snapshot from a published checkpoint store (non-collective —
 * any single thread can call, no process group needed). Allocates the
 * pieces of `serving_plan`, which may differ entirely from the training
 * sharding (column slices included), and fills them with
 * core::ReadCheckpoint, which streams the store's per-rank baselines
 * and deltas straight into them.
 */
std::shared_ptr<const ModelSnapshot> SnapshotFromStore(
    const core::CheckpointStore& store, const core::DlrmConfig& config,
    const sharding::ShardingPlan& serving_plan, uint64_t version);

/**
 * Cut a snapshot from a live trainer without going through a checkpoint
 * (collective on the trainer's process group; every rank must call).
 * Each rank ships its shards to rank 0, which copies each one onto the
 * `serving_plan` pieces it overlaps. Returns the snapshot on rank 0 and
 * nullptr on the other ranks.
 */
std::shared_ptr<const ModelSnapshot> SnapshotFromTrainer(
    core::DistributedDlrm& trainer,
    const sharding::ShardingPlan& serving_plan, uint64_t version,
    uint64_t source_epoch = 0);

/**
 * Versioned publication point between trainer and server. Publish
 * installs a new current snapshot (versions must strictly increase);
 * Current hands out a shared_ptr, so a reader's view survives any
 * number of subsequent swaps. The registry additionally retains a
 * bounded history of displaced versions so per-request version pinning
 * (A/B splits) can keep serving an older model while the fleet rolls
 * forward. Thread-safe.
 */
class SnapshotRegistry
{
  public:
    /** Install `snapshot` as current; throws unless its version is
     *  strictly greater than the current one. */
    void Publish(std::shared_ptr<const ModelSnapshot> snapshot);

    /** Current snapshot (nullptr before the first publish). */
    std::shared_ptr<const ModelSnapshot> Current() const;

    /** Retained snapshot with exactly `version` (current or history);
     *  nullptr when that version was never published or aged out. */
    std::shared_ptr<const ModelSnapshot> Get(uint64_t version) const;

    /** Version of the current snapshot (0 before the first publish). */
    uint64_t CurrentVersion() const;

    /** Number of successful publishes. */
    uint64_t SwapCount() const;

    /** Versions retained for Get() (current included); trimming applies
     *  on the next Publish. Minimum 1 (the current version). */
    void SetHistoryDepth(size_t depth);

  private:
    mutable std::mutex mutex_;
    /** Retained versions, oldest first; back() is current. */
    std::deque<std::shared_ptr<const ModelSnapshot>> history_;
    size_t history_depth_ = 4;
    uint64_t swaps_ = 0;
};

}  // namespace neo::serve
