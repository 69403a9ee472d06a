/**
 * @file
 * Checkpointing for very large embedding models (Sec. 4.4; Check-N-Run
 * [9]). Writing terabytes every few minutes is infeasible, but between
 * checkpoints only the rows a batch touched actually changed — so after
 * one full baseline, each incremental checkpoint stores just the modified
 * rows (differential checkpointing). For Zipf-skewed access, deltas are
 * orders of magnitude smaller than the table.
 */
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <vector>

#include "common/serialize.h"
#include "core/dlrm_config.h"
#include "ops/embedding_table.h"
#include "ops/sparse_optimizer.h"

namespace neo::core {

class DistributedDlrm;

/**
 * Checkpoint destination shared by all ranks of a job: one baseline plus
 * an ordered delta chain per rank. Stands in for the distributed blob
 * store a production Check-N-Run deployment writes to; thread-safe
 * because rank threads write their streams concurrently.
 *
 * Two backends: default-constructed stores hold everything in memory;
 * a store constructed with a directory spills every stream to disk
 * (`<dir>/rank_<r>/baseline.bin`, `delta_00000.bin`, ...) and reads it
 * back on demand, so published epochs survive the process — a fresh
 * store opened on the same directory sees the previous job's streams.
 * Files are written to a temp name and renamed, so readers (e.g. a
 * serving process loading a snapshot) never observe a half-written
 * stream.
 */
class CheckpointStore
{
  public:
    /** In-memory store. */
    CheckpointStore() = default;

    /** Disk-backed store rooted at `directory` (created if missing). */
    explicit CheckpointStore(std::string directory);

    /** Spill directory, empty for in-memory stores. */
    const std::string& directory() const { return dir_; }

    /** Replace `rank`'s baseline and discard its delta chain. */
    void PutBaseline(int rank, std::vector<uint8_t> bytes);

    /** Append one delta to `rank`'s chain. */
    void AppendDelta(int rank, std::vector<uint8_t> bytes);

    /** Latest baseline bytes for `rank` (throws if none). */
    std::vector<uint8_t> Baseline(int rank) const;

    /** Delta chain for `rank`, in append order. */
    std::vector<std::vector<uint8_t>> Deltas(int rank) const;

    /** One immutable stream, shared rather than copied. */
    using StreamBytes = std::shared_ptr<const std::vector<uint8_t>>;

    /** A rank's baseline and its delta chain, taken together. */
    struct RankStreams {
        StreamBytes baseline;
        std::vector<StreamBytes> deltas;
    };

    /**
     * `rank`'s baseline and delta chain (throws if it has no baseline).
     * An in-memory store lends its bytes without copying; they stay valid
     * while held, even if the rank writes a new baseline meanwhile. A
     * disk store reads the files.
     */
    RankStreams Streams(int rank) const;

    /** Ranks with a stored baseline, ascending. */
    std::vector<int> Ranks() const;

    /** Total stored bytes across all ranks (for cost calibration). */
    uint64_t TotalBytes() const;

    /**
     * Monotonic write counter: bumped by every PutBaseline/AppendDelta.
     * A serving-side publisher lane polls this to notice "the trainer
     * published something new" without reading the store — when the
     * generation moved and the streams are at a consistent epoch, it
     * cuts and warm-publishes a fresh snapshot (see
     * FleetRouter::PublishFromStore).
     */
    uint64_t Generation() const;

  private:
    std::string RankDir(int rank) const;

    mutable std::mutex mutex_;
    std::map<int, RankStreams> entries_;
    std::string dir_;
    uint64_t generation_ = 0;
};

/**
 * Where a checkpoint read writes: the rectangle of logical table `table`
 * spanning global rows [row_begin, row_end) and columns [col_begin,
 * col_end), held by `rows` (local row 0 = global row_begin, local column
 * 0 = col_begin), plus, optionally, the matching sparse-optimizer row
 * state (full-width targets only: optimizer state is per logical row).
 */
struct RestoreTarget {
    int table = -1;
    int64_t row_begin = 0;
    int64_t row_end = 0;
    int64_t col_begin = 0;
    int64_t col_end = 0;
    ops::EmbeddingTable* rows = nullptr;
    ops::SparseOptimizer* optimizer = nullptr;
};

/** What ReadCheckpoint returns besides the rows it wrote. */
struct CheckpointContents {
    /** Consistency epoch every stream ended at. */
    uint64_t epoch = 0;
    /** Replicated dense state: bottom MLP + top MLP + dense optimizer. */
    std::vector<uint8_t> dense_blob;
};

/**
 * The one checkpoint reader, shared by elastic restore
 * (DistributedCheckpointer::RestoreInto) and snapshot building
 * (serve::SnapshotFromStore). Streams each writer rank's baseline and
 * then its deltas, in order, and writes only the rows inside `targets`,
 * straight into their tables and optimizer state — nothing the size of
 * a logical table is built, so a reader pays for what it holds, not for
 * the model. Non-collective.
 *
 * Restore never trusts checkpoint bytes: it throws std::runtime_error on
 * bad magics or rank tags, truncated or oversized fields, bytes after a
 * stream's end, a delta chain whose epochs are not consecutive, streams
 * that end at different epochs, entries whose shape, optimizer layout or
 * row range does not fit `config`, column-wise writer shards, a missing
 * dense state, and a target row that no baseline covers.
 */
CheckpointContents ReadCheckpoint(const CheckpointStore& store,
                                  const DlrmConfig& config,
                                  std::span<const RestoreTarget> targets);

/**
 * Multi-table, per-rank differential checkpointer for a DistributedDlrm
 * partition: the one writer of trainer state. Each rank writes its own
 * baseline/delta streams covering its embedding shards *and* their
 * sparse-optimizer row state; rank 0 additionally covers the replicated
 * DP tables and the dense MLP + dense optimizer state (identical on all
 * ranks). Every Write*() agrees a cross-rank consistency epoch via the
 * collective layer, so a restore can verify all streams describe the
 * same step.
 *
 * Deltas carry the rows the trainer marked dirty (DirtyRows) since the
 * last write, and each write clears the marks it consumed — so a trainer
 * admits one live checkpointer at a time.
 */
class DistributedCheckpointer
{
  public:
    /**
     * @param trainer The partition to checkpoint (not owned; must not
     *   already have a live checkpointer — throws std::runtime_error).
     * @param store Destination for the serialized streams (not owned).
     */
    DistributedCheckpointer(DistributedDlrm& trainer, CheckpointStore& store);

    /** Releases the trainer for another checkpointer. */
    ~DistributedCheckpointer();

    // The trainer holds this object's address.
    DistributedCheckpointer(const DistributedCheckpointer&) = delete;
    DistributedCheckpointer& operator=(const DistributedCheckpointer&) =
        delete;

    /** Write a full baseline for this rank (collective; all ranks call). */
    void WriteBaseline();

    /** Write a delta since the last Write*() (collective; all ranks). */
    void WriteDelta();

    /**
     * The foreground half of a delta write: everything that must see the
     * model frozen at one step. Agrees the epoch (collective), then
     * copies exactly the dirty rows — ascending, with their optimizer
     * state, plus rank 0's dense state — straight into the delta stream's
     * bytes, and clears those marks. Its cost follows the rows training
     * touched, not the table size. The returned capture is
     * self-contained: appending it to the store can happen on another
     * thread while training resumes (AsyncCheckpointer); its bytes are
     * exactly what WriteDelta() appends.
     */
    struct DeltaCapture {
        int rank = 0;
        /** The delta in the store's stream format. */
        std::vector<uint8_t> bytes;
    };

    /** Capture the foreground half of a delta (collective; all ranks). */
    DeltaCapture CaptureDelta();

    /** Consistency epoch of the last completed Write*(). */
    uint64_t epoch() const { return epoch_; }

    /** Destination store (for deferred appends). */
    CheckpointStore& store() { return store_; }

    /** Changed rows across all shards in the last WriteDelta(). */
    uint64_t last_delta_rows() const { return last_delta_rows_; }

    /**
     * Restore `target` from the streams in `store`, regardless of how the
     * writing job was sharded: ReadCheckpoint streams every writer's
     * baseline and deltas and keeps only the rows of `target`'s own
     * shards and DP tables — which is what lets a 3-worker survivor job
     * load a 4-worker job's checkpoint, each rank holding just its
     * partition. Marks every restored row dirty. Collective on
     * `target`'s process group (all its ranks must call); finishes with
     * an epoch-agreement AllReduce as a consistency check.
     */
    static void RestoreInto(const CheckpointStore& store,
                            DistributedDlrm& target);

  private:
    /** Agree the next epoch across ranks; throws on divergence. */
    void AgreeEpoch();

    DistributedDlrm& trainer_;
    CheckpointStore& store_;
    uint64_t epoch_ = 0;
    uint64_t last_delta_rows_ = 0;
    /** Deltas need a baseline from this checkpointer to chain onto. */
    bool has_baseline_ = false;
    /** Capture scratch, reused: the dirty rows of each entry. */
    std::vector<std::vector<int64_t>> dirty_rows_;
};

}  // namespace neo::core
