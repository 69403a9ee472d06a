#include "serve/snapshot.h"

#include <algorithm>
#include <cstring>
#include <span>
#include <utility>

#include "common/logging.h"
#include "core/shard_router.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neo::serve {

namespace {

/**
 * Allocate `snapshot`'s tables for `plan` — one piece per non-DP shard,
 * in canonical (ShardLess) order, and one full replica per DP table —
 * and return the read targets that point at them.
 */
std::vector<core::RestoreTarget>
AllocateOnPlan(const core::DlrmConfig& config,
               const sharding::ShardingPlan& plan, ModelSnapshot& snapshot)
{
    std::vector<sharding::Shard> ordered = plan.shards;
    std::stable_sort(ordered.begin(), ordered.end(), core::ShardLess);
    for (const auto& shard : ordered) {
        NEO_REQUIRE(shard.table >= 0 &&
                        shard.table <
                            static_cast<int>(config.tables.size()),
                    "serving plan references unknown table ", shard.table);
        const auto& cfg = config.tables[shard.table];
        if (shard.scheme == sharding::Scheme::kDataParallel) {
            snapshot.dp_tables.emplace_back(
                shard.table,
                ops::EmbeddingTable(cfg.rows, cfg.dim, cfg.precision));
        } else {
            snapshot.shards.emplace_back(
                shard, ops::EmbeddingTable(shard.NumRows(), shard.NumCols(),
                                           cfg.precision));
        }
    }
    std::vector<core::RestoreTarget> targets;
    for (auto& piece : snapshot.shards) {
        targets.push_back({piece.meta.table, piece.meta.row_begin,
                           piece.meta.row_end, piece.meta.col_begin,
                           piece.meta.col_end, &piece.table, nullptr});
    }
    for (auto& dp : snapshot.dp_tables) {
        targets.push_back({dp.table, 0, dp.replica.rows(), 0,
                           dp.replica.dim(), &dp.replica, nullptr});
    }
    return targets;
}

/**
 * Copy a rectangle of logical table `table` — rows from `row_begin`,
 * columns from `col_begin`, `source.rows()` x `source.dim()` — into
 * every target it overlaps. `source` is an EmbeddingTable or a saved
 * table read in place. A target row the rectangle covers only partly
 * (column-wise pieces) is read, patched and written back.
 */
template <typename Source>
void
PasteOnto(std::span<const core::RestoreTarget> targets, int table,
          int64_t row_begin, int64_t col_begin, const Source& source)
{
    const int64_t row_end = row_begin + source.rows();
    const int64_t col_end = col_begin + source.dim();
    std::vector<float> src_row(static_cast<size_t>(source.dim()));
    std::vector<float> dst_row;
    for (const core::RestoreTarget& t : targets) {
        const int64_t r0 = std::max(row_begin, t.row_begin);
        const int64_t r1 = std::min(row_end, t.row_end);
        const int64_t c0 = std::max(col_begin, t.col_begin);
        const int64_t c1 = std::min(col_end, t.col_end);
        if (t.table != table || r0 >= r1 || c0 >= c1) {
            continue;
        }
        const bool whole = c0 == t.col_begin && c1 == t.col_end;
        dst_row.resize(static_cast<size_t>(t.col_end - t.col_begin));
        for (int64_t g = r0; g < r1; g++) {
            source.ReadRow(g - row_begin, src_row.data());
            const float* src = src_row.data() + (c0 - col_begin);
            if (!whole) {
                t.rows->ReadRow(g - t.row_begin, dst_row.data());
                std::memcpy(dst_row.data() + (c0 - t.col_begin), src,
                            static_cast<size_t>(c1 - c0) * sizeof(float));
                src = dst_row.data();
            }
            t.rows->WriteRow(g - t.row_begin, src);
        }
    }
}

}  // namespace

std::shared_ptr<const ModelSnapshot>
SnapshotFromStore(const core::CheckpointStore& store,
                  const core::DlrmConfig& config,
                  const sharding::ShardingPlan& serving_plan,
                  uint64_t version)
{
    NEO_TRACE_SPAN("snapshot_from_store", "serve");
    auto snapshot = std::make_shared<ModelSnapshot>();
    snapshot->version = version;
    snapshot->config = config;
    snapshot->plan = serving_plan;
    const std::vector<core::RestoreTarget> targets =
        AllocateOnPlan(config, serving_plan, *snapshot);
    core::CheckpointContents contents =
        core::ReadCheckpoint(store, config, targets);
    snapshot->source_epoch = contents.epoch;
    snapshot->dense_blob = std::move(contents.dense_blob);
    return snapshot;
}

std::shared_ptr<const ModelSnapshot>
SnapshotFromTrainer(core::DistributedDlrm& trainer,
                    const sharding::ShardingPlan& serving_plan,
                    uint64_t version, uint64_t source_epoch)
{
    NEO_TRACE_SPAN("snapshot_from_trainer", "serve");
    comm::ProcessGroup& pg = trainer.process_group();
    const core::DlrmConfig& config = trainer.config();
    const int world = pg.Size();

    // Every rank ships its shard payload to rank 0 only; the AllToAll
    // doubles as the barrier that freezes a consistent step.
    BinaryWriter writer;
    writer.Write<uint64_t>(trainer.NumLocalShards());
    for (size_t i = 0; i < trainer.NumLocalShards(); i++) {
        const auto& shard = trainer.local_shard(i);
        writer.Write<int32_t>(shard.meta.table);
        writer.Write<int64_t>(shard.meta.row_begin);
        writer.Write<int64_t>(shard.meta.row_end);
        writer.Write<int64_t>(shard.meta.col_begin);
        writer.Write<int64_t>(shard.meta.col_end);
        shard.table.Save(writer);
    }
    std::vector<std::vector<uint8_t>> send(static_cast<size_t>(world));
    send[0] = writer.Take();
    std::vector<std::vector<uint8_t>> recv;
    pg.AllToAllBytes(send, recv);
    if (pg.Rank() != 0) {
        return nullptr;
    }

    // Rank 0: paste every rank's shards straight onto the serving plan's
    // pieces (read in place from the received bytes).
    auto snapshot = std::make_shared<ModelSnapshot>();
    snapshot->version = version;
    snapshot->source_epoch = source_epoch;
    snapshot->config = config;
    snapshot->plan = serving_plan;
    const std::vector<core::RestoreTarget> targets =
        AllocateOnPlan(config, serving_plan, *snapshot);
    for (int src = 0; src < world; src++) {
        BinaryReader reader{
            std::span<const uint8_t>(recv[static_cast<size_t>(src)])};
        const uint64_t num_shards = reader.Read<uint64_t>();
        for (uint64_t s = 0; s < num_shards; s++) {
            const int32_t table = reader.Read<int32_t>();
            NEO_REQUIRE(
                table >= 0 &&
                    table < static_cast<int32_t>(config.tables.size()),
                "trainer shard references unknown table ", table);
            const auto& cfg = config.tables[table];
            const int64_t row_begin = reader.Read<int64_t>();
            const int64_t row_end = reader.Read<int64_t>();
            const int64_t col_begin = reader.Read<int64_t>();
            const int64_t col_end = reader.Read<int64_t>();
            NEO_REQUIRE(row_begin >= 0 && row_begin <= row_end &&
                            row_end <= cfg.rows && col_begin >= 0 &&
                            col_begin <= col_end && col_end <= cfg.dim,
                        "trainer shard geometry out of bounds");
            const ops::EmbeddingTable::SavedView piece =
                ops::EmbeddingTable::SavedView::Parse(reader);
            NEO_REQUIRE(piece.rows() == row_end - row_begin &&
                            piece.dim() == col_end - col_begin,
                        "trainer shard shape mismatch");
            PasteOnto(targets, table, row_begin, col_begin, piece);
        }
    }
    // DP tables are replicated, so rank 0's own copies are the model.
    for (size_t i = 0; i < trainer.NumDpTables(); i++) {
        const auto& dp = trainer.dp_table(i);
        PasteOnto(targets, dp.table, 0, 0, dp.replica);
    }

    BinaryWriter dense;
    trainer.bottom_mlp().Save(dense);
    trainer.top_mlp().Save(dense);
    snapshot->dense_blob = dense.Take();
    return snapshot;
}

void
SnapshotRegistry::Publish(std::shared_ptr<const ModelSnapshot> snapshot)
{
    NEO_REQUIRE(snapshot != nullptr, "cannot publish a null snapshot");
    std::lock_guard<std::mutex> lock(mutex_);
    const uint64_t current =
        history_.empty() ? 0 : history_.back()->version;
    NEO_REQUIRE(snapshot->version > current,
                "snapshot versions must strictly increase: publishing ",
                snapshot->version, " over ", current);
    history_.push_back(std::move(snapshot));
    while (history_.size() > history_depth_) {
        history_.pop_front();
    }
    swaps_++;
    auto& metrics = obs::MetricsRegistry::Get();
    metrics.GetCounter("neo.serve.snapshot_swaps").Add();
    metrics.GetGauge("neo.serve.snapshot_version")
        .Set(static_cast<double>(history_.back()->version));
}

std::shared_ptr<const ModelSnapshot>
SnapshotRegistry::Current() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return history_.empty() ? nullptr : history_.back();
}

std::shared_ptr<const ModelSnapshot>
SnapshotRegistry::Get(uint64_t version) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& snapshot : history_) {
        if (snapshot->version == version) {
            return snapshot;
        }
    }
    return nullptr;
}

void
SnapshotRegistry::SetHistoryDepth(size_t depth)
{
    std::lock_guard<std::mutex> lock(mutex_);
    history_depth_ = depth == 0 ? 1 : depth;
}

uint64_t
SnapshotRegistry::CurrentVersion() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return history_.empty() ? 0 : history_.back()->version;
}

uint64_t
SnapshotRegistry::SwapCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return swaps_;
}

}  // namespace neo::serve
