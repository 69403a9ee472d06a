#include "core/step_transaction.h"

#include "common/logging.h"
#include "core/distributed_trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neo::core {

StepTransaction::StepTransaction(DistributedDlrm& trainer)
    : trainer_(trainer), log_(trainer.undo_log_)
{
    NEO_REQUIRE(trainer_.txn_ == nullptr,
                "trainer already has an active StepTransaction");
    log_.shards.resize(trainer_.shards_.size());
    log_.dp.resize(trainer_.dp_tables_.size());
    // An earlier transaction unwound by a non-RankFailure exception ended
    // without Commit or Rollback; start from an empty log regardless.
    Commit();
    trainer_.txn_ = this;
}

StepTransaction::~StepTransaction()
{
    trainer_.txn_ = nullptr;
}

void
StepTransaction::CaptureRows(const ops::EmbeddingTable& table,
                             const ops::SparseOptimizer& optimizer,
                             std::span<const int64_t> rows,
                             UndoLog::Rows& snapshot)
{
    snapshot.rows.assign(rows.begin(), rows.end());
    const size_t d = static_cast<size_t>(table.dim());
    const size_t sfpr = optimizer.StateFloatsPerRow();
    snapshot.values.resize(snapshot.rows.size() * d);
    snapshot.opt_state.resize(snapshot.rows.size() * sfpr);
    for (size_t i = 0; i < snapshot.rows.size(); i++) {
        table.ReadRow(snapshot.rows[i], snapshot.values.data() + i * d);
        if (sfpr > 0) {
            optimizer.ExportRowState(snapshot.rows[i],
                                     snapshot.opt_state.data() + i * sfpr);
        }
    }
    snapshot.captured = true;
}

void
StepTransaction::CaptureShardRows(size_t shard_index,
                                  std::span<const int64_t> rows)
{
    NEO_REQUIRE(shard_index < log_.shards.size(),
                "shard index out of range");
    UndoLog::Rows& snapshot = log_.shards[shard_index];
    NEO_REQUIRE(!snapshot.captured,
                "shard captured twice in one transaction");
    const auto& shard = trainer_.shards_[shard_index];
    CaptureRows(shard.table, shard.optimizer, rows, snapshot);
}

void
StepTransaction::CaptureDpRows(size_t dp_index,
                               std::span<const int64_t> rows)
{
    NEO_REQUIRE(dp_index < log_.dp.size(), "DP index out of range");
    UndoLog::Rows& snapshot = log_.dp[dp_index];
    NEO_REQUIRE(!snapshot.captured, "DP table captured twice");
    const auto& dp = trainer_.dp_tables_[dp_index];
    CaptureRows(dp.replica, dp.optimizer, rows, snapshot);
}

void
StepTransaction::CaptureDense()
{
    NEO_REQUIRE(!log_.dense_captured, "dense state captured twice");
    BinaryWriter writer(std::move(log_.dense));
    trainer_.bottom_->Save(writer);
    trainer_.top_->Save(writer);
    trainer_.dense_opt_.Save(writer);
    log_.dense = writer.Take();
    log_.dense_captured = true;
}

void
StepTransaction::Rollback()
{
    NEO_TRACE_SPAN("step_rollback", "recovery");
    uint64_t restored = 0;
    auto restore_rows = [&restored](ops::EmbeddingTable& table,
                                    ops::SparseOptimizer& optimizer,
                                    const UndoLog::Rows& snapshot) {
        if (!snapshot.captured) {
            return;
        }
        restored += snapshot.rows.size();
        const size_t d = static_cast<size_t>(table.dim());
        const size_t sfpr = optimizer.StateFloatsPerRow();
        for (size_t i = 0; i < snapshot.rows.size(); i++) {
            table.WriteRow(snapshot.rows[i],
                           snapshot.values.data() + i * d);
            if (sfpr > 0) {
                optimizer.ImportRowState(
                    snapshot.rows[i], snapshot.opt_state.data() + i * sfpr);
            }
        }
    };
    for (size_t i = 0; i < log_.shards.size(); i++) {
        restore_rows(trainer_.shards_[i].table,
                     trainer_.shards_[i].optimizer, log_.shards[i]);
    }
    for (size_t i = 0; i < log_.dp.size(); i++) {
        restore_rows(trainer_.dp_tables_[i].replica,
                     trainer_.dp_tables_[i].optimizer, log_.dp[i]);
    }
    if (log_.dense_captured) {
        BinaryReader reader{std::span<const uint8_t>(log_.dense)};
        trainer_.bottom_->Load(reader);
        trainer_.top_->Load(reader);
        trainer_.dense_opt_.Load(reader);
    }
    auto& metrics = obs::MetricsRegistry::Get();
    metrics.GetCounter("neo.core.rollbacks").Add();
    metrics.GetCounter("neo.core.rollback_rows").Add(restored);
    Commit();  // the undo log is spent either way
}

void
StepTransaction::Commit()
{
    // clear() keeps each buffer's capacity for the next step.
    auto clear = [](UndoLog::Rows& snapshot) {
        snapshot.captured = false;
        snapshot.rows.clear();
        snapshot.values.clear();
        snapshot.opt_state.clear();
    };
    for (auto& snapshot : log_.shards) {
        clear(snapshot);
    }
    for (auto& snapshot : log_.dp) {
        clear(snapshot);
    }
    log_.dense_captured = false;
    log_.dense.clear();
}

std::span<const int64_t>
StepTransaction::shard_rows(size_t shard_index) const
{
    NEO_REQUIRE(shard_index < log_.shards.size(),
                "shard index out of range");
    return log_.shards[shard_index].rows;
}

std::span<const int64_t>
StepTransaction::dp_rows(size_t dp_index) const
{
    NEO_REQUIRE(dp_index < log_.dp.size(), "DP index out of range");
    return log_.dp[dp_index].rows;
}

uint64_t
StepTransaction::captured_rows() const
{
    uint64_t total = 0;
    for (const auto& snapshot : log_.shards) {
        total += snapshot.rows.size();
    }
    for (const auto& snapshot : log_.dp) {
        total += snapshot.rows.size();
    }
    return total;
}

}  // namespace neo::core
