#include "core/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>

#include "common/logging.h"
#include "core/distributed_trainer.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace neo::core {

namespace {

constexpr uint32_t kBaselineMagic = 0x4E434B50;     // 'NCKP'
constexpr uint32_t kDeltaStreamMagic = 0x4E434B44;  // 'NCKD'

/** StateFloatsPerRow for a given optimizer config and shard width. */
size_t
StateFloatsPerRowFor(const ops::SparseOptimizerConfig& config, int64_t dim)
{
    // A one-row probe optimizer is the cheapest way to keep the layout
    // definition in exactly one place (SparseOptimizer).
    return ops::SparseOptimizer(config, 1, dim).StateFloatsPerRow();
}

/** Export every row's optimizer state into one flat vector. */
std::vector<float>
ExportAllRowState(const ops::SparseOptimizer& opt, int64_t rows)
{
    const size_t sfpr = opt.StateFloatsPerRow();
    std::vector<float> state(static_cast<size_t>(rows) * sfpr);
    for (int64_t r = 0; r < rows; r++) {
        opt.ExportRowState(r, state.data() + static_cast<size_t>(r) * sfpr);
    }
    return state;
}

/** Write `bytes` to `path` atomically (temp file + rename). */
void
WriteFileAtomic(const std::filesystem::path& path,
                const std::vector<uint8_t>& bytes)
{
    const std::filesystem::path tmp = path.string() + ".tmp";
    {
        std::FILE* f = std::fopen(tmp.c_str(), "wb");
        NEO_REQUIRE(f != nullptr, "cannot open for write: ", tmp.string());
        const size_t written =
            std::fwrite(bytes.data(), 1, bytes.size(), f);
        std::fclose(f);
        NEO_REQUIRE(written == bytes.size(), "short write to ",
                    tmp.string());
    }
    std::filesystem::rename(tmp, path);
}

std::vector<uint8_t>
ReadFileBytes(const std::filesystem::path& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    NEO_REQUIRE(f != nullptr, "cannot open for read: ", path.string());
    std::fseek(f, 0, SEEK_END);
    const long size = std::ftell(f);
    std::fseek(f, 0, SEEK_SET);
    std::vector<uint8_t> bytes(static_cast<size_t>(size));
    const size_t read = std::fread(bytes.data(), 1, bytes.size(), f);
    std::fclose(f);
    NEO_REQUIRE(read == bytes.size(), "short read from ", path.string());
    return bytes;
}

/** Zero-padded delta file name, sortable by sequence. */
std::string
DeltaFileName(size_t seq)
{
    char name[32];
    std::snprintf(name, sizeof(name), "delta_%05zu.bin", seq);
    return name;
}

}  // namespace

// ---------------------------------------------------------------------------
// CheckpointStore
// ---------------------------------------------------------------------------

CheckpointStore::CheckpointStore(std::string directory)
    : dir_(std::move(directory))
{
    NEO_REQUIRE(!dir_.empty(), "empty checkpoint directory");
    std::filesystem::create_directories(dir_);
}

std::string
CheckpointStore::RankDir(int rank) const
{
    return (std::filesystem::path(dir_) / ("rank_" + std::to_string(rank)))
        .string();
}

void
CheckpointStore::PutBaseline(int rank, std::vector<uint8_t> bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    generation_++;
    if (!dir_.empty()) {
        // A new baseline supersedes the rank's whole chain on disk too.
        const std::filesystem::path rank_dir(RankDir(rank));
        std::filesystem::remove_all(rank_dir);
        std::filesystem::create_directories(rank_dir);
        WriteFileAtomic(rank_dir / "baseline.bin", bytes);
        return;
    }
    RankStreams& entry = entries_[rank];
    entry.baseline =
        std::make_shared<const std::vector<uint8_t>>(std::move(bytes));
    entry.deltas.clear();
}

void
CheckpointStore::AppendDelta(int rank, std::vector<uint8_t> bytes)
{
    std::lock_guard<std::mutex> lock(mutex_);
    generation_++;
    if (!dir_.empty()) {
        const std::filesystem::path rank_dir(RankDir(rank));
        NEO_REQUIRE(std::filesystem::exists(rank_dir / "baseline.bin"),
                    "delta appended before any baseline for rank ", rank);
        size_t seq = 0;
        while (std::filesystem::exists(rank_dir / DeltaFileName(seq))) {
            seq++;
        }
        WriteFileAtomic(rank_dir / DeltaFileName(seq), bytes);
        return;
    }
    const auto it = entries_.find(rank);
    NEO_REQUIRE(it != entries_.end(),
                "delta appended before any baseline for rank ", rank);
    it->second.deltas.push_back(
        std::make_shared<const std::vector<uint8_t>>(std::move(bytes)));
}

CheckpointStore::RankStreams
CheckpointStore::Streams(int rank) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!dir_.empty()) {
        const std::filesystem::path rank_dir(RankDir(rank));
        NEO_REQUIRE(std::filesystem::exists(rank_dir / "baseline.bin"),
                    "no baseline stored for rank ", rank);
        RankStreams streams;
        streams.baseline = std::make_shared<const std::vector<uint8_t>>(
            ReadFileBytes(rank_dir / "baseline.bin"));
        for (size_t seq = 0;
             std::filesystem::exists(rank_dir / DeltaFileName(seq)); seq++) {
            streams.deltas.push_back(
                std::make_shared<const std::vector<uint8_t>>(
                    ReadFileBytes(rank_dir / DeltaFileName(seq))));
        }
        return streams;
    }
    const auto it = entries_.find(rank);
    NEO_REQUIRE(it != entries_.end(), "no baseline stored for rank ", rank);
    return it->second;
}

std::vector<uint8_t>
CheckpointStore::Baseline(int rank) const
{
    return *Streams(rank).baseline;
}

std::vector<std::vector<uint8_t>>
CheckpointStore::Deltas(int rank) const
{
    std::vector<std::vector<uint8_t>> deltas;
    for (const StreamBytes& delta : Streams(rank).deltas) {
        deltas.push_back(*delta);
    }
    return deltas;
}

std::vector<int>
CheckpointStore::Ranks() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<int> ranks;
    if (!dir_.empty()) {
        for (const auto& entry :
             std::filesystem::directory_iterator(dir_)) {
            const std::string name = entry.path().filename().string();
            if (entry.is_directory() && name.rfind("rank_", 0) == 0 &&
                std::filesystem::exists(entry.path() / "baseline.bin")) {
                ranks.push_back(std::stoi(name.substr(5)));
            }
        }
        std::sort(ranks.begin(), ranks.end());
        return ranks;
    }
    ranks.reserve(entries_.size());
    for (const auto& [rank, entry] : entries_) {
        ranks.push_back(rank);
    }
    return ranks;
}

uint64_t
CheckpointStore::TotalBytes() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    uint64_t total = 0;
    if (!dir_.empty()) {
        for (const auto& entry :
             std::filesystem::recursive_directory_iterator(dir_)) {
            if (entry.is_regular_file()) {
                total += entry.file_size();
            }
        }
        return total;
    }
    for (const auto& [rank, entry] : entries_) {
        total += entry.baseline->size();
        for (const auto& delta : entry.deltas) {
            total += delta->size();
        }
    }
    return total;
}

uint64_t
CheckpointStore::Generation() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return generation_;
}

// ---------------------------------------------------------------------------
// Stream format shared by the writer and the reader
// ---------------------------------------------------------------------------

namespace {

/** Stream header: magic u32, rank i32, epoch u64, entry count u64. */
constexpr size_t kStreamHeaderBytes = 4 + 4 + 8 + 8;
/** Entry header: table i32, is_dp u8, row and column ranges 4 x i64,
 *  optimizer floats per row u32. */
constexpr size_t kEntryHeaderBytes = 4 + 1 + 4 * 8 + 4;

void
WriteStreamHeader(BinaryWriter& writer, uint32_t magic, int rank,
                  uint64_t epoch, uint64_t entries)
{
    writer.Write<uint32_t>(magic);
    writer.Write<int32_t>(rank);
    writer.Write<uint64_t>(epoch);
    writer.Write<uint64_t>(entries);
}

void
WriteEntryHeader(BinaryWriter& writer, int32_t table, bool is_dp,
                 int64_t row_begin, int64_t row_end, int64_t col_begin,
                 int64_t col_end, size_t sfpr)
{
    writer.Write<int32_t>(table);
    writer.Write<uint8_t>(is_dp ? 1 : 0);
    writer.Write<int64_t>(row_begin);
    writer.Write<int64_t>(row_end);
    writer.Write<int64_t>(col_begin);
    writer.Write<int64_t>(col_end);
    writer.Write<uint32_t>(static_cast<uint32_t>(sfpr));
}

}  // namespace

// ---------------------------------------------------------------------------
// DistributedCheckpointer
// ---------------------------------------------------------------------------

DistributedCheckpointer::DistributedCheckpointer(DistributedDlrm& trainer,
                                                 CheckpointStore& store)
    : trainer_(trainer), store_(store)
{
    NEO_REQUIRE(trainer_.checkpointer_ == nullptr,
                "rank ", trainer_.rank_,
                " already has a live DistributedCheckpointer; two would "
                "consume the same dirty-row marks and each miss rows");
    trainer_.checkpointer_ = this;
}

DistributedCheckpointer::~DistributedCheckpointer()
{
    trainer_.checkpointer_ = nullptr;
}

void
DistributedCheckpointer::AgreeEpoch()
{
    // All ranks propose epoch_ + 1; the AllReduce sum equals
    // world * (epoch_ + 1) iff every rank agrees — any rank entering with
    // a different epoch (missed or doubled checkpoint) is detected.
    const uint64_t next = epoch_ + 1;
    float sum = static_cast<float>(next);
    trainer_.pg_.AllReduceSum(&sum, 1);
    const float expected =
        static_cast<float>(next) * static_cast<float>(trainer_.world_);
    NEO_REQUIRE(sum == expected,
                "checkpoint epoch divergence across ranks: expected sum ",
                expected, ", got ", sum);
    epoch_ = next;
}

namespace {

/** Rank 0's replicated dense state: bottom MLP, top MLP, dense optimizer. */
std::vector<uint8_t>
SaveDense(const ops::Mlp& bottom, const ops::Mlp& top,
          const ops::DenseOptimizer& opt)
{
    BinaryWriter dense;
    bottom.Save(dense);
    top.Save(dense);
    opt.Save(dense);
    return dense.Take();
}

}  // namespace

void
DistributedCheckpointer::WriteBaseline()
{
    NEO_TRACE_SPAN("checkpoint_baseline", "recovery");
    AgreeEpoch();
    DistributedDlrm& t = trainer_;
    const bool lead = t.rank_ == 0;
    const std::vector<uint8_t> dense =
        lead ? SaveDense(*t.bottom_, *t.top_, t.dense_opt_)
             : std::vector<uint8_t>{};

    // Size the stream once, then hand the buffer itself to the store.
    auto entry_bytes = [](const ops::EmbeddingTable& table,
                          const ops::SparseOptimizer& opt) {
        return kEntryHeaderBytes + table.SavedBytes() + sizeof(uint64_t) +
               static_cast<size_t>(table.rows()) * opt.StateFloatsPerRow() *
                   sizeof(float);
    };
    size_t bytes = kStreamHeaderBytes + 1 +
                   (lead ? sizeof(uint64_t) + dense.size() : 0);
    for (const auto& shard : t.shards_) {
        bytes += entry_bytes(shard.table, shard.optimizer);
    }
    if (lead) {
        for (const auto& dp : t.dp_tables_) {
            bytes += entry_bytes(dp.replica, dp.optimizer);
        }
    }
    BinaryWriter writer;
    writer.Reserve(bytes);

    WriteStreamHeader(writer, kBaselineMagic, t.rank_, epoch_,
                      t.shards_.size() + (lead ? t.dp_tables_.size() : 0));
    auto write_entry = [&](int32_t table, bool is_dp, int64_t row_begin,
                           int64_t row_end, int64_t col_begin,
                           int64_t col_end, const ops::EmbeddingTable& rows,
                           const ops::SparseOptimizer& opt) {
        WriteEntryHeader(writer, table, is_dp, row_begin, row_end,
                         col_begin, col_end, opt.StateFloatsPerRow());
        rows.Save(writer);
        writer.WriteVector(ExportAllRowState(opt, rows.rows()));
    };
    for (const auto& shard : t.shards_) {
        write_entry(shard.meta.table, false, shard.meta.row_begin,
                    shard.meta.row_end, shard.meta.col_begin,
                    shard.meta.col_end, shard.table, shard.optimizer);
    }
    if (lead) {
        for (const auto& dp : t.dp_tables_) {
            write_entry(dp.table, true, 0, dp.replica.rows(), 0,
                        dp.replica.dim(), dp.replica, dp.optimizer);
        }
    }
    // The dense MLPs + dense optimizer are replicated and small relative
    // to the tables, so rank 0 stores them in full every time instead of
    // delta-encoding them.
    writer.Write<uint8_t>(lead ? 1 : 0);
    if (lead) {
        writer.WriteVector(dense);
    }

    store_.PutBaseline(t.rank_, writer.Take());
    // Every row is in the store now; the next delta starts from here.
    for (auto& shard : t.shards_) {
        shard.dirty.ClearAll();
    }
    if (lead) {
        for (auto& dp : t.dp_tables_) {
            dp.dirty.ClearAll();
        }
    }
    has_baseline_ = true;
    obs::MetricsRegistry::Get()
        .GetCounter("neo.core.checkpoint_baselines")
        .Add();
}

void
DistributedCheckpointer::WriteDelta()
{
    NEO_TRACE_SPAN("checkpoint_delta", "recovery");
    DeltaCapture capture = CaptureDelta();
    store_.AppendDelta(capture.rank, std::move(capture.bytes));
}

DistributedCheckpointer::DeltaCapture
DistributedCheckpointer::CaptureDelta()
{
    NEO_TRACE_SPAN("checkpoint_capture", "recovery");
    NEO_REQUIRE(has_baseline_, "WriteDelta before WriteBaseline");
    const int64_t start_ns = obs::NowNs();
    AgreeEpoch();
    DistributedDlrm& t = trainer_;
    const bool lead = t.rank_ == 0;

    // What this rank writes: its shards, then (rank 0) the DP tables.
    struct Source {
        int32_t table;
        bool is_dp;
        int64_t row_begin;
        const ops::EmbeddingTable& rows;
        const ops::SparseOptimizer& opt;
        DirtyRows& dirty;
    };
    std::vector<Source> sources;
    for (auto& shard : t.shards_) {
        sources.push_back({shard.meta.table, false, shard.meta.row_begin,
                           shard.table, shard.optimizer, shard.dirty});
    }
    if (lead) {
        for (auto& dp : t.dp_tables_) {
            sources.push_back(
                {dp.table, true, 0, dp.replica, dp.optimizer, dp.dirty});
        }
    }

    // The dense state mutates next step, so the capture copies it now.
    const std::vector<uint8_t> dense =
        lead ? SaveDense(*t.bottom_, *t.top_, t.dense_opt_)
             : std::vector<uint8_t>{};

    // List each entry's dirty rows (ascending) first, so the stream can
    // be sized once and the rows copied straight into it.
    dirty_rows_.resize(sources.size());
    size_t bytes = kStreamHeaderBytes + 1 +
                   (lead ? sizeof(uint64_t) + dense.size() : 0);
    size_t max_sfpr = 0;
    last_delta_rows_ = 0;
    for (size_t i = 0; i < sources.size(); i++) {
        std::vector<int64_t>& rows = dirty_rows_[i];
        rows.clear();
        sources[i].dirty.ForEach([&](int64_t r) { rows.push_back(r); });
        const size_t dim = static_cast<size_t>(sources[i].rows.dim());
        const size_t sfpr = sources[i].opt.StateFloatsPerRow();
        bytes += kEntryHeaderBytes + 3 * sizeof(uint64_t) +
                 rows.size() *
                     (sizeof(int64_t) + (dim + sfpr) * sizeof(float));
        max_sfpr = std::max(max_sfpr, sfpr);
        last_delta_rows_ += rows.size();
    }
    BinaryWriter writer;
    writer.Reserve(bytes);

    WriteStreamHeader(writer, kDeltaStreamMagic, t.rank_, epoch_,
                      sources.size());
    std::vector<float> state(max_sfpr);
    for (size_t i = 0; i < sources.size(); i++) {
        const Source& src = sources[i];
        const std::vector<int64_t>& rows = dirty_rows_[i];
        const size_t n = rows.size();
        const size_t dim = static_cast<size_t>(src.rows.dim());
        const size_t sfpr = src.opt.StateFloatsPerRow();
        WriteEntryHeader(writer, src.table, src.is_dp, src.row_begin,
                         src.row_begin + src.rows.rows(), 0,
                         src.rows.dim(), sfpr);
        // Delta rows carry GLOBAL row ids so a restore can place them
        // without knowing the writer's sharding.
        writer.Write<uint64_t>(n);
        uint8_t* ids = writer.Extend(n * sizeof(int64_t));
        for (size_t k = 0; k < n; k++) {
            const int64_t global = src.row_begin + rows[k];
            std::memcpy(ids + k * sizeof(int64_t), &global, sizeof(int64_t));
        }
        writer.Write<uint64_t>(n * dim);
        src.rows.CopyRows(rows, writer.Extend(n * dim * sizeof(float)));
        writer.Write<uint64_t>(n * sfpr);
        uint8_t* opt = writer.Extend(n * sfpr * sizeof(float));
        for (size_t k = 0; sfpr > 0 && k < n; k++) {
            src.opt.ExportRowState(rows[k], state.data());
            std::memcpy(opt + k * sfpr * sizeof(float), state.data(),
                        sfpr * sizeof(float));
        }
    }
    writer.Write<uint8_t>(lead ? 1 : 0);
    if (lead) {
        writer.WriteVector(dense);
    }

    // Every dirty row was just copied; only now do the marks go, so a
    // capture that failed earlier leaves them for the next one.
    for (Source& src : sources) {
        src.dirty.ClearAll();
    }

    auto& metrics = obs::MetricsRegistry::Get();
    metrics.GetCounter("neo.core.checkpoint_deltas").Add();
    metrics.GetCounter("neo.core.checkpoint_delta_rows")
        .Add(last_delta_rows_);
    metrics.GetHistogram("neo.core.checkpoint_capture_seconds")
        .Observe(static_cast<double>(obs::NowNs() - start_ns) * 1e-9);
    return {t.rank_, writer.Take()};
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

namespace {

/** True iff `total` == `count` * `width`, without overflowing. */
bool
IsProduct(uint64_t total, uint64_t count, uint64_t width)
{
    return width == 0 ? total == 0
                      : total % width == 0 && total / width == count;
}

/** Streams checkpoint entries into a fixed set of targets. */
class TargetWriter
{
  public:
    TargetWriter(const DlrmConfig& config,
                 std::span<const RestoreTarget> targets)
        : config_(config), targets_(targets), covered_(targets.size())
    {
        for (const RestoreTarget& t : targets_) {
            NEO_REQUIRE(t.table >= 0 && t.table < static_cast<int>(
                                                     config.tables.size()),
                        "restore target references unknown table ",
                        t.table);
            const auto& cfg = config.tables[t.table];
            NEO_REQUIRE(t.rows != nullptr && 0 <= t.row_begin &&
                            t.row_begin < t.row_end &&
                            t.row_end <= cfg.rows && 0 <= t.col_begin &&
                            t.col_begin < t.col_end && t.col_end <= cfg.dim,
                        "restore target geometry out of bounds");
            NEO_REQUIRE(t.rows->rows() == t.row_end - t.row_begin &&
                            t.rows->dim() == t.col_end - t.col_begin,
                        "restore target table shape mismatch");
            NEO_REQUIRE(t.optimizer == nullptr ||
                            (t.col_begin == 0 && t.col_end == cfg.dim),
                        "optimizer state restores only to full-width "
                        "targets");
        }
    }

    /** Read one entry (baseline or delta) and write its rows that fall
     *  inside a target. */
    void
    ReadEntry(BinaryReader& reader, bool is_delta)
    {
        const int32_t table = reader.Read<int32_t>();
        NEO_REQUIRE(table >= 0 &&
                        table < static_cast<int32_t>(config_.tables.size()),
                    "checkpoint entry references unknown table ", table);
        const auto& cfg = config_.tables[table];
        reader.Read<uint8_t>();  // is_dp: placement hint only
        const int64_t row_begin = reader.Read<int64_t>();
        const int64_t row_end = reader.Read<int64_t>();
        const int64_t col_begin = reader.Read<int64_t>();
        const int64_t col_end = reader.Read<int64_t>();
        const uint32_t sfpr = reader.Read<uint32_t>();
        NEO_REQUIRE(col_begin == 0 && col_end == cfg.dim,
                    "checkpoint entry is not full width: table ", table,
                    " columns [", col_begin, ", ", col_end, ") of ", cfg.dim,
                    " (column-wise writer shards are not supported by "
                    "elastic restore)");
        NEO_REQUIRE(row_begin >= 0 && row_begin <= row_end &&
                        row_end <= cfg.rows,
                    "checkpoint row range out of bounds");
        const size_t expected_sfpr =
            StateFloatsPerRowFor(config_.sparse_optimizer, cfg.dim);
        NEO_REQUIRE(sfpr == expected_sfpr,
                    "optimizer state layout mismatch: checkpoint has ",
                    sfpr, " floats/row, model expects ", expected_sfpr);
        const size_t dim = static_cast<size_t>(cfg.dim);
        row_.resize(dim);
        state_.resize(sfpr);

        if (!is_delta) {
            const ops::EmbeddingTable::SavedView piece =
                ops::EmbeddingTable::SavedView::Parse(reader);
            NEO_REQUIRE(piece.rows() == row_end - row_begin &&
                            piece.dim() == cfg.dim,
                        "baseline shard shape mismatch");
            const VectorView<float> opt = reader.ViewVector<float>();
            NEO_REQUIRE(IsProduct(opt.size,
                                  static_cast<uint64_t>(piece.rows()),
                                  expected_sfpr),
                        "baseline optimizer state size mismatch");
            for (size_t ti = 0; ti < targets_.size(); ti++) {
                const RestoreTarget& t = targets_[ti];
                const int64_t lo = std::max(row_begin, t.row_begin);
                const int64_t hi = std::min(row_end, t.row_end);
                if (t.table != table || lo >= hi) {
                    continue;
                }
                for (int64_t g = lo; g < hi; g++) {
                    piece.ReadRow(g - row_begin, row_.data());
                    opt.CopyTo(static_cast<size_t>(g - row_begin) * sfpr,
                               sfpr, state_.data());
                    Write(t, g);
                }
                covered_[ti].emplace_back(lo, hi);
            }
            return;
        }

        const VectorView<int64_t> changed = reader.ViewVector<int64_t>();
        const VectorView<float> payload = reader.ViewVector<float>();
        const VectorView<float> opt_payload = reader.ViewVector<float>();
        NEO_REQUIRE(IsProduct(payload.size, changed.size, dim) &&
                        IsProduct(opt_payload.size, changed.size,
                                  expected_sfpr),
                    "delta payload size mismatch");
        for (size_t i = 0; i < changed.size; i++) {
            const int64_t g = changed[i];
            NEO_REQUIRE(g >= row_begin && g < row_end, "delta row id ", g,
                        " outside its entry's row range");
            bool copied = false;
            for (const RestoreTarget& t : targets_) {
                if (t.table != table || g < t.row_begin || g >= t.row_end) {
                    continue;
                }
                if (!copied) {
                    payload.CopyTo(i * dim, dim, row_.data());
                    opt_payload.CopyTo(i * sfpr, sfpr, state_.data());
                    copied = true;
                }
                Write(t, g);
            }
        }
    }

    /** Throw unless baselines covered every row of every target. */
    void
    RequireCovered()
    {
        for (size_t ti = 0; ti < targets_.size(); ti++) {
            const RestoreTarget& t = targets_[ti];
            auto& ranges = covered_[ti];
            std::sort(ranges.begin(), ranges.end());
            int64_t next = t.row_begin;
            for (const auto& [lo, hi] : ranges) {
                if (lo > next) {
                    break;
                }
                next = std::max(next, hi);
            }
            NEO_REQUIRE(next >= t.row_end, "checkpoint is missing rows [",
                        next, ", ", t.row_end, ") of table ", t.table,
                        ": no baseline covers them");
        }
    }

  private:
    /** Write the current row_/state_ (logical row `g`) into `t`. */
    void
    Write(const RestoreTarget& t, int64_t g)
    {
        const int64_t local = g - t.row_begin;
        t.rows->WriteRow(local, row_.data() + t.col_begin);
        if (t.optimizer != nullptr && !state_.empty()) {
            t.optimizer->ImportRowState(local, state_.data());
        }
    }

    const DlrmConfig& config_;
    std::span<const RestoreTarget> targets_;
    /** Per target: the global row ranges baselines wrote into it. */
    std::vector<std::vector<std::pair<int64_t, int64_t>>> covered_;
    /** One logical row and its optimizer state, aligned for the copy. */
    std::vector<float> row_;
    std::vector<float> state_;
};

}  // namespace

CheckpointContents
ReadCheckpoint(const CheckpointStore& store, const DlrmConfig& config,
               std::span<const RestoreTarget> targets)
{
    TargetWriter writer(config, targets);
    CheckpointContents contents;
    std::optional<uint64_t> final_epoch;

    for (const int wr : store.Ranks()) {
        const CheckpointStore::RankStreams streams = store.Streams(wr);

        // Baseline stream.
        BinaryReader reader{std::span<const uint8_t>(*streams.baseline)};
        NEO_REQUIRE(reader.Read<uint32_t>() == kBaselineMagic,
                    "bad baseline magic for rank ", wr);
        NEO_REQUIRE(reader.Read<int32_t>() == wr,
                    "baseline stream rank mismatch");
        uint64_t epoch = reader.Read<uint64_t>();
        const uint64_t base_entries = reader.Read<uint64_t>();
        for (uint64_t e = 0; e < base_entries; e++) {
            writer.ReadEntry(reader, /*is_delta=*/false);
        }
        if (reader.Read<uint8_t>() != 0) {
            contents.dense_blob = reader.ReadVector<uint8_t>();
        }
        NEO_REQUIRE(reader.AtEnd(), "trailing bytes after rank ", wr,
                    "'s baseline");

        // Delta chain, with epoch continuity.
        for (const CheckpointStore::StreamBytes& delta : streams.deltas) {
            BinaryReader dr{std::span<const uint8_t>(*delta)};
            NEO_REQUIRE(dr.Read<uint32_t>() == kDeltaStreamMagic,
                        "bad delta magic for rank ", wr);
            NEO_REQUIRE(dr.Read<int32_t>() == wr,
                        "delta stream rank mismatch");
            const uint64_t delta_epoch = dr.Read<uint64_t>();
            NEO_REQUIRE(delta_epoch == epoch + 1,
                        "delta out of order for rank ", wr, ": expected "
                        "epoch ", epoch + 1, ", got ", delta_epoch);
            epoch = delta_epoch;
            const uint64_t entries = dr.Read<uint64_t>();
            for (uint64_t e = 0; e < entries; e++) {
                writer.ReadEntry(dr, /*is_delta=*/true);
            }
            if (dr.Read<uint8_t>() != 0) {
                contents.dense_blob = dr.ReadVector<uint8_t>();
            }
            NEO_REQUIRE(dr.AtEnd(), "trailing bytes after rank ", wr,
                        "'s delta at epoch ", delta_epoch);
        }
        NEO_REQUIRE(!final_epoch.has_value() || *final_epoch == epoch,
                    "checkpoint streams end at different epochs (rank ", wr,
                    " at ", epoch, ", earlier ranks at ", *final_epoch, ")");
        final_epoch = epoch;
    }
    NEO_REQUIRE(final_epoch.has_value(), "checkpoint store is empty");
    NEO_REQUIRE(!contents.dense_blob.empty(),
                "checkpoint has no dense (MLP) state — rank 0's stream is "
                "missing or incomplete");
    writer.RequireCovered();
    contents.epoch = *final_epoch;
    return contents;
}

void
DistributedCheckpointer::RestoreInto(const CheckpointStore& store,
                                     DistributedDlrm& target)
{
    NEO_TRACE_SPAN("checkpoint_restore", "recovery");
    // Each rank reads only its own partition, whatever the writer's
    // sharding was.
    std::vector<RestoreTarget> targets;
    for (auto& shard : target.shards_) {
        NEO_REQUIRE(shard.meta.col_begin == 0 &&
                        shard.meta.col_end ==
                            target.config_.tables[shard.meta.table].dim,
                    "elastic restore cannot fill column-wise target shards");
        targets.push_back({shard.meta.table, shard.meta.row_begin,
                           shard.meta.row_end, 0, shard.table.dim(),
                           &shard.table, &shard.optimizer});
    }
    for (auto& dp : target.dp_tables_) {
        targets.push_back({dp.table, 0, dp.replica.rows(), 0,
                           dp.replica.dim(), &dp.replica, &dp.optimizer});
    }
    const CheckpointContents contents =
        ReadCheckpoint(store, target.config_, targets);
    for (auto& shard : target.shards_) {
        shard.dirty.MarkAll();
    }
    for (auto& dp : target.dp_tables_) {
        dp.dirty.MarkAll();
    }

    BinaryReader dense{std::span<const uint8_t>(contents.dense_blob)};
    target.bottom_->Load(dense);
    target.top_->Load(dense);
    target.dense_opt_.Load(dense);

    // Consistency check on the (possibly shrunken) target group: every
    // rank must have restored the same epoch.
    float sum = static_cast<float>(contents.epoch);
    target.pg_.AllReduceSum(&sum, 1);
    NEO_REQUIRE(sum == static_cast<float>(contents.epoch) *
                           static_cast<float>(target.world_),
                "restored epoch differs across target ranks");
    obs::MetricsRegistry::Get().GetCounter("neo.core.restores").Add();
}

}  // namespace neo::core
