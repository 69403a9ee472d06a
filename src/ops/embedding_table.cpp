#include "ops/embedding_table.h"

#include <cmath>
#include <cstring>

#include "common/logging.h"
#include "kernels/kernels.h"

namespace neo::ops {

EmbeddingTable::EmbeddingTable(int64_t rows, int64_t dim, Precision precision)
    : rows_(rows), dim_(dim), precision_(precision)
{
    NEO_REQUIRE(rows_ > 0 && dim_ > 0, "embedding table must be non-empty");
    NEO_REQUIRE(precision_ == Precision::kFp32 ||
                precision_ == Precision::kFp16,
                "embedding storage must be fp32 or fp16");
    const size_t count = static_cast<size_t>(rows_) * dim_;
    if (precision_ == Precision::kFp32) {
        data_f32_.assign(count, 0.0f);
    } else {
        data_f16_.assign(count, 0);
    }
}

size_t
EmbeddingTable::ParameterBytes() const
{
    return static_cast<size_t>(rows_) * dim_ * BytesPerElement(precision_);
}

void
EmbeddingTable::InitUniform(Rng& rng)
{
    const float bound = 1.0f / std::sqrt(static_cast<float>(dim_));
    const size_t count = static_cast<size_t>(rows_) * dim_;
    if (precision_ == Precision::kFp32) {
        for (size_t i = 0; i < count; i++) {
            data_f32_[i] = rng.NextUniform(-bound, bound);
        }
    } else {
        for (size_t i = 0; i < count; i++) {
            data_f16_[i] =
                detail::FloatToHalfBits(rng.NextUniform(-bound, bound));
        }
    }
}

void
EmbeddingTable::InitDeterministic(uint64_t table_seed, int64_t row_offset,
                                  int64_t col_offset, int64_t full_dim)
{
    NEO_REQUIRE(full_dim >= col_offset + dim_,
                "column shard exceeds full dimension");
    const float bound = 1.0f / std::sqrt(static_cast<float>(full_dim));
    std::vector<float> full_row(static_cast<size_t>(full_dim));
    for (int64_t r = 0; r < rows_; r++) {
        // One independent stream per global row: the same values appear in
        // the same (row, col) slots no matter how the table is sharded.
        Rng rng(table_seed ^
                (0x9E3779B97F4A7C15ull *
                 static_cast<uint64_t>(row_offset + r + 1)));
        for (int64_t c = 0; c < full_dim; c++) {
            full_row[c] = rng.NextUniform(-bound, bound);
        }
        WriteRow(r, full_row.data() + col_offset);
    }
}

void
EmbeddingTable::ReadRow(int64_t row, float* out) const
{
    NEO_CHECK(row >= 0 && row < rows_, "row index out of range: ", row);
    const size_t base = static_cast<size_t>(row) * dim_;
    if (precision_ == Precision::kFp32) {
        for (int64_t d = 0; d < dim_; d++) {
            out[d] = data_f32_[base + d];
        }
    } else {
        kernels::Active().dequant_f16(data_f16_.data() + base, out,
                                      static_cast<size_t>(dim_));
    }
}

void
EmbeddingTable::CopyRows(std::span<const int64_t> rows, uint8_t* out) const
{
    const size_t d = static_cast<size_t>(dim_);
    const size_t row_bytes = d * sizeof(float);
    // Rows are scattered across the table: prefetch a few ahead so their
    // cache misses overlap instead of arriving one at a time.
    constexpr size_t kAhead = 8;
    static thread_local AlignedVector<float> widened;
    widened.resize(d);
    for (size_t i = 0; i < rows.size(); i++) {
        NEO_CHECK(rows[i] >= 0 && rows[i] < rows_,
                  "row index out of range: ", rows[i]);
        const size_t base = static_cast<size_t>(rows[i]) * d;
        if (i + kAhead < rows.size()) {
            const size_t next = static_cast<size_t>(rows[i + kAhead]) * d;
            __builtin_prefetch(precision_ == Precision::kFp32
                                   ? static_cast<const void*>(
                                         data_f32_.data() + next)
                                   : data_f16_.data() + next);
        }
        if (precision_ == Precision::kFp32) {
            std::memcpy(out + i * row_bytes, data_f32_.data() + base,
                        row_bytes);
        } else {
            kernels::Active().dequant_f16(data_f16_.data() + base,
                                          widened.data(), d);
            std::memcpy(out + i * row_bytes, widened.data(), row_bytes);
        }
    }
}

void
EmbeddingTable::WriteRow(int64_t row, const float* in)
{
    NEO_CHECK(row >= 0 && row < rows_, "row index out of range: ", row);
    const size_t base = static_cast<size_t>(row) * dim_;
    if (precision_ == Precision::kFp32) {
        for (int64_t d = 0; d < dim_; d++) {
            data_f32_[base + d] = in[d];
        }
    } else {
        kernels::Active().quant_f16(in, data_f16_.data() + base,
                                    static_cast<size_t>(dim_));
    }
}

void
EmbeddingTable::AccumulateRow(int64_t row, float weight, float* out) const
{
    NEO_CHECK(row >= 0 && row < rows_, "row index out of range: ", row);
    const size_t base = static_cast<size_t>(row) * dim_;
    const kernels::KernelTable& kt = kernels::Active();
    if (precision_ == Precision::kFp32) {
        kt.axpy_f32(weight, data_f32_.data() + base, out,
                    static_cast<size_t>(dim_));
    } else {
        // Exact dequant into scratch, then the same separately-rounded
        // axpy chain the fp32 path runs.
        static thread_local AlignedVector<float> scratch;
        scratch.resize(static_cast<size_t>(dim_));
        kt.dequant_f16(data_f16_.data() + base, scratch.data(),
                       static_cast<size_t>(dim_));
        kt.axpy_f32(weight, scratch.data(), out, static_cast<size_t>(dim_));
    }
}

void
EmbeddingTable::PoolRows(const int64_t* indices, size_t count,
                         float* out) const
{
    for (size_t i = 0; i < count; i++) {
        NEO_CHECK(indices[i] >= 0 && indices[i] < rows_,
                  "row index out of range: ", indices[i]);
    }
    const kernels::KernelTable& kt = kernels::Active();
    if (precision_ == Precision::kFp32) {
        kt.pool_rows_f32(data_f32_.data(), static_cast<size_t>(dim_),
                         indices, count, out);
    } else {
        kt.pool_rows_f16(data_f16_.data(), static_cast<size_t>(dim_),
                         indices, count, out);
    }
}

bool
EmbeddingTable::Identical(const EmbeddingTable& a, const EmbeddingTable& b)
{
    return a.rows_ == b.rows_ && a.dim_ == b.dim_ &&
           a.precision_ == b.precision_ && a.data_f32_ == b.data_f32_ &&
           a.data_f16_ == b.data_f16_;
}

float
EmbeddingTable::MaxAbsDiff(const EmbeddingTable& a, const EmbeddingTable& b)
{
    NEO_REQUIRE(a.rows_ == b.rows_ && a.dim_ == b.dim_,
                "MaxAbsDiff shape mismatch");
    std::vector<float> ra(a.dim_), rb(b.dim_);
    float max_diff = 0.0f;
    for (int64_t r = 0; r < a.rows_; r++) {
        a.ReadRow(r, ra.data());
        b.ReadRow(r, rb.data());
        for (int64_t d = 0; d < a.dim_; d++) {
            max_diff = std::max(max_diff, std::abs(ra[d] - rb[d]));
        }
    }
    return max_diff;
}

void
EmbeddingTable::Save(BinaryWriter& writer) const
{
    writer.Write<uint32_t>(0x454D4254u);  // 'EMBT'
    writer.Write<int64_t>(rows_);
    writer.Write<int64_t>(dim_);
    writer.Write<uint8_t>(precision_ == Precision::kFp16 ? 1 : 0);
    if (precision_ == Precision::kFp32) {
        writer.WriteVector(data_f32_);
    } else {
        writer.WriteVector(data_f16_);
    }
}

size_t
EmbeddingTable::SavedBytes() const
{
    // magic, rows, dim, precision tag, payload length prefix, payload.
    return sizeof(uint32_t) + 2 * sizeof(int64_t) + sizeof(uint8_t) +
           sizeof(uint64_t) + ParameterBytes();
}

EmbeddingTable::SavedView
EmbeddingTable::SavedView::Parse(BinaryReader& reader)
{
    const uint32_t magic = reader.Read<uint32_t>();
    NEO_REQUIRE(magic == 0x454D4254u, "bad embedding table magic");
    SavedView view;
    view.rows_ = reader.Read<int64_t>();
    view.dim_ = reader.Read<int64_t>();
    view.precision_ =
        reader.Read<uint8_t>() ? Precision::kFp16 : Precision::kFp32;
    NEO_REQUIRE(view.rows_ > 0 && view.dim_ > 0,
                "embedding table must be non-empty");
    uint64_t count = 0;
    if (view.precision_ == Precision::kFp16) {
        const VectorView<uint16_t> payload = reader.ViewVector<uint16_t>();
        count = payload.size;
        view.bytes_ = payload.bytes;
    } else {
        const VectorView<float> payload = reader.ViewVector<float>();
        count = payload.size;
        view.bytes_ = payload.bytes;
    }
    // Divide instead of multiplying: corrupt dimensions must not overflow.
    NEO_REQUIRE(count % static_cast<uint64_t>(view.dim_) == 0 &&
                    count / static_cast<uint64_t>(view.dim_) ==
                        static_cast<uint64_t>(view.rows_),
                "checkpoint size mismatch");
    return view;
}

void
EmbeddingTable::SavedView::ReadRow(int64_t row, float* out) const
{
    NEO_CHECK(row >= 0 && row < rows_, "row index out of range: ", row);
    const size_t d = static_cast<size_t>(dim_);
    const size_t base = static_cast<size_t>(row) * d;
    if (precision_ == Precision::kFp32) {
        std::memcpy(out, bytes_ + base * sizeof(float), d * sizeof(float));
        return;
    }
    // The saved half bits need not be aligned: copy, then dequantize with
    // the kernel the loaded table's ReadRow uses.
    static thread_local AlignedVector<uint16_t> bits;
    bits.resize(d);
    std::memcpy(bits.data(), bytes_ + base * sizeof(uint16_t),
                d * sizeof(uint16_t));
    kernels::Active().dequant_f16(bits.data(), out, d);
}

EmbeddingTable
EmbeddingTable::Load(BinaryReader& reader)
{
    const SavedView view = SavedView::Parse(reader);
    EmbeddingTable table(view.rows_, view.dim_, view.precision_);
    const size_t count = static_cast<size_t>(view.rows_) * view.dim_;
    if (view.precision_ == Precision::kFp16) {
        std::memcpy(table.data_f16_.data(), view.bytes_,
                    count * sizeof(uint16_t));
    } else {
        std::memcpy(table.data_f32_.data(), view.bytes_,
                    count * sizeof(float));
    }
    return table;
}

}  // namespace neo::ops
