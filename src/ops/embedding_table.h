/**
 * @file
 * Embedding table storage with selectable row precision.
 *
 * The paper stores tables in FP32 or FP16 (Sec. 5.3.2: FP16 halves the
 * model footprint, giving the sharder headroom). Rows are stored
 * contiguously; FP16 rows are widened to FP32 for arithmetic and re-rounded
 * on write-back, matching mixed-precision embedding storage [57].
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/aligned.h"
#include "common/float_types.h"
#include "common/rng.h"
#include "common/serialize.h"

namespace neo::ops {

/** One embedding table of `rows` x `dim` parameters. */
class EmbeddingTable
{
  public:
    /**
     * @param rows Hash size H.
     * @param dim Embedding dimension D.
     * @param precision kFp32 or kFp16 row storage.
     */
    EmbeddingTable(int64_t rows, int64_t dim,
                   Precision precision = Precision::kFp32);

    int64_t rows() const { return rows_; }
    int64_t dim() const { return dim_; }
    Precision precision() const { return precision_; }

    /** Bytes of parameter storage. */
    size_t ParameterBytes() const;

    /** Deterministic uniform init in [-1/sqrt(dim), 1/sqrt(dim)]. */
    void InitUniform(Rng& rng);

    /**
     * Shard-stable initialization: every logical (row, col) of the full
     * table gets a value derived only from (table_seed, global row, col),
     * so a row/column shard initializes identically to the corresponding
     * slice of the unsharded table. Required for verifying distributed
     * training against the single-process reference.
     *
     * @param table_seed Per-table seed.
     * @param row_offset Global row index of local row 0.
     * @param col_offset Global column index of local column 0.
     * @param full_dim The unsharded table's dimension D.
     */
    void InitDeterministic(uint64_t table_seed, int64_t row_offset,
                           int64_t col_offset, int64_t full_dim);

    /** Copy row `row` into `out[0..dim)`, widening if needed. */
    void ReadRow(int64_t row, float* out) const;

    /**
     * Copy rows `rows`, widened to fp32, to `out` back to back (rows.size()
     * x dim floats). `out` needs no alignment: this is how a checkpoint
     * writes rows straight into stream bytes. Bitwise what ReadRow gives.
     */
    void CopyRows(std::span<const int64_t> rows, uint8_t* out) const;

    /** Overwrite row `row` from `in[0..dim)`, rounding if needed. */
    void WriteRow(int64_t row, const float* in);

    /** Accumulate `out[d] += weight * row[d]` without materializing. */
    void AccumulateRow(int64_t row, float weight, float* out) const;

    /**
     * Fused sum pooling of one bag: out[d] += sum_i row(indices[i])[d],
     * indices in occurrence order. Dispatches to the active SIMD kernel
     * tier; bitwise identical to `count` AccumulateRow(weight=1) calls.
     */
    void PoolRows(const int64_t* indices, size_t count, float* out) const;

    /** Exact bitwise equality of stored parameters (determinism tests). */
    static bool Identical(const EmbeddingTable& a, const EmbeddingTable& b);

    /** Max |a-b| over all parameters after widening. */
    static float MaxAbsDiff(const EmbeddingTable& a, const EmbeddingTable& b);

    /** Serialize parameters (and precision tag). */
    void Save(BinaryWriter& writer) const;

    /** Bytes Save() writes, so writers can size their buffer once. */
    size_t SavedBytes() const;

    /** Deserialize; shape and precision must match the checkpoint. */
    static EmbeddingTable Load(BinaryReader& reader);

    /**
     * A table as Save() wrote it, read in place: the header and payload
     * length are validated like Load, but no row is copied until
     * ReadRow asks for it. Borrows the reader's bytes (valid while they
     * are), so a restore can pick the rows it needs out of a large saved
     * shard without materializing the shard.
     */
    class SavedView
    {
      public:
        /** Parse one saved table, advancing `reader` past it. */
        static SavedView Parse(BinaryReader& reader);

        int64_t rows() const { return rows_; }
        int64_t dim() const { return dim_; }

        /** Copy saved row `row` into `out[0..dim)`, widening if needed
         *  (bitwise what the loaded table's ReadRow returns). */
        void ReadRow(int64_t row, float* out) const;

      private:
        friend class EmbeddingTable;
        int64_t rows_ = 0;
        int64_t dim_ = 0;
        Precision precision_ = Precision::kFp32;
        const uint8_t* bytes_ = nullptr;
    };

  private:
    int64_t rows_;
    int64_t dim_;
    Precision precision_;
    /**
     * Row storage is 64-byte aligned (AlignedVector) so the SIMD kernels
     * see cache-line-aligned gather sources.
     */
    /** FP32 storage (used when precision_ == kFp32). */
    AlignedVector<float> data_f32_;
    /** FP16 storage as raw half bits (used when precision_ == kFp16). */
    AlignedVector<uint16_t> data_f16_;
};

}  // namespace neo::ops
