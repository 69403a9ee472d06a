/**
 * @file
 * HBM-cached embedding storage: a DDR-resident embedding table fronted by
 * the 32-way set-associative software cache (Sec. 4.1.3). Reads and writes
 * go through the cache at row granularity; dirty rows are written back on
 * eviction or Flush(). Tier traffic is charged to the supplied MemoryTier
 * objects so benches can convert it into effective bandwidth.
 */
#pragma once

#include <memory>

#include "common/aligned.h"
#include "cache/memory_tier.h"
#include "cache/set_associative_cache.h"
#include "ops/embedding_table.h"
#include "ops/row_store.h"

namespace neo::cache {

/** Row-granular cached view over an embedding table. */
class CachedEmbeddingStore : public ops::RowStore
{
  public:
    /**
     * @param backing The DDR-resident table (owned).
     * @param cache_config Cache geometry; slot data lives in HBM.
     * @param hbm HBM tier for traffic accounting (not owned).
     * @param ddr DDR/PCIe tier for traffic accounting (not owned).
     */
    CachedEmbeddingStore(ops::EmbeddingTable backing,
                         const CacheConfig& cache_config, MemoryTier* hbm,
                         MemoryTier* ddr);

    /** Read one row through the cache. */
    void ReadRow(int64_t row, float* out) override;

    /** Write one row into the cache (write-back, marks dirty). */
    void WriteRow(int64_t row, const float* in) override;

    /** Write all dirty rows back to the backing table and clear the cache. */
    void Flush();

    /** Cache directory statistics. */
    const CacheStats& stats() const { return cache_.stats(); }

    /** Bytes of one row in cache/backing. */
    size_t RowBytes() const;

    /** Backing table; call Flush() first for an up-to-date view. */
    ops::EmbeddingTable& backing() { return backing_; }

    int64_t rows() const override { return backing_.rows(); }
    int64_t dim() const override { return backing_.dim(); }

  private:
    /** Ensure the row is resident; returns its slot. */
    uint64_t EnsureResident(int64_t row);

    float* SlotData(uint64_t slot);

    ops::EmbeddingTable backing_;
    SetAssociativeCache cache_;
    /**
     * Cached row data, slot-major (NumSlots x dim), conceptually in HBM.
     * 64-byte aligned like every kernel-visible row buffer.
     */
    AlignedVector<float> slot_data_;
    MemoryTier* hbm_;
    MemoryTier* ddr_;
};

}  // namespace neo::cache
