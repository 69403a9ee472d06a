/**
 * @file
 * UVM-style paged store: the baseline the software cache is compared
 * against (Sec. 4.1.3). CUDA unified memory migrates whole pages over PCIe
 * on fault and evicts at page granularity, so sparse row accesses drag in
 * mostly-unused data. This model reproduces that behaviour: an LRU set of
 * resident pages with page-sized migrations charged to the PCIe/DDR tier.
 */
#pragma once

#include <cstring>
#include <list>
#include <unordered_map>

#include "cache/memory_tier.h"
#include "ops/embedding_table.h"
#include "ops/row_store.h"

namespace neo::cache {

/** Paging statistics. */
struct UvmStats {
    uint64_t accesses = 0;
    uint64_t page_faults = 0;
    uint64_t page_evictions = 0;
    uint64_t migrated_bytes = 0;

    double
    FaultRate() const
    {
        return accesses ? static_cast<double>(page_faults) / accesses : 0.0;
    }
};

/** Page-granular LRU view over an embedding table. */
class UvmPagedStore : public ops::RowStore
{
  public:
    /**
     * @param backing Host-resident table (owned).
     * @param page_bytes Migration granularity (CUDA uses up to 2 MiB; 64KiB
     *   is typical for access-counter based migration).
     * @param resident_budget_bytes HBM budget for resident pages.
     * @param hbm HBM traffic tier (not owned).
     * @param pcie PCIe/DDR traffic tier (not owned).
     */
    UvmPagedStore(ops::EmbeddingTable backing, size_t page_bytes,
                  size_t resident_budget_bytes, MemoryTier* hbm,
                  MemoryTier* pcie);

    /** Read one row, faulting its page in if needed. */
    void ReadRow(int64_t row, float* out) override;

    /** Write one row, faulting its page in and marking it dirty. */
    void WriteRow(int64_t row, const float* in) override;

    const UvmStats& stats() const { return stats_; }

    /** Rows per page. */
    size_t RowsPerPage() const { return rows_per_page_; }

    /** Max resident pages. */
    size_t MaxResidentPages() const { return max_resident_pages_; }

    int64_t rows() const override { return backing_.rows(); }
    int64_t dim() const override { return backing_.dim(); }

  private:
    /** Fault handler: make the page holding `row` resident. */
    void TouchPage(int64_t row);

    size_t RowBytes() const;

    ops::EmbeddingTable backing_;
    size_t rows_per_page_;
    size_t max_resident_pages_;
    MemoryTier* hbm_;
    MemoryTier* pcie_;

    /** LRU list of resident page ids (front = most recent). */
    std::list<int64_t> lru_;
    /** page id -> iterator into lru_. */
    std::unordered_map<int64_t, std::list<int64_t>::iterator> resident_;

    UvmStats stats_;
};

}  // namespace neo::cache
