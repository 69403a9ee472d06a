#include "cache/uvm_store.h"

#include "common/logging.h"

namespace neo::cache {

UvmPagedStore::UvmPagedStore(ops::EmbeddingTable backing, size_t page_bytes,
                             size_t resident_budget_bytes, MemoryTier* hbm,
                             MemoryTier* pcie)
    : backing_(std::move(backing)), hbm_(hbm), pcie_(pcie)
{
    NEO_REQUIRE(hbm_ != nullptr && pcie_ != nullptr, "tiers required");
    const size_t row_bytes = RowBytes();
    NEO_REQUIRE(page_bytes >= row_bytes,
                "page must hold at least one row");
    rows_per_page_ = page_bytes / row_bytes;
    max_resident_pages_ =
        std::max<size_t>(1, resident_budget_bytes / page_bytes);
}

size_t
UvmPagedStore::RowBytes() const
{
    return static_cast<size_t>(backing_.dim()) *
           BytesPerElement(backing_.precision());
}

void
UvmPagedStore::TouchPage(int64_t row)
{
    stats_.accesses++;
    const int64_t page = row / static_cast<int64_t>(rows_per_page_);
    auto it = resident_.find(page);
    if (it != resident_.end()) {
        // Hit: move to MRU position.
        lru_.splice(lru_.begin(), lru_, it->second);
        return;
    }

    // Page fault: migrate the whole page over PCIe.
    stats_.page_faults++;
    const uint64_t page_bytes =
        static_cast<uint64_t>(rows_per_page_) * RowBytes();
    pcie_->RecordRead(page_bytes);
    hbm_->RecordWrite(page_bytes);
    stats_.migrated_bytes += page_bytes;

    if (resident_.size() >= max_resident_pages_) {
        // Evict the LRU page. UVM writes back modified pages; we charge a
        // full-page writeback, the pessimistic (and common) case for
        // embedding updates.
        const int64_t victim = lru_.back();
        lru_.pop_back();
        resident_.erase(victim);
        stats_.page_evictions++;
        pcie_->RecordWrite(page_bytes);
        stats_.migrated_bytes += page_bytes;
    }
    lru_.push_front(page);
    resident_[page] = lru_.begin();
}

void
UvmPagedStore::ReadRow(int64_t row, float* out)
{
    TouchPage(row);
    backing_.ReadRow(row, out);
    hbm_->RecordRead(RowBytes());
}

void
UvmPagedStore::WriteRow(int64_t row, const float* in)
{
    TouchPage(row);
    backing_.WriteRow(row, in);
    hbm_->RecordWrite(RowBytes());
}

}  // namespace neo::cache
