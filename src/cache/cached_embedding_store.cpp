#include "cache/cached_embedding_store.h"

#include <cstring>

#include "common/logging.h"

namespace neo::cache {

CachedEmbeddingStore::CachedEmbeddingStore(ops::EmbeddingTable backing,
                                           const CacheConfig& cache_config,
                                           MemoryTier* hbm, MemoryTier* ddr)
    : backing_(std::move(backing)), cache_(cache_config), hbm_(hbm),
      ddr_(ddr)
{
    NEO_REQUIRE(hbm_ != nullptr && ddr_ != nullptr, "tiers required");
    slot_data_.assign(cache_.NumSlots() * static_cast<size_t>(backing_.dim()),
                      0.0f);
}

size_t
CachedEmbeddingStore::RowBytes() const
{
    return static_cast<size_t>(backing_.dim()) *
           BytesPerElement(backing_.precision());
}

float*
CachedEmbeddingStore::SlotData(uint64_t slot)
{
    return slot_data_.data() + slot * static_cast<size_t>(backing_.dim());
}

uint64_t
CachedEmbeddingStore::EnsureResident(int64_t row)
{
    if (auto slot = cache_.Access(row)) {
        return *slot;
    }
    // Miss: fetch the row from DDR (over PCIe) and fill a cache slot.
    const auto result = cache_.Insert(row);
    if (result.evicted_row && result.evicted_dirty) {
        // Write the victim back before reusing its slot.
        backing_.WriteRow(*result.evicted_row, SlotData(result.slot));
        ddr_->RecordWrite(RowBytes());
    }
    backing_.ReadRow(row, SlotData(result.slot));
    ddr_->RecordRead(RowBytes());
    hbm_->RecordWrite(RowBytes());
    return result.slot;
}

void
CachedEmbeddingStore::ReadRow(int64_t row, float* out)
{
    const uint64_t slot = EnsureResident(row);
    const float* src = SlotData(slot);
    std::memcpy(out, src, static_cast<size_t>(backing_.dim()) *
                              sizeof(float));
    hbm_->RecordRead(RowBytes());
}

void
CachedEmbeddingStore::WriteRow(int64_t row, const float* in)
{
    const uint64_t slot = EnsureResident(row);
    std::memcpy(SlotData(slot), in,
                static_cast<size_t>(backing_.dim()) * sizeof(float));
    cache_.MarkDirty(row);
    hbm_->RecordWrite(RowBytes());
}

void
CachedEmbeddingStore::Flush()
{
    for (const auto& [row, slot] : cache_.FlushDirty()) {
        backing_.WriteRow(row, SlotData(slot));
        ddr_->RecordWrite(RowBytes());
    }
}

}  // namespace neo::cache
