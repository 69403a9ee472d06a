/**
 * @file
 * Kernel tier selection. The per-tier tables live in their own TUs
 * (compiled with the matching -m flags); this TU is built without any
 * SIMD flags and only ever takes the address of a tier's table when the
 * CPUID probe says the host can execute it, so the binary stays runnable
 * on the narrowest supported machine.
 */
#include <atomic>
#include <cstdlib>
#include <string>

#include "common/cpu_features.h"
#include "common/logging.h"
#include "kernels/kernels.h"
#include "obs/metrics.h"

namespace neo::kernels {

namespace detail_tiers {

const KernelTable& ScalarTable();
#if defined(NEO_KERNELS_HAVE_AVX2)
const KernelTable& Avx2Table();
#endif
#if defined(NEO_KERNELS_HAVE_AVX512)
const KernelTable& Avx512Table();
#endif

}  // namespace detail_tiers

namespace {

/** Compiled-in + runtime-executable check for one tier. */
bool
TierSupported(Tier tier)
{
    const CpuFeatures& host = CpuFeatures::Host();
    switch (tier) {
        case Tier::kScalar:
            return true;
        case Tier::kAvx2:
#if defined(NEO_KERNELS_HAVE_AVX2)
            return host.avx2 && host.fma && host.f16c;
#else
            return false;
#endif
        case Tier::kAvx512:
#if defined(NEO_KERNELS_HAVE_AVX512)
            return host.avx512f && host.fma && host.f16c;
#else
            return false;
#endif
    }
    return false;
}

const KernelTable&
TableForSupported(Tier tier)
{
    switch (tier) {
#if defined(NEO_KERNELS_HAVE_AVX2)
        case Tier::kAvx2:
            return detail_tiers::Avx2Table();
#endif
#if defined(NEO_KERNELS_HAVE_AVX512)
        case Tier::kAvx512:
            return detail_tiers::Avx512Table();
#endif
        default:
            return detail_tiers::ScalarTable();
    }
}

void
PublishTierGauge(Tier tier)
{
    obs::MetricsRegistry::Get()
        .GetGauge("neo.kernels.tier")
        .Set(static_cast<double>(tier));
}

/** Widest supported tier, after the NEO_KERNEL_TIER override if set. */
Tier
ResolveTier()
{
    if (const char* env = std::getenv("NEO_KERNEL_TIER")) {
        const std::string want(env);
        Tier tier = Tier::kScalar;
        if (want == "scalar") {
            tier = Tier::kScalar;
        } else if (want == "avx2") {
            tier = Tier::kAvx2;
        } else if (want == "avx512") {
            tier = Tier::kAvx512;
        } else {
            NEO_FATAL("NEO_KERNEL_TIER='", want,
                      "' is not one of scalar|avx2|avx512");
        }
        if (!TierSupported(tier)) {
            NEO_FATAL("NEO_KERNEL_TIER=", want,
                      " requested but this build/host cannot execute that "
                      "tier (host: ",
                      CpuFeatures::Host().ToString(), ")");
        }
        return tier;
    }
    for (Tier tier : {Tier::kAvx512, Tier::kAvx2, Tier::kScalar}) {
        if (TierSupported(tier)) {
            return tier;
        }
    }
    return Tier::kScalar;
}

std::atomic<const KernelTable*> g_active{nullptr};

}  // namespace

const char*
TierName(Tier tier)
{
    switch (tier) {
        case Tier::kScalar:
            return "scalar";
        case Tier::kAvx2:
            return "avx2";
        case Tier::kAvx512:
            return "avx512";
    }
    return "unknown";
}

const KernelTable&
Active()
{
    const KernelTable* table = g_active.load(std::memory_order_acquire);
    if (table == nullptr) {
        const KernelTable& resolved = TableForSupported(ResolveTier());
        const KernelTable* expected = nullptr;
        // Several threads can race the first resolve; they all compute
        // the same answer, so whichever publishes first wins.
        if (g_active.compare_exchange_strong(expected, &resolved,
                                             std::memory_order_acq_rel)) {
            PublishTierGauge(resolved.tier);
        }
        table = g_active.load(std::memory_order_acquire);
    }
    return *table;
}

Tier
ActiveTier()
{
    return Active().tier;
}

std::vector<Tier>
SupportedTiers()
{
    std::vector<Tier> tiers;
    for (Tier tier : {Tier::kScalar, Tier::kAvx2, Tier::kAvx512}) {
        if (TierSupported(tier)) {
            tiers.push_back(tier);
        }
    }
    return tiers;
}

void
SetTier(Tier tier)
{
    NEO_CHECK(TierSupported(tier), "SetTier(", TierName(tier),
              "): tier not executable on this build/host (",
              CpuFeatures::Host().ToString(), ")");
    g_active.store(&TableForSupported(tier), std::memory_order_release);
    PublishTierGauge(tier);
}

const KernelTable&
TableFor(Tier tier)
{
    NEO_CHECK(TierSupported(tier), "TableFor(", TierName(tier),
              "): tier not executable on this build/host (",
              CpuFeatures::Host().ToString(), ")");
    return TableForSupported(tier);
}

}  // namespace neo::kernels
