#include "sim/fleet_model.h"

#include <algorithm>

namespace neo::sim {

FleetEstimate
FleetModel::Estimate(double horizon_seconds) const
{
    FleetEstimate est;
    const double n = static_cast<double>(setup_.replicas);
    est.steady_qps = n * setup_.replica_qps;
    est.degraded_qps = std::max(0.0, n - 1.0) * setup_.replica_qps;

    // A replayed request pays: detection of the death, the typed drain
    // (in-flight requests complete as kReplicaFailed at the survivor's
    // batch cadence), the router's backoff, and a full rescore on the
    // surviving replica.
    const double drain_seconds =
        setup_.replica_qps > 0.0
            ? setup_.inflight_requests / setup_.replica_qps
            : 0.0;
    est.failover_latency = setup_.detect_seconds + drain_seconds +
                           setup_.backoff_seconds + setup_.batch_seconds;

    // Capacity-seconds retained over the horizon with one replica dead
    // from t=0: the fleet serves (n-1)/n of capacity for the whole
    // horizon plus loses the failover window's worth of the dead
    // replica's share. Requests are replayed, never dropped, so this is
    // a capacity metric — request success stays 1.0.
    if (horizon_seconds > 0.0 && n > 0.0) {
        const double lost = horizon_seconds / n +
                            est.failover_latency / n;
        est.availability =
            std::max(0.0, 1.0 - lost / horizon_seconds);
    }

    // Without Prewarm the first request after a version flip pays the
    // engine build inline; warm-up moves it off the serve path.
    est.cold_flip_penalty = setup_.warmup_seconds;
    return est;
}

}  // namespace neo::sim
