/**
 * @file
 * Fleet-level availability/failover model for a serve::FleetRouter
 * (test_fleet checks its terms; bench/micro_fleet diffs them against a
 * measured replica kill).
 */
#pragma once

namespace neo::sim {

/**
 * Fleet-level availability/failover cost terms for a FleetRouter over
 * N replica serving worlds (the serving analogue of FaultModel's
 * training failure terms). One replica kill costs the fleet:
 * detect (poisoned barrier propagation or a barrier timeout on an idle
 * world) + drain (typed kReplicaFailed completion of in-flight
 * requests) + backoff + redispatch service on a survivor; capacity runs
 * degraded at (N-1)/N until the replica is replaced. Snapshot warm-up
 * happens off the serve path, so a version flip costs zero
 * availability by construction (`warmup_seconds` only delays the flip).
 */
struct FleetSetup {
    /** Replica serving worlds behind the router. */
    int replicas = 3;
    /** One replica's sustained throughput, requests/second. */
    double replica_qps = 1000.0;
    /** One replica's per-batch latency, seconds. */
    double batch_seconds = 1e-3;
    /** Failure detection: ~0 for a poisoned barrier mid-collective
     *  (peers wake immediately), barrier_timeout for an idle world. */
    double detect_seconds = 1e-3;
    /** Router backoff before the replayed dispatch. */
    double backoff_seconds = 1e-3;
    /** Requests in flight on the dying replica (queue + staged). */
    double inflight_requests = 32.0;
    /** Engine version-state build time (paid off the serve path). */
    double warmup_seconds = 0.0;
};

/** What one replica kill costs the fleet. */
struct FleetEstimate {
    /** Fleet throughput with all replicas up. */
    double steady_qps = 0.0;
    /** Fleet throughput with one replica quarantined. */
    double degraded_qps = 0.0;
    /** Added latency of a replayed request: detect + drain + backoff +
     *  rescore on a survivor. */
    double failover_latency = 0.0;
    /** Fraction of capacity-seconds retained over `horizon_seconds`
     *  when one replica dies at the start of it (requests are replayed,
     *  not lost, so request success stays 1.0 — availability here is
     *  capacity, not correctness). */
    double availability = 0.0;
    /** Latency cliff a cold version flip would add to the first
     *  request; 0 with warm-up (the entire point of Prewarm). */
    double cold_flip_penalty = 0.0;
};

/** Closed-form evaluation of FleetSetup (pure; unit-testable). */
class FleetModel
{
  public:
    explicit FleetModel(const FleetSetup& setup) : setup_(setup) {}

    FleetEstimate Estimate(double horizon_seconds) const;

    const FleetSetup& setup() const { return setup_; }

  private:
    FleetSetup setup_;
};

}  // namespace neo::sim
