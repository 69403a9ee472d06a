/**
 * @file
 * Fault-tolerant serving fleet: a FleetRouter fronts N independent
 * serving worlds (each its own ThreadedWorld + Server — a "replica")
 * and turns single-world fault detection into end-to-end request
 * survival:
 *
 *  - **Weighted dispatch.** Each replica carries a ReplicaHealth score
 *    (latency EWMA, shed rate, straggler decay); Submit picks a replica
 *    by weight and falls through the remaining replicas if it sheds, so
 *    one overloaded or slow replica degrades gracefully instead of
 *    gating the fleet.
 *
 *  - **Mid-batch failover.** When a rank dies inside a replica's serve
 *    collective, that replica fails fast (Server::RankLoop drains every
 *    held request as a typed kReplicaFailed response) and the router's
 *    pump thread quarantines it and resubmits the affected requests to
 *    a surviving replica after a saturating backoff. Scores are
 *    per-sample deterministic, so a replayed request returns a response
 *    bitwise identical to an unkilled run. Clients never see a broken
 *    promise — only a completed future with a terminal status.
 *
 *  - **Snapshot warm-up.** Publish pre-builds the next version's engine
 *    state on every rank of every replica (Server::Prewarm rides idle
 *    slots of the serving collective) before atomically flipping
 *    traffic replica by replica — no first-request latency cliff.
 *    Per-request `pinned_version` keeps A/B splits served from the
 *    registry's version history across the flip.
 *
 * The front-end/executor split mirrors ONNX Runtime's hosting server:
 * the router is a thin scoring/retry shim, all model execution stays in
 * the replicas.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "comm/threaded_process_group.h"
#include "core/checkpoint.h"
#include "obs/straggler.h"
#include "serve/health.h"
#include "serve/server.h"

namespace neo::serve {

struct RouterOptions {
    /** Max dispatch attempts per request (first try included). */
    size_t max_attempts = 4;
    /** Backoff before redispatch attempt k: retry_backoff doubled per
     *  prior attempt, clamped to max_retry_backoff (saturating — never
     *  overflows for any attempt count). */
    std::chrono::milliseconds retry_backoff{1};
    std::chrono::milliseconds max_retry_backoff{250};
    /** Pump-thread health tick period (replica gauges, straggler
     *  verdicts, failed-replica quarantine). */
    std::chrono::milliseconds health_period{20};
    HealthOptions health;
    /** Weighted-pick RNG seed (deterministic dispatch for tests). */
    uint64_t seed = 0x5eedf1ee7ull;
};

/** Backoff before redispatch attempt `attempt` (1-based). */
std::chrono::milliseconds RouterBackoffDelay(const RouterOptions& options,
                                             size_t attempt);

/**
 * Front end over N replica Servers. Thread-safe: any client thread may
 * Submit; a background pump thread reaps completions, replays failed
 * requests, and maintains health; a publisher lane runs warm-up
 * publishes. Replicas are not owned — add them all before the first
 * Submit and keep them (and their worlds) alive until Stop().
 */
class FleetRouter
{
  public:
    explicit FleetRouter(const RouterOptions& options = RouterOptions());
    ~FleetRouter();

    FleetRouter(const FleetRouter&) = delete;
    FleetRouter& operator=(const FleetRouter&) = delete;

    /**
     * Register a replica (call before the first Submit). `world` is
     * optional: when given, the router polls its straggler verdicts
     * into the replica's health. Returns the replica id.
     */
    size_t AddReplica(std::string name, Server* server,
                      comm::ThreadedWorld* world = nullptr);

    size_t NumReplicas() const;

    /**
     * Route one request. On kAccepted the ticket's future ALWAYS
     * completes with a typed Response: kOk (possibly after transparent
     * failover), kStopped / kVersionUnavailable passed through, or
     * kFailed when every attempt was exhausted. Sheds only when every
     * live replica refuses admission.
     */
    Ticket Submit(Request request);

    /**
     * Warm-then-flip: Prewarm `snapshot` on every live replica, then
     * Publish it to each (atomic per-replica flip; in-flight batches
     * finish on their version). Blocking; returns the number of
     * replicas now serving the version. Safe while traffic flows — the
     * warm-up rides idle collective slots.
     */
    size_t Publish(std::shared_ptr<const ModelSnapshot> snapshot);

    /** Queue a warm-then-flip on the publisher lane and return
     *  immediately; the lane applies publishes in order. */
    void PublishAsync(std::shared_ptr<const ModelSnapshot> snapshot);

    /**
     * Cut a snapshot from a published CheckpointStore (next fleet
     * version, serving plan `plan`) and warm-then-flip it. Returns the
     * published version. Pair with CheckpointStore::Generation() to
     * poll for fresh trainer output.
     */
    uint64_t PublishFromStore(const core::CheckpointStore& store,
                              const core::DlrmConfig& config,
                              const sharding::ShardingPlan& plan);

    /** Smallest version strictly above every replica's current one. */
    uint64_t NextVersion() const;

    /** Drain in-flight requests and stop the pump/publisher threads.
     *  Idempotent; the destructor calls it. Does not stop the replicas
     *  (caller-owned). */
    void Stop();

    ReplicaState StateOf(size_t replica) const;
    double WeightOf(size_t replica) const;
    /** Replicas currently dispatchable (kHealthy or kSuspect). */
    size_t HealthyCount() const;

    struct Totals {
        uint64_t submitted = 0;
        uint64_t completed_ok = 0;
        /** Requests replayed onto another replica at least once. */
        uint64_t failovers = 0;
        /** Redispatch attempts issued. */
        uint64_t retries = 0;
        /** Requests shed at the router (every replica refused). */
        uint64_t router_shed = 0;
        /** Requests terminally failed (attempts exhausted). */
        uint64_t failed = 0;
        /** Replicas moved to quarantine. */
        uint64_t quarantines = 0;
    };
    Totals totals() const;

  private:
    struct Replica {
        std::string name;
        Server* server = nullptr;
        comm::ThreadedWorld* world = nullptr;
        ReplicaHealth health;
        Replica(std::string n, Server* s, comm::ThreadedWorld* w,
                const HealthOptions& h)
            : name(std::move(n)), server(s), world(w), health(h) {}
    };

    /** One routed request the pump thread shepherds to completion. */
    struct Flight {
        Request request;
        std::promise<Response> done;
        std::future<Response> pending;
        size_t replica = 0;
        /** Dispatch attempts so far (>= 1 once dispatched). */
        size_t attempts = 1;
        /** True while waiting out a backoff before redispatch. */
        bool waiting = false;
        std::chrono::steady_clock::time_point not_before;
    };

    void PumpLoop();
    void PublishLoop();
    /** Reap ready futures; redispatch / complete as their status says. */
    void PumpFlights();
    /**
     * Count a terminal outcome in `counter` (a field of totals_), then
     * fulfil the flight's promise, so a client woken by the promise
     * always finds its outcome already counted.
     */
    void CountThenComplete(Flight& flight, Response response,
                           uint64_t& counter);
    /** Periodic health maintenance + gauge exposition. */
    void HealthTick();
    /**
     * Try to place `request` on a live replica, best weight first,
     * falling through sheds. Returns the accepted ticket and sets
     * `replica_out`; admission != kAccepted when everyone refused.
     */
    Ticket TryDispatch(const Request& request, size_t* replica_out);
    /** Move a replica to quarantine (idempotent) + record the event. */
    void QuarantineReplica(size_t replica, const std::string& reason);
    void PublishGauges();
    /** Uniform [0,1) from the router's deterministic xorshift state. */
    double NextUniform();

    RouterOptions options_;
    mutable std::mutex replicas_mutex_;
    std::vector<std::unique_ptr<Replica>> replicas_;

    mutable std::mutex flights_mutex_;
    std::condition_variable flights_cv_;
    std::list<Flight> flights_;

    std::mutex publish_mutex_;
    std::condition_variable publish_cv_;
    std::deque<std::shared_ptr<const ModelSnapshot>> publish_queue_;

    std::mutex rng_mutex_;
    uint64_t rng_state_;

    std::atomic<bool> stop_{false};
    std::thread pump_;
    std::thread publisher_;
    std::chrono::steady_clock::time_point last_health_tick_;

    mutable std::mutex totals_mutex_;
    Totals totals_;
};

/**
 * Convenience owner of one replica: a StragglerDetector, a
 * ThreadedWorld wired to it, a Server, and one rank thread per rank
 * running Server::RankLoop. Add the server/world pair to a FleetRouter
 * via AddReplica(). Stop() (or destruction) stops the server and joins
 * the rank threads; a replica whose world died mid-batch joins
 * immediately (its loops already returned).
 */
class ReplicaHost
{
  public:
    ReplicaHost(size_t num_dense, size_t num_tables, int world_size,
                const ServerOptions& server_options,
                comm::ThreadedWorld::Options world_options =
                    comm::ThreadedWorld::Options());
    ~ReplicaHost();

    ReplicaHost(const ReplicaHost&) = delete;
    ReplicaHost& operator=(const ReplicaHost&) = delete;

    Server& server() { return *server_; }
    comm::ThreadedWorld& world() { return *world_; }
    obs::StragglerDetector& detector() { return *detector_; }

    /** Stop the server and join the rank threads (idempotent). */
    void Stop();

  private:
    std::unique_ptr<obs::StragglerDetector> detector_;
    std::unique_ptr<comm::ThreadedWorld> world_;
    std::unique_ptr<Server> server_;
    std::vector<std::thread> threads_;
    std::mutex stop_mutex_;
    bool stopped_ = false;
};

}  // namespace neo::serve
