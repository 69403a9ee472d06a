#include "serve/router.h"

#include <algorithm>
#include <utility>

#include "common/logging.h"
#include "obs/flight_recorder.h"
#include "obs/metrics.h"

namespace neo::serve {

std::chrono::milliseconds
RouterBackoffDelay(const RouterOptions& options, size_t attempt)
{
    if (options.retry_backoff.count() <= 0 || attempt == 0) {
        return std::chrono::milliseconds(0);
    }
    // Saturating doubling: cap the shift so the multiply cannot
    // overflow, then clamp to the configured ceiling.
    const size_t shift = std::min<size_t>(attempt - 1, 20);
    const std::chrono::milliseconds delay{options.retry_backoff.count()
                                          << shift};
    return std::min(delay, options.max_retry_backoff);
}

FleetRouter::FleetRouter(const RouterOptions& options)
    : options_(options),
      rng_state_(options.seed == 0 ? 0x9e3779b97f4a7c15ull : options.seed)
{
    NEO_REQUIRE(options_.max_attempts >= 1,
                "router needs at least one dispatch attempt");
    pump_ = std::thread(&FleetRouter::PumpLoop, this);
    publisher_ = std::thread(&FleetRouter::PublishLoop, this);
}

FleetRouter::~FleetRouter()
{
    Stop();
}

size_t
FleetRouter::AddReplica(std::string name, Server* server,
                        comm::ThreadedWorld* world)
{
    NEO_REQUIRE(server != nullptr, "replica server must not be null");
    std::lock_guard<std::mutex> lock(replicas_mutex_);
    replicas_.push_back(std::make_unique<Replica>(
        std::move(name), server, world, options_.health));
    return replicas_.size() - 1;
}

size_t
FleetRouter::NumReplicas() const
{
    std::lock_guard<std::mutex> lock(replicas_mutex_);
    return replicas_.size();
}

double
FleetRouter::NextUniform()
{
    std::lock_guard<std::mutex> lock(rng_mutex_);
    rng_state_ ^= rng_state_ << 13;
    rng_state_ ^= rng_state_ >> 7;
    rng_state_ ^= rng_state_ << 17;
    return static_cast<double>(rng_state_ >> 11) /
           static_cast<double>(1ull << 53);
}

Ticket
FleetRouter::TryDispatch(const Request& request, size_t* replica_out)
{
    // Candidate replicas and weights under the lock; the Submit calls
    // below run lock-free against AddReplica (replicas are stable once
    // traffic starts).
    std::vector<std::pair<size_t, double>> candidates;
    {
        std::lock_guard<std::mutex> lock(replicas_mutex_);
        for (size_t i = 0; i < replicas_.size(); i++) {
            Replica& replica = *replicas_[i];
            if (replica.server->failed()) {
                continue;
            }
            const ReplicaState state = replica.health.state();
            if (state == ReplicaState::kQuarantined ||
                state == ReplicaState::kDrained) {
                continue;
            }
            candidates.emplace_back(
                i, std::max(replica.health.Weight(), 1e-9));
        }
    }
    Ticket last;
    last.admission = Admission::kShedStopped;
    while (!candidates.empty()) {
        double total = 0.0;
        for (const auto& [idx, weight] : candidates) {
            total += weight;
        }
        double roll = NextUniform() * total;
        size_t pick = candidates.size() - 1;
        for (size_t c = 0; c < candidates.size(); c++) {
            roll -= candidates[c].second;
            if (roll <= 0.0) {
                pick = c;
                break;
            }
        }
        const size_t idx = candidates[pick].first;
        Replica* replica;
        {
            std::lock_guard<std::mutex> lock(replicas_mutex_);
            replica = replicas_[idx].get();
        }
        Ticket ticket = replica->server->Submit(request);
        if (ticket.admission == Admission::kAccepted) {
            replica->health.RecordAdmit();
            *replica_out = idx;
            return ticket;
        }
        // Shed: penalize this replica's weight and fall through to the
        // next-best candidate — one overloaded replica must not gate
        // the fleet.
        replica->health.RecordShed();
        last.admission = ticket.admission;
        candidates.erase(candidates.begin() +
                         static_cast<std::ptrdiff_t>(pick));
    }
    return last;
}

Ticket
FleetRouter::Submit(Request request)
{
    auto& metrics = obs::MetricsRegistry::Get();
    metrics.GetCounter("neo.fleet.requests").Add();
    {
        std::lock_guard<std::mutex> lock(totals_mutex_);
        totals_.submitted++;
    }
    size_t replica = 0;
    Ticket inner = TryDispatch(request, &replica);
    if (inner.admission != Admission::kAccepted) {
        std::lock_guard<std::mutex> lock(totals_mutex_);
        totals_.router_shed++;
        metrics.GetCounter("neo.fleet.router_shed").Add();
        return inner;
    }
    Flight flight;
    flight.request = std::move(request);
    flight.pending = std::move(inner.response);
    flight.replica = replica;
    Ticket ticket;
    ticket.admission = Admission::kAccepted;
    ticket.response = flight.done.get_future();
    {
        std::lock_guard<std::mutex> lock(flights_mutex_);
        flights_.push_back(std::move(flight));
    }
    flights_cv_.notify_all();
    return ticket;
}

void
FleetRouter::QuarantineReplica(size_t replica_idx,
                               const std::string& reason)
{
    Replica* replica;
    {
        std::lock_guard<std::mutex> lock(replicas_mutex_);
        replica = replicas_[replica_idx].get();
    }
    const ReplicaState state = replica->health.state();
    if (state == ReplicaState::kQuarantined ||
        state == ReplicaState::kDrained) {
        return;
    }
    replica->health.MarkFailed();
    {
        std::lock_guard<std::mutex> lock(totals_mutex_);
        totals_.quarantines++;
    }
    obs::MetricsRegistry::Get()
        .GetCounter("neo.fleet.quarantines")
        .Add();
    obs::FlightRecorder::Get().RecordEvent(
        0, "fleet_quarantine",
        "replica " + std::to_string(replica_idx) + " (" + replica->name +
            ") quarantined: " + reason);
    PublishGauges();
}

void
FleetRouter::PumpFlights()
{
    using namespace std::chrono_literals;
    const auto now = std::chrono::steady_clock::now();
    auto& metrics = obs::MetricsRegistry::Get();
    std::lock_guard<std::mutex> lock(flights_mutex_);
    for (auto it = flights_.begin(); it != flights_.end();) {
        Flight& flight = *it;
        if (flight.waiting) {
            if (now < flight.not_before) {
                ++it;
                continue;
            }
            size_t replica = 0;
            Ticket ticket = TryDispatch(flight.request, &replica);
            {
                std::lock_guard<std::mutex> tlock(totals_mutex_);
                totals_.retries++;
            }
            metrics.GetCounter("neo.fleet.retries").Add();
            if (ticket.admission == Admission::kAccepted) {
                flight.pending = std::move(ticket.response);
                flight.replica = replica;
                flight.waiting = false;
                ++it;
                continue;
            }
            // Nobody accepted this round: back off again (saturating)
            // until attempts run out.
            flight.attempts++;
            if (flight.attempts > options_.max_attempts) {
                Response response;
                response.id = flight.request.id;
                response.status = ResponseStatus::kFailed;
                CountThenComplete(flight, std::move(response),
                                  totals_.failed);
                it = flights_.erase(it);
                continue;
            }
            flight.not_before =
                now + RouterBackoffDelay(options_, flight.attempts - 1);
            ++it;
            continue;
        }
        if (flight.pending.wait_for(0s) != std::future_status::ready) {
            ++it;
            continue;
        }
        Response response = flight.pending.get();
        if (response.status == ResponseStatus::kOk) {
            Replica* replica;
            {
                std::lock_guard<std::mutex> rlock(replicas_mutex_);
                replica = replicas_[flight.replica].get();
            }
            replica->health.RecordLatency(response.total_seconds);
            CountThenComplete(flight, std::move(response),
                              totals_.completed_ok);
            it = flights_.erase(it);
            continue;
        }
        if (response.status == ResponseStatus::kReplicaFailed) {
            // The replica's world died with this request on board. The
            // request was never scored (typed drain, not a broken
            // promise), so replaying it verbatim on a surviving replica
            // returns bitwise-identical scores.
            QuarantineReplica(flight.replica,
                              "reported kReplicaFailed for request " +
                                  std::to_string(flight.request.id));
            {
                std::lock_guard<std::mutex> tlock(totals_mutex_);
                totals_.failovers++;
            }
            metrics.GetCounter("neo.fleet.failovers").Add();
            if (flight.attempts >= options_.max_attempts) {
                response.status = ResponseStatus::kFailed;
                CountThenComplete(flight, std::move(response),
                                  totals_.failed);
                it = flights_.erase(it);
                continue;
            }
            flight.attempts++;
            flight.waiting = true;
            flight.not_before =
                now + RouterBackoffDelay(options_, flight.attempts - 1);
            ++it;
            continue;
        }
        // kStopped / kVersionUnavailable: administrative terminal
        // statuses pass through to the client unchanged.
        flight.done.set_value(std::move(response));
        it = flights_.erase(it);
    }
}

void
FleetRouter::CountThenComplete(Flight& flight, Response response,
                               uint64_t& counter)
{
    {
        std::lock_guard<std::mutex> lock(totals_mutex_);
        counter++;
    }
    flight.done.set_value(std::move(response));
}

void
FleetRouter::HealthTick()
{
    std::vector<Replica*> replicas;
    {
        std::lock_guard<std::mutex> lock(replicas_mutex_);
        replicas.reserve(replicas_.size());
        for (auto& replica : replicas_) {
            replicas.push_back(replica.get());
        }
    }
    for (size_t i = 0; i < replicas.size(); i++) {
        Replica* replica = replicas[i];
        const ReplicaState state = replica->health.state();
        if (state == ReplicaState::kDrained) {
            continue;
        }
        if (state == ReplicaState::kQuarantined) {
            // Quarantined -> drained once the pump holds no flight
            // still pointed at this replica.
            bool busy = false;
            {
                std::lock_guard<std::mutex> lock(flights_mutex_);
                for (const auto& flight : flights_) {
                    if (!flight.waiting && flight.replica == i) {
                        busy = true;
                        break;
                    }
                }
            }
            if (!busy) {
                replica->health.MarkDrained();
            }
            continue;
        }
        if (replica->server->failed()) {
            // Covers deaths the request path never observes (e.g. an
            // idle heartbeating world missing its barrier deadline).
            QuarantineReplica(i, "server world failed");
            continue;
        }
        if (replica->world != nullptr) {
            replica->health.NoteStragglerVerdict(
                replica->world->AnalyzeStragglers().flagged);
        }
    }
    PublishGauges();
}

void
FleetRouter::PublishGauges()
{
    auto& metrics = obs::MetricsRegistry::Get();
    size_t healthy = 0;
    int suspect = -1;
    std::lock_guard<std::mutex> lock(replicas_mutex_);
    for (size_t i = 0; i < replicas_.size(); i++) {
        Replica& replica = *replicas_[i];
        const ReplicaState state = replica.health.state();
        const bool dispatchable = state == ReplicaState::kHealthy ||
                                  state == ReplicaState::kSuspect;
        if (dispatchable) {
            healthy++;
        }
        if (state == ReplicaState::kSuspect && suspect < 0) {
            suspect = static_cast<int>(i);
        }
        const std::string prefix =
            "neo.fleet.replica" + std::to_string(i) + ".";
        metrics.GetGauge(prefix + "healthy")
            .Set(dispatchable ? 1.0 : 0.0);
        metrics.GetGauge(prefix + "weight").Set(replica.health.Weight());
        metrics.GetGauge(prefix + "state")
            .Set(static_cast<double>(static_cast<int>(state)));
        metrics.GetGauge(prefix + "latency_ewma_seconds")
            .Set(replica.health.LatencyEwma());
        metrics.GetGauge(prefix + "shed_rate")
            .Set(replica.health.ShedRate());
    }
    metrics.GetGauge("neo.fleet.replica_healthy")
        .Set(static_cast<double>(healthy));
    metrics.GetGauge("neo.fleet.has_suspect")
        .Set(suspect >= 0 ? 1.0 : 0.0);
    metrics.GetGauge("neo.fleet.suspect_replica")
        .Set(static_cast<double>(suspect));
}

void
FleetRouter::PumpLoop()
{
    using namespace std::chrono_literals;
    last_health_tick_ = std::chrono::steady_clock::now();
    for (;;) {
        {
            std::unique_lock<std::mutex> lock(flights_mutex_);
            if (stop_.load() && flights_.empty()) {
                break;
            }
            // Futures have no completion callback; poll at a cadence
            // well under any serve-batch latency.
            flights_cv_.wait_for(lock, 200us);
        }
        PumpFlights();
        const auto now = std::chrono::steady_clock::now();
        if (now - last_health_tick_ >= options_.health_period) {
            last_health_tick_ = now;
            HealthTick();
        }
    }
    HealthTick();
}

void
FleetRouter::PublishLoop()
{
    for (;;) {
        std::shared_ptr<const ModelSnapshot> snapshot;
        {
            std::unique_lock<std::mutex> lock(publish_mutex_);
            publish_cv_.wait(lock, [&] {
                return stop_.load() || !publish_queue_.empty();
            });
            if (publish_queue_.empty()) {
                return;  // stopping and drained
            }
            snapshot = std::move(publish_queue_.front());
            publish_queue_.pop_front();
        }
        Publish(std::move(snapshot));
    }
}

size_t
FleetRouter::Publish(std::shared_ptr<const ModelSnapshot> snapshot)
{
    NEO_REQUIRE(snapshot != nullptr, "cannot publish a null snapshot");
    std::vector<Replica*> replicas;
    {
        std::lock_guard<std::mutex> lock(replicas_mutex_);
        replicas.reserve(replicas_.size());
        for (auto& replica : replicas_) {
            replicas.push_back(replica.get());
        }
    }
    size_t flipped = 0;
    for (Replica* replica : replicas) {
        if (replica->server->failed()) {
            continue;
        }
        const ReplicaState state = replica->health.state();
        if (state == ReplicaState::kQuarantined ||
            state == ReplicaState::kDrained) {
            continue;
        }
        if (replica->server->CurrentVersion() >= snapshot->version) {
            flipped++;  // already there (idempotent re-publish)
            continue;
        }
        // Warm first: every rank pre-builds the version's engine state
        // on idle collective slots while live traffic keeps flowing on
        // the old version; only then flip traffic atomically.
        if (!replica->server->Prewarm(snapshot)) {
            continue;  // replica stopped/died mid-warm-up; skip it
        }
        replica->server->Publish(snapshot);
        flipped++;
    }
    obs::MetricsRegistry::Get().GetCounter("neo.fleet.publishes").Add();
    return flipped;
}

void
FleetRouter::PublishAsync(std::shared_ptr<const ModelSnapshot> snapshot)
{
    NEO_REQUIRE(snapshot != nullptr, "cannot publish a null snapshot");
    {
        std::lock_guard<std::mutex> lock(publish_mutex_);
        publish_queue_.push_back(std::move(snapshot));
    }
    publish_cv_.notify_all();
}

uint64_t
FleetRouter::NextVersion() const
{
    std::lock_guard<std::mutex> lock(replicas_mutex_);
    uint64_t version = 0;
    for (const auto& replica : replicas_) {
        version = std::max(version, replica->server->CurrentVersion());
    }
    return version + 1;
}

uint64_t
FleetRouter::PublishFromStore(const core::CheckpointStore& store,
                              const core::DlrmConfig& config,
                              const sharding::ShardingPlan& plan)
{
    const uint64_t version = NextVersion();
    Publish(SnapshotFromStore(store, config, plan, version));
    return version;
}

void
FleetRouter::Stop()
{
    stop_.store(true);
    flights_cv_.notify_all();
    publish_cv_.notify_all();
    if (pump_.joinable()) {
        pump_.join();
    }
    if (publisher_.joinable()) {
        publisher_.join();
    }
}

ReplicaState
FleetRouter::StateOf(size_t replica) const
{
    std::lock_guard<std::mutex> lock(replicas_mutex_);
    return replicas_.at(replica)->health.state();
}

double
FleetRouter::WeightOf(size_t replica) const
{
    std::lock_guard<std::mutex> lock(replicas_mutex_);
    return replicas_.at(replica)->health.Weight();
}

size_t
FleetRouter::HealthyCount() const
{
    std::lock_guard<std::mutex> lock(replicas_mutex_);
    size_t healthy = 0;
    for (const auto& replica : replicas_) {
        const ReplicaState state = replica->health.state();
        if (state == ReplicaState::kHealthy ||
            state == ReplicaState::kSuspect) {
            healthy++;
        }
    }
    return healthy;
}

FleetRouter::Totals
FleetRouter::totals() const
{
    std::lock_guard<std::mutex> lock(totals_mutex_);
    return totals_;
}

ReplicaHost::ReplicaHost(size_t num_dense, size_t num_tables,
                         int world_size,
                         const ServerOptions& server_options,
                         comm::ThreadedWorld::Options world_options)
    : detector_(std::make_unique<obs::StragglerDetector>())
{
    if (world_options.detector == nullptr) {
        world_options.detector = detector_.get();
    }
    world_ =
        std::make_unique<comm::ThreadedWorld>(world_size, world_options);
    server_ =
        std::make_unique<Server>(num_dense, num_tables, server_options);
    threads_.reserve(static_cast<size_t>(world_size));
    for (int r = 0; r < world_size; r++) {
        threads_.emplace_back([this, r] {
            try {
                server_->RankLoop(r, world_->GetGroup(r));
            } catch (const std::exception& e) {
                // RankFailure is handled inside RankLoop; anything else
                // escaping poisons the world so peers fail fast instead
                // of hanging in their next collective.
                world_->Abort(r,
                              std::string("serve rank loop: ") + e.what());
            }
        });
    }
}

ReplicaHost::~ReplicaHost()
{
    Stop();
}

void
ReplicaHost::Stop()
{
    {
        std::lock_guard<std::mutex> lock(stop_mutex_);
        if (stopped_) {
            return;
        }
        stopped_ = true;
    }
    server_->Stop();
    for (auto& thread : threads_) {
        if (thread.joinable()) {
            thread.join();
        }
    }
}

}  // namespace neo::serve
