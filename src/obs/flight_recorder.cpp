#include "obs/flight_recorder.h"

#include <cstdio>
#include <cstdlib>

#include "obs/trace.h"

namespace neo::obs {

namespace {

/** Minimal JSON string escaper (quotes, backslashes, control chars). */
std::string
JsonEscape(const std::string& s)
{
    std::string out;
    out.reserve(s.size() + 2);
    for (char c : s) {
        switch (c) {
        case '"':
            out += "\\\"";
            break;
        case '\\':
            out += "\\\\";
            break;
        case '\n':
            out += "\\n";
            break;
        case '\r':
            out += "\\r";
            break;
        case '\t':
            out += "\\t";
            break;
        default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

std::string
JsonDouble(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

}  // namespace

FlightRecorder&
FlightRecorder::Get()
{
    static FlightRecorder recorder;
    return recorder;
}

FlightRecorder::FlightRecorder()
{
    const char* env = std::getenv("NEO_FLIGHT_RECORDER");
    if (env != nullptr && std::atoi(env) == 0) {
        enabled_.store(false, std::memory_order_relaxed);
    }
}

void
FlightRecorder::SetEnabled(bool on)
{
    enabled_.store(on, std::memory_order_relaxed);
}

bool
FlightRecorder::enabled() const
{
    return enabled_.load(std::memory_order_relaxed);
}

void
FlightRecorder::SetDirectory(const std::string& dir)
{
    std::lock_guard<std::mutex> lock(mutex_);
    directory_ = dir;
}

std::string
FlightRecorder::directory() const
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        if (!directory_.empty()) {
            return directory_;
        }
    }
    const char* env = std::getenv("NEO_TELEMETRY_DIR");
    return env != nullptr ? std::string(env) : std::string();
}

void
FlightRecorder::Configure(const RecorderOptions& options)
{
    std::lock_guard<std::mutex> lock(mutex_);
    options_ = options;
    ranks_.clear();
}

FlightRecorder::RankState&
FlightRecorder::StateFor(int rank)
{
    return ranks_[rank];  // caller holds mutex_
}

void
FlightRecorder::RecordOp(int rank, const char* op_name, int64_t t_ns)
{
    if (!enabled()) {
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    StateFor(rank).ops.Push(OpEntry{op_name, t_ns}, options_.op_ring);
}

void
FlightRecorder::RecordEvent(int rank, const char* kind,
                            const std::string& detail)
{
    if (!enabled()) {
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    StateFor(rank).events.Push(EventEntry{NowNs(), kind, detail},
                               options_.event_ring);
}

void
FlightRecorder::RecordStep(int rank, uint64_t step, double seconds,
                           double loss)
{
    if (!enabled()) {
        return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    StateFor(rank).steps.Push(StepEntry{step, seconds, loss},
                              options_.step_ring);
}

void
FlightRecorder::RecordMetricsDelta(int rank)
{
    if (!enabled()) {
        return;
    }
    // Read the counters before this recorder's lock: the registry never
    // calls back into the recorder, but keeping the two locks un-nested
    // makes the no-deadlock argument trivial.
    std::vector<std::pair<std::string, uint64_t>> counters =
        MetricsRegistry::Get().ExportCounters();
    const int64_t now = NowNs();

    std::lock_guard<std::mutex> lock(mutex_);
    RankState& state = StateFor(rank);
    DeltaEntry entry;
    entry.t_ns = now;
    // Both lists are sorted by name, so one merge pass pairs every
    // counter with its previous value (0 for a counter new since then).
    auto base = state.counter_baseline.cbegin();
    const auto base_end = state.counter_baseline.cend();
    for (const auto& [name, value] : counters) {
        while (base != base_end && base->first < name) {
            ++base;
        }
        const uint64_t prev =
            base != base_end && base->first == name ? base->second : 0;
        // A counter below its baseline means Reset() ran in between;
        // treat the current value as the delta from zero.
        const uint64_t delta = value >= prev ? value - prev : value;
        if (delta != 0) {
            entry.deltas.emplace_back(name, delta);
        }
    }
    state.counter_baseline = std::move(counters);
    state.deltas.Push(std::move(entry), options_.delta_ring);
}

std::vector<FlightRecorder::OpEntry>
FlightRecorder::RecentOps(int rank) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = ranks_.find(rank);
    return it == ranks_.end() ? std::vector<OpEntry>{} : it->second.ops.Ordered();
}

std::vector<FlightRecorder::StepEntry>
FlightRecorder::RecentSteps(int rank) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = ranks_.find(rank);
    return it == ranks_.end() ? std::vector<StepEntry>{}
                              : it->second.steps.Ordered();
}

std::vector<FlightRecorder::EventEntry>
FlightRecorder::RecentEvents(int rank) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = ranks_.find(rank);
    return it == ranks_.end() ? std::vector<EventEntry>{}
                              : it->second.events.Ordered();
}

std::string
FlightRecorder::BundleJson(int rank, const std::string& cause) const
{
    // Metrics snapshot first, same un-nested lock discipline as
    // RecordMetricsDelta.
    const std::string metrics_json = MetricsRegistry::Get().ToJson();

    std::vector<OpEntry> ops;
    std::vector<StepEntry> steps;
    std::vector<EventEntry> events;
    std::vector<DeltaEntry> deltas;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = ranks_.find(rank);
        if (it != ranks_.end()) {
            ops = it->second.ops.Ordered();
            steps = it->second.steps.Ordered();
            events = it->second.events.Ordered();
            deltas = it->second.deltas.Ordered();
        }
    }

    std::string out = "{\"neo_flight_recorder\":1";
    out += ",\"rank\":" + std::to_string(rank);
    out += ",\"cause\":\"" + JsonEscape(cause) + "\"";
    out += ",\"dumped_at_ns\":" + std::to_string(NowNs());
    out += ",\"last_op\":\"";
    if (!ops.empty() && ops.back().name != nullptr) {
        out += JsonEscape(ops.back().name);
    }
    out += "\"";

    out += ",\"ops\":[";
    for (size_t i = 0; i < ops.size(); i++) {
        out += i == 0 ? "" : ",";
        out += "{\"name\":\"";
        out += ops[i].name != nullptr ? JsonEscape(ops[i].name) : "";
        out += "\",\"t_ns\":" + std::to_string(ops[i].t_ns) + "}";
    }
    out += "]";

    out += ",\"steps\":[";
    for (size_t i = 0; i < steps.size(); i++) {
        out += i == 0 ? "" : ",";
        out += "{\"step\":" + std::to_string(steps[i].step) +
               ",\"seconds\":" + JsonDouble(steps[i].seconds) +
               ",\"loss\":" + JsonDouble(steps[i].loss) + "}";
    }
    out += "]";

    out += ",\"events\":[";
    for (size_t i = 0; i < events.size(); i++) {
        out += i == 0 ? "" : ",";
        out += "{\"t_ns\":" + std::to_string(events[i].t_ns) +
               ",\"kind\":\"";
        out += events[i].kind != nullptr ? JsonEscape(events[i].kind) : "";
        out += "\",\"detail\":\"" + JsonEscape(events[i].detail) + "\"}";
    }
    out += "]";

    out += ",\"metric_deltas\":[";
    for (size_t i = 0; i < deltas.size(); i++) {
        out += i == 0 ? "" : ",";
        out += "{\"t_ns\":" + std::to_string(deltas[i].t_ns) +
               ",\"counters\":{";
        for (size_t j = 0; j < deltas[i].deltas.size(); j++) {
            out += j == 0 ? "" : ",";
            out += "\"";
            out += JsonEscape(deltas[i].deltas[j].first);
            out += "\":";
            out += std::to_string(deltas[i].deltas[j].second);
        }
        out += "}}";
    }
    out += "]";

    out += ",\"metrics\":" + metrics_json;
    out += "}";
    return out;
}

std::string
FlightRecorder::DumpBundle(int rank, const std::string& cause) const
{
    if (!enabled()) {
        return "";
    }
    const std::string dir = directory();
    if (dir.empty()) {
        return "";
    }
    const std::string path =
        dir + "/flight_rank" + std::to_string(rank) + ".json";
    const std::string json = BundleJson(rank, cause);
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        return "";
    }
    const size_t wrote = std::fwrite(json.data(), 1, json.size(), f);
    std::fclose(f);
    return wrote == json.size() ? path : "";
}

void
FlightRecorder::Clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    ranks_.clear();
}

}  // namespace neo::obs
