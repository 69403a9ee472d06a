/**
 * @file
 * Always-on per-rank flight recorder: bounded rings of recent collective
 * ops, step records, lifecycle/failure events, and per-step metric
 * deltas, dumped as a versioned JSON post-mortem bundle from the failure
 * paths (poisoned barrier / RankFailure / barrier timeout /
 * ShrinkAfterFailure / serve-side shed storms). The rings record
 * unconditionally — a handful of mutex-protected slot writes per step,
 * modeled at under 1% of a training step by a test in
 * tests/test_telemetry.cpp — so a crash always leaves a diagnosable
 * artifact, with or without tracing enabled; bundle *dumping* needs a
 * directory (NEO_TELEMETRY_DIR or SetDirectory), so production runs opt
 * in to artifacts while unit tests stay file-free by default.
 *
 * Bundle format (one JSON object, versioned header):
 *   {"neo_flight_recorder": 1, "rank": R, "cause": "...",
 *    "dumped_at_ns": T, "last_op": "...",
 *    "ops":    [{"name","t_ns"}...],            // oldest -> newest
 *    "steps":  [{"step","seconds","loss"}...],
 *    "events": [{"t_ns","kind","detail"}...],
 *    "metric_deltas": [{"t_ns","counters":{name:delta}}...],
 *    "metrics": <full MetricsRegistry JSON>}
 * scripts/trace_to_perfetto.py --bundle validates this schema in CI.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace neo::obs {

/** Ring capacities; Configure() resets all rings. */
struct RecorderOptions {
    /** Recent collective-op entries kept per rank. */
    size_t op_ring = 256;
    /** Last-N step records kept per rank. */
    size_t step_ring = 64;
    /** Lifecycle/failure events kept per rank. */
    size_t event_ring = 64;
    /** Per-step counter-delta snapshots kept per rank. */
    size_t delta_ring = 32;
};

/** Process-wide flight recorder singleton. */
class FlightRecorder
{
  public:
    static FlightRecorder& Get();

    /** Runtime kill switch (NEO_FLIGHT_RECORDER=0 disables at startup). */
    void SetEnabled(bool on);
    bool enabled() const;

    /**
     * Where DumpBundle writes. Overrides the NEO_TELEMETRY_DIR
     * environment variable; empty string reverts to the env value.
     * Dumping is a no-op while neither names a directory.
     */
    void SetDirectory(const std::string& dir);
    std::string directory() const;

    /** Replace ring capacities and clear all recorded state. */
    void Configure(const RecorderOptions& options);

    /** One collective entry. `op_name` must be a string literal (the
     *  ring stores the pointer); called by the comm backend at the top
     *  of every collective, before fault injection can fire — so a
     *  killed rank's last ring entry names the kill site. */
    void RecordOp(int rank, const char* op_name, int64_t t_ns);

    /** One lifecycle/failure event (abort, recover, shrink, shed...). */
    void RecordEvent(int rank, const char* kind, const std::string& detail);

    /** One completed training/serving step on `rank`. */
    void RecordStep(int rank, uint64_t step, double seconds, double loss);

    /**
     * Capture the registry's counters and append the non-zero deltas
     * against this rank's previous capture: one counters-only read of
     * the registry and one linear merge with the previous capture.
     */
    void RecordMetricsDelta(int rank);

    // ---- introspection (tests) ----

    struct OpEntry {
        const char* name = nullptr;
        int64_t t_ns = 0;
    };
    struct StepEntry {
        uint64_t step = 0;
        double seconds = 0.0;
        double loss = 0.0;
    };
    struct EventEntry {
        int64_t t_ns = 0;
        const char* kind = nullptr;
        std::string detail;
    };

    /** Recorded ops for `rank`, oldest first (empty if none). */
    std::vector<OpEntry> RecentOps(int rank) const;
    /** Recorded steps for `rank`, oldest first. */
    std::vector<StepEntry> RecentSteps(int rank) const;
    /** Recorded events for `rank`, oldest first. */
    std::vector<EventEntry> RecentEvents(int rank) const;

    /** Render `rank`'s bundle (see file header for the schema). */
    std::string BundleJson(int rank, const std::string& cause) const;

    /**
     * Write BundleJson to `<directory>/flight_rank<R>.json`. Returns the
     * written path, or "" when disabled, no directory is configured, or
     * the write failed. Never throws: this runs on failure paths.
     */
    std::string DumpBundle(int rank, const std::string& cause) const;

    /** Drop all recorded state (rings and delta baselines). */
    void Clear();

  private:
    FlightRecorder();

    template <typename T>
    struct Ring {
        std::vector<T> slots;
        size_t next = 0;
        uint64_t total = 0;

        void
        Push(T value, size_t capacity)
        {
            if (capacity == 0) {
                return;
            }
            if (slots.size() < capacity) {
                slots.push_back(std::move(value));
            } else {
                slots[next] = std::move(value);
            }
            next = (next + 1) % capacity;
            total++;
        }

        /** Oldest-first copy. */
        std::vector<T>
        Ordered() const
        {
            if (slots.size() < total) {
                std::vector<T> out(slots.begin() +
                                       static_cast<ptrdiff_t>(next),
                                   slots.end());
                out.insert(out.end(), slots.begin(),
                           slots.begin() + static_cast<ptrdiff_t>(next));
                return out;
            }
            return slots;
        }
    };

    struct DeltaEntry {
        int64_t t_ns = 0;
        std::vector<std::pair<std::string, uint64_t>> deltas;
    };

    struct RankState {
        Ring<OpEntry> ops;
        Ring<StepEntry> steps;
        Ring<EventEntry> events;
        Ring<DeltaEntry> deltas;
        /** Previous counter capture for RecordMetricsDelta. */
        std::vector<std::pair<std::string, uint64_t>> counter_baseline;
    };

    RankState& StateFor(int rank);

    std::atomic<bool> enabled_{true};
    mutable std::mutex mutex_;
    RecorderOptions options_;
    std::string directory_;
    std::map<int, RankState> ranks_;
};

}  // namespace neo::obs
