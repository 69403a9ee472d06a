/**
 * @file
 * Process-wide metrics registry: named counters, gauges, and histograms
 * with JSON/CSV export. Instruments follow the `neo.<layer>.<name>`
 * naming convention (e.g. neo.core.step_seconds, neo.comm.aborts) so
 * exports group naturally by subsystem.
 *
 * Instruments are created on first lookup and live for the process
 * lifetime; Reset() zeroes values but never invalidates references, so
 * call sites may cache `Counter&` in a local static. Counters and gauges
 * are lock-free atomics; histograms take a short per-instrument mutex
 * (they fold into a RunningStat and keep a bounded ring of recent
 * samples for percentile export).
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/stats.h"

namespace neo::obs {

/** Monotonic event/byte counter. */
class Counter
{
  public:
    void
    Add(uint64_t delta = 1)
    {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }

    uint64_t value() const { return value_.load(std::memory_order_relaxed); }

    void Reset() { value_.store(0, std::memory_order_relaxed); }

  private:
    std::atomic<uint64_t> value_{0};
};

/** Last-write-wins instantaneous value. */
class Gauge
{
  public:
    void Set(double v) { value_.store(v, std::memory_order_relaxed); }

    double value() const { return value_.load(std::memory_order_relaxed); }

    void Reset() { value_.store(0.0, std::memory_order_relaxed); }

  private:
    std::atomic<double> value_{0.0};
};

/**
 * Distribution of observations: Welford running stats plus a bounded
 * ring buffer of the most recent samples for percentile estimates.
 */
class Histogram
{
  public:
    /** Moments + percentiles over the retained sample window. */
    struct Snapshot {
        uint64_t count = 0;
        double sum = 0.0;
        double mean = 0.0;
        double min = 0.0;
        double max = 0.0;
        double stddev = 0.0;
        double p50 = 0.0;
        double p95 = 0.0;
        double p99 = 0.0;
        /** Tail percentile for serve-side latency SLOs. */
        double p999 = 0.0;
        /**
         * Observations no longer in the percentile window: once the
         * sample ring wraps, p50/p95/p99/p999 describe only the most
         * recent `window` observations. Non-zero means the percentiles
         * are approximate (see `approximate`); count/sum/mean/min/max
         * stay exact (they fold into the running stat).
         */
        uint64_t samples_dropped = 0;
        /** True when the ring wrapped and percentiles are windowed. */
        bool approximate = false;
    };

    explicit Histogram(size_t window = 1 << 14) : window_(window) {}

    void Observe(double x);

    Snapshot GetSnapshot() const;

    void Reset();

  private:
    mutable std::mutex mutex_;
    RunningStat stat_;
    /** Ring of the last `window_` observations. */
    std::vector<double> samples_;
    size_t next_ = 0;
    size_t window_;
};

/**
 * Point-in-time copy of every instrument in a registry, taken in one
 * pass under the registry lock so exporters see a mutually consistent
 * set of values (a concurrent Reset() lands entirely before or entirely
 * after the snapshot, never interleaved). Instruments are sorted by name.
 */
struct RegistrySnapshot {
    std::vector<std::pair<std::string, uint64_t>> counters;
    std::vector<std::pair<std::string, double>> gauges;
    std::vector<std::pair<std::string, Histogram::Snapshot>> histograms;

    /** Value of a counter by exact name (0 when absent). */
    uint64_t CounterValue(const std::string& name) const;
    /** Value of a gauge by exact name (0.0 when absent). */
    double GaugeValue(const std::string& name) const;
};

/**
 * Registry of named instruments. A name resolves to the same instrument
 * for the process lifetime; looking the same name up as two different
 * kinds is a fatal misuse.
 */
class MetricsRegistry
{
  public:
    /** Process-wide shared registry. */
    static MetricsRegistry& Get();

    MetricsRegistry() = default;
    MetricsRegistry(const MetricsRegistry&) = delete;
    MetricsRegistry& operator=(const MetricsRegistry&) = delete;

    Counter& GetCounter(const std::string& name);
    Gauge& GetGauge(const std::string& name);
    Histogram& GetHistogram(const std::string& name);

    /**
     * Zero every instrument's value. References stay valid (instruments
     * are never destroyed), so per-step snapshot loops can Reset between
     * steps without re-resolving names.
     */
    void Reset();

    /**
     * Copy every instrument's current value in one registry-level pass.
     * All exporters (JSON, CSV, Prometheus) render from this snapshot,
     * so a concurrent Reset() can never interleave with an export:
     * string formatting happens outside the lock on an immutable copy.
     */
    RegistrySnapshot Export() const;

    /**
     * Export()'s counters alone, sorted by name. Its cost does not grow
     * with how many samples the histograms hold: no sample window is
     * copied or sorted.
     */
    std::vector<std::pair<std::string, uint64_t>> ExportCounters() const;

    /**
     * One JSON object:
     * {"counters":{name:value},"gauges":{...},
     *  "histograms":{name:{count,mean,min,max,stddev,p50,p95,p99,p999,
     *                      samples_dropped,approximate,sum}}}
     */
    std::string ToJson() const;

    /** Flat CSV: name,kind,count,value,min,max,p50,p95,p99,p999 lines. */
    std::string ToCsv() const;

    /**
     * Prometheus text exposition format 0.0.4: counters and gauges as-is,
     * histograms rendered as summaries (quantile 0.5/0.95/0.99/0.999 +
     * _sum/_count), instrument dots mangled to underscores. Percentiles
     * over a wrapped ring additionally export a
     * <name>_samples_dropped gauge so scrapers can see approximation.
     */
    std::string ToPrometheus() const;

    /** Render an already-taken snapshot (see Export) as ToJson would. */
    static std::string RenderJson(const RegistrySnapshot& snap);
    /** Render an already-taken snapshot as ToCsv would. */
    static std::string RenderCsv(const RegistrySnapshot& snap);
    /** Render an already-taken snapshot as ToPrometheus would. */
    static std::string RenderPrometheus(const RegistrySnapshot& snap);

  private:
    mutable std::mutex mutex_;
    std::map<std::string, std::unique_ptr<Counter>> counters_;
    std::map<std::string, std::unique_ptr<Gauge>> gauges_;
    std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace neo::obs
