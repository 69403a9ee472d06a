#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>

#include "common/logging.h"

namespace neo::obs {

void
Histogram::Observe(double x)
{
    std::lock_guard<std::mutex> lock(mutex_);
    stat_.Add(x);
    if (samples_.size() < window_) {
        samples_.push_back(x);
    } else {
        samples_[next_] = x;
    }
    next_ = (next_ + 1) % window_;
}

Histogram::Snapshot
Histogram::GetSnapshot() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    Snapshot snap;
    snap.count = stat_.count();
    if (snap.count == 0) {
        return snap;
    }
    snap.sum = stat_.sum();
    snap.mean = stat_.mean();
    snap.min = stat_.min();
    snap.max = stat_.max();
    snap.stddev = stat_.stddev();
    // One copy + one sort for all four percentiles; Percentile() would
    // copy and sort the window per call, which dominates export cost
    // once the sample ring is full.
    std::vector<double> sorted = samples_;
    std::sort(sorted.begin(), sorted.end());
    snap.p50 = PercentileSorted(sorted, 50.0);
    snap.p95 = PercentileSorted(sorted, 95.0);
    snap.p99 = PercentileSorted(sorted, 99.0);
    snap.p999 = PercentileSorted(sorted, 99.9);
    // Once the ring wraps, the percentiles above describe only the most
    // recent window_ observations; surface how much history they miss so
    // exports can mark them approximate instead of silently pretending
    // full coverage.
    snap.samples_dropped = snap.count - samples_.size();
    snap.approximate = snap.samples_dropped > 0;
    return snap;
}

void
Histogram::Reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    stat_ = RunningStat();
    samples_.clear();
    next_ = 0;
}

MetricsRegistry&
MetricsRegistry::Get()
{
    static MetricsRegistry registry;
    return registry;
}

Counter&
MetricsRegistry::GetCounter(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    NEO_REQUIRE(gauges_.find(name) == gauges_.end() &&
                    histograms_.find(name) == histograms_.end(),
                "metric '", name, "' already registered as another kind");
    auto it = counters_.find(name);
    if (it == counters_.end()) {
        it = counters_.emplace(name, std::make_unique<Counter>()).first;
    }
    return *it->second;
}

Gauge&
MetricsRegistry::GetGauge(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    NEO_REQUIRE(counters_.find(name) == counters_.end() &&
                    histograms_.find(name) == histograms_.end(),
                "metric '", name, "' already registered as another kind");
    auto it = gauges_.find(name);
    if (it == gauges_.end()) {
        it = gauges_.emplace(name, std::make_unique<Gauge>()).first;
    }
    return *it->second;
}

Histogram&
MetricsRegistry::GetHistogram(const std::string& name)
{
    std::lock_guard<std::mutex> lock(mutex_);
    NEO_REQUIRE(counters_.find(name) == counters_.end() &&
                    gauges_.find(name) == gauges_.end(),
                "metric '", name, "' already registered as another kind");
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
        it = histograms_.emplace(name, std::make_unique<Histogram>()).first;
    }
    return *it->second;
}

void
MetricsRegistry::Reset()
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto& [name, counter] : counters_) {
        counter->Reset();
    }
    for (auto& [name, gauge] : gauges_) {
        gauge->Reset();
    }
    for (auto& [name, histogram] : histograms_) {
        histogram->Reset();
    }
}

namespace {

std::string
JsonNumber(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof(buf), "%.9g", v);
    return buf;
}

/** (name, value) of every counter in `counters`, in the map's order. */
std::vector<std::pair<std::string, uint64_t>>
CounterValues(const std::map<std::string, std::unique_ptr<Counter>>& counters)
{
    std::vector<std::pair<std::string, uint64_t>> out;
    out.reserve(counters.size());
    for (const auto& [name, counter] : counters) {
        out.emplace_back(name, counter->value());
    }
    return out;
}

/** Mangle an instrument name into a Prometheus-legal metric name. */
std::string
PrometheusName(const std::string& name)
{
    std::string out = name;
    for (char& c : out) {
        const bool legal = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                           (c >= '0' && c <= '9') || c == '_' || c == ':';
        if (!legal) {
            c = '_';
        }
    }
    return out;
}

}  // namespace

uint64_t
RegistrySnapshot::CounterValue(const std::string& name) const
{
    for (const auto& [n, v] : counters) {
        if (n == name) {
            return v;
        }
    }
    return 0;
}

double
RegistrySnapshot::GaugeValue(const std::string& name) const
{
    for (const auto& [n, v] : gauges) {
        if (n == name) {
            return v;
        }
    }
    return 0.0;
}

RegistrySnapshot
MetricsRegistry::Export() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    RegistrySnapshot snap;
    snap.counters = CounterValues(counters_);
    snap.gauges.reserve(gauges_.size());
    for (const auto& [name, gauge] : gauges_) {
        snap.gauges.emplace_back(name, gauge->value());
    }
    snap.histograms.reserve(histograms_.size());
    for (const auto& [name, histogram] : histograms_) {
        snap.histograms.emplace_back(name, histogram->GetSnapshot());
    }
    return snap;
}

std::vector<std::pair<std::string, uint64_t>>
MetricsRegistry::ExportCounters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return CounterValues(counters_);
}

std::string
MetricsRegistry::RenderJson(const RegistrySnapshot& snap)
{
    std::string out = "{\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : snap.counters) {
        out += first ? "" : ",";
        first = false;
        out += "\"" + name + "\":" + std::to_string(value);
    }
    out += "},\"gauges\":{";
    first = true;
    for (const auto& [name, value] : snap.gauges) {
        out += first ? "" : ",";
        first = false;
        out += "\"" + name + "\":" + JsonNumber(value);
    }
    out += "},\"histograms\":{";
    first = true;
    for (const auto& [name, s] : snap.histograms) {
        out += first ? "" : ",";
        first = false;
        out += "\"" + name + "\":{\"count\":" + std::to_string(s.count) +
               ",\"sum\":" + JsonNumber(s.sum) +
               ",\"mean\":" + JsonNumber(s.mean) +
               ",\"min\":" + JsonNumber(s.min) +
               ",\"max\":" + JsonNumber(s.max) +
               ",\"stddev\":" + JsonNumber(s.stddev) +
               ",\"p50\":" + JsonNumber(s.p50) +
               ",\"p95\":" + JsonNumber(s.p95) +
               ",\"p99\":" + JsonNumber(s.p99) +
               ",\"p999\":" + JsonNumber(s.p999) +
               ",\"samples_dropped\":" + std::to_string(s.samples_dropped) +
               ",\"approximate\":" + (s.approximate ? "true" : "false") +
               "}";
    }
    out += "}}";
    return out;
}

std::string
MetricsRegistry::RenderCsv(const RegistrySnapshot& snap)
{
    std::string out = "name,kind,count,value,min,max,p50,p95,p99,p999\n";
    for (const auto& [name, value] : snap.counters) {
        out += name + ",counter,," + std::to_string(value) + ",,,,,,\n";
    }
    for (const auto& [name, value] : snap.gauges) {
        out += name + ",gauge,," + JsonNumber(value) + ",,,,,,\n";
    }
    for (const auto& [name, s] : snap.histograms) {
        out += name + ",histogram," + std::to_string(s.count) + "," +
               JsonNumber(s.mean) + "," + JsonNumber(s.min) + "," +
               JsonNumber(s.max) + "," + JsonNumber(s.p50) + "," +
               JsonNumber(s.p95) + "," + JsonNumber(s.p99) + "," +
               JsonNumber(s.p999) + "\n";
    }
    return out;
}

std::string
MetricsRegistry::RenderPrometheus(const RegistrySnapshot& snap)
{
    std::string out;
    for (const auto& [name, value] : snap.counters) {
        const std::string prom = PrometheusName(name);
        out += "# TYPE " + prom + " counter\n";
        out += prom + " " + std::to_string(value) + "\n";
    }
    for (const auto& [name, value] : snap.gauges) {
        const std::string prom = PrometheusName(name);
        out += "# TYPE " + prom + " gauge\n";
        out += prom + " " + JsonNumber(value) + "\n";
    }
    for (const auto& [name, s] : snap.histograms) {
        const std::string prom = PrometheusName(name);
        out += "# TYPE " + prom + " summary\n";
        out += prom + "{quantile=\"0.5\"} " + JsonNumber(s.p50) + "\n";
        out += prom + "{quantile=\"0.95\"} " + JsonNumber(s.p95) + "\n";
        out += prom + "{quantile=\"0.99\"} " + JsonNumber(s.p99) + "\n";
        out += prom + "{quantile=\"0.999\"} " + JsonNumber(s.p999) + "\n";
        out += prom + "_sum " + JsonNumber(s.sum) + "\n";
        out += prom + "_count " + std::to_string(s.count) + "\n";
        if (s.approximate) {
            out += "# TYPE " + prom + "_samples_dropped gauge\n";
            out += prom + "_samples_dropped " +
                   std::to_string(s.samples_dropped) + "\n";
        }
    }
    return out;
}

std::string
MetricsRegistry::ToJson() const
{
    return RenderJson(Export());
}

std::string
MetricsRegistry::ToCsv() const
{
    return RenderCsv(Export());
}

std::string
MetricsRegistry::ToPrometheus() const
{
    return RenderPrometheus(Export());
}

}  // namespace neo::obs
