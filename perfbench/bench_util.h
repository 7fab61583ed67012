#ifndef ITAG_PERFBENCH_BENCH_UTIL_H_
#define ITAG_PERFBENCH_BENCH_UTIL_H_

// Small helpers shared by the benchmark program: clocks, latency samples and
// percentiles, metrics-registry deltas, and a minimal JSON writer.

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace itag::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double UsBetween(int64_t from_ns, int64_t to_ns) {
  return static_cast<double>(to_ns - from_ns) / 1e3;
}

/// Latency stand-in for a request that failed or was refused: it misses any
/// latency limit a reader could set, so it lands above every real sample.
inline constexpr double kMissedUs = 1e9;

/// Nearest-rank q-quantile of an unsorted sample (0 when empty).
inline double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  if (rank == 0) rank = 1;
  return v[std::min(rank, v.size()) - 1];
}

/// The highest of 0.999 / 0.99 / 0.95 / 0.9 / 0.5 that still leaves at least
/// ten samples above it; the tail percentile a sample of size n supports.
inline double TailQuantileFor(size_t n) {
  for (double q : {0.999, 0.99, 0.95, 0.9}) {
    if (static_cast<double>(n) * (1.0 - q) >= 10.0) return q;
  }
  return 0.5;
}

inline double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

/// Thread-safe append-only sample of latencies in microseconds, each
/// stamped with when it was recorded.
class Samples {
 public:
  void Add(double us) {
    const int64_t now = NowNs();
    std::lock_guard<std::mutex> lock(mu_);
    values_.push_back({now, us});
  }
  std::vector<double> Values() const {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<double> out;
    out.reserve(values_.size());
    for (const auto& v : values_) out.push_back(v.second);
    return out;
  }
  size_t size() const {
    std::lock_guard<std::mutex> lock(mu_);
    return values_.size();
  }

  /// The tail a reader can trust on a shared host: the samples are cut, in
  /// time order, into consecutive windows of at least 1000, and the result
  /// is the median over windows of each window's p99. One stalled window
  /// then moves the figure no more than one window's worth. Below 1000
  /// samples it is the highest quantile with ten samples above it
  /// (TailQuantileFor).
  double WindowedTail() const {
    std::vector<std::pair<int64_t, double>> v;
    {
      std::lock_guard<std::mutex> lock(mu_);
      v = values_;
    }
    std::sort(v.begin(), v.end());
    const size_t windows = Windows(v.size());
    const double q = TailQuantileFor(v.size() / windows);
    std::vector<double> tails;
    for (size_t w = 0; w < windows; ++w) {
      std::vector<double> chunk;
      const size_t lo = v.size() * w / windows;
      const size_t hi = v.size() * (w + 1) / windows;
      for (size_t i = lo; i < hi; ++i) chunk.push_back(v[i].second);
      tails.push_back(Quantile(std::move(chunk), q));
    }
    return Median(std::move(tails));
  }

  /// The quantile WindowedTail reports.
  double TailQuantile() const {
    const size_t n = size();
    return TailQuantileFor(n / Windows(n));
  }

 private:
  static size_t Windows(size_t n) { return std::max<size_t>(1, n / 1000); }

  mutable std::mutex mu_;
  std::vector<std::pair<int64_t, double>> values_;
};

// ------------------------------------------------------ metrics registry

using MetricSnap = std::map<std::string, obs::MetricSample>;

inline MetricSnap TakeMetricSnap() {
  MetricSnap out;
  for (obs::MetricSample& s : obs::MetricsRegistry::Default().Snapshot()) {
    std::string name = s.name;
    out.emplace(std::move(name), std::move(s));
  }
  return out;
}

/// Counter (or histogram count) growth between two snapshots.
inline uint64_t CounterDelta(const MetricSnap& before, const MetricSnap& after,
                             const std::string& name) {
  auto a = after.find(name);
  if (a == after.end()) return 0;
  auto b = before.find(name);
  uint64_t base = b == before.end() ? 0 : b->second.count;
  return a->second.count >= base ? a->second.count - base : 0;
}

/// Histogram observations made between two snapshots, as one sample that
/// obs::ApproxQuantile can read.
inline obs::MetricSample HistogramDelta(const MetricSnap& before,
                                        const MetricSnap& after,
                                        const std::string& name) {
  obs::MetricSample out;
  out.name = name;
  out.kind = obs::MetricKind::kHistogram;
  out.buckets.assign(obs::kHistogramBuckets, 0);
  auto a = after.find(name);
  if (a == after.end()) return out;
  auto b = before.find(name);
  const obs::MetricSample* base = b == before.end() ? nullptr : &b->second;
  out.count = a->second.count - (base ? base->count : 0);
  out.sum = a->second.sum - (base ? base->sum : 0);
  for (size_t i = 0; i < out.buckets.size() && i < a->second.buckets.size();
       ++i) {
    uint64_t prev =
        base != nullptr && i < base->buckets.size() ? base->buckets[i] : 0;
    out.buckets[i] = a->second.buckets[i] - prev;
  }
  return out;
}

inline double HistogramMean(const obs::MetricSample& h) {
  return h.count == 0 ? 0.0
                      : static_cast<double>(h.sum) / static_cast<double>(h.count);
}

// ------------------------------------------------------------------ JSON

/// A number with every digit it was measured with; non-finite values
/// (which JSON cannot carry) print as 0.
inline std::string JsonNum(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

inline std::string JsonStr(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// One reported metric: value plus unit.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

inline std::string MetricsJson(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i != 0) out += ", ";
    out += JsonStr(metrics[i].name) + ": {\"value\": " +
           JsonNum(metrics[i].value) + ", \"unit\": " +
           JsonStr(metrics[i].unit) + "}";
  }
  return out + "}";
}

}  // namespace itag::perfbench

#endif  // ITAG_PERFBENCH_BENCH_UTIL_H_
