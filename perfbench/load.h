#ifndef ITAG_PERFBENCH_LOAD_H_
#define ITAG_PERFBENCH_LOAD_H_

// The load generators: the open loop (requests sent when due over two
// pipelined AsyncConns), the closed loop (two net::Clients, each sending its
// next request when the previous one completes), and the crowd loop (one
// sequential client around Step).

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/requests.h"
#include "bench_util.h"
#include "workload.h"

namespace itag::perfbench {

/// One client-side span: a request (name = endpoint) or a whole tag cycle
/// (name = "cycle"), with the cycle it belongs to as parent.
struct ClientSpan {
  const char* name = "";
  uint64_t id = 0;
  uint64_t parent = 0;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
};

/// In-memory span log, written out when the run ends. Disabled (no-op)
/// in untraced runs.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  void Add(const ClientSpan& span) {
    if (!enabled_) return;
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(span);
  }
  std::vector<ClientSpan> spans() const {
    std::lock_guard<std::mutex> lock(mu_);
    return spans_;
  }

 private:
  const bool enabled_;
  std::atomic<uint64_t> next_id_{1};
  mutable std::mutex mu_;
  std::vector<ClientSpan> spans_;
};

/// Client-side tallies of one pass.
struct LoadStats {
  explicit LoadStats(size_t projects, bool traced)
      : approved_by_project(projects), topup_inflight(projects), spans(traced) {}

  Samples query_us;       ///< ProjectQuery latency (from due in open loops)
  Samples cycle_us;       ///< tag cycle latency, due -> decide reply
  Samples checkpoint_us;  ///< Checkpoint round trips
  Samples late_us;        ///< open-loop send time minus due time

  /// Requests put on the wire, by api request-type index.
  std::atomic<uint64_t> sent[api::kRequestTypeCount] = {};
  std::atomic<uint64_t> failed{0};  ///< requests failed or refused
  std::atomic<uint64_t> accepts{0};
  std::atomic<uint64_t> starved{0};  ///< accepts with fewer tasks than asked
  std::atomic<uint64_t> tasks_accepted{0};
  std::atomic<uint64_t> tasks_submitted{0};
  std::atomic<uint64_t> approved{0};  ///< approvals acknowledged to clients
  std::vector<std::atomic<uint64_t>> approved_by_project;
  std::vector<std::atomic<uint8_t>> topup_inflight;
  /// Set on a transport failure: the run cannot be trusted.
  std::atomic<bool> broken{false};
  std::mutex error_mu;
  std::string error;
  SpanLog spans;

  uint64_t attempted() const {
    uint64_t n = 0;
    for (const auto& s : sent) n += s.load();
    return n;
  }
  void Fail(const std::string& why);
};

/// What the closed loop measured: medians over equal sub-windows.
struct ClosedResult {
  double ops_per_s = 0.0;
  double approved_per_s = 0.0;
};

/// Shared inputs of every generator.
struct LoadContext {
  const Shape* shape = nullptr;
  const Inputs* inputs = nullptr;
  System* system = nullptr;
  uint64_t seed = 0;
  LoadStats* stats = nullptr;
};

/// Runs the seeded open-loop schedule for `seconds`, then waits for every
/// outstanding reply. `seconds` and the seed fully determine the schedule.
void RunOpenLoop(const LoadContext& ctx, double seconds);

/// Two closed-loop clients with the workload's mix for `seconds`.
ClosedResult RunClosedLoop(const LoadContext& ctx, double seconds);

/// The deterministic part of the crowd loop, captured after the fixed
/// tick count: identical for every run with the same seed.
struct Episode {
  double quality_gain = 0.0;   ///< mean per-project Δ corpus quality
  double posts_per_tick = 0.0; ///< platform approvals per simulated tick
  double approval_frac = 0.0;  ///< policy approvals / policy decisions
  std::vector<uint32_t> tasks_completed;
  std::string Fingerprint() const;
};

/// Sends one request, returning the reply (wire or in process).
using Caller = std::function<Result<api::AnyResponse>(const api::AnyRequest&)>;

/// The crowd loop: repeats Step(block_ticks), a ProjectQuery of every
/// project and a few sequential audience tag cycles. The episode is always
/// completed; afterwards blocks continue until `deadline_ns` (0 = stop at
/// the episode). Returns the episode; `*approved_per_s` and `*ops_per_s`
/// cover every block run.
Episode RunCrowdLoop(const LoadContext& ctx, const Caller& call,
                     int64_t deadline_ns, double* approved_per_s,
                     double* ops_per_s);

}  // namespace itag::perfbench

#endif  // ITAG_PERFBENCH_LOAD_H_
