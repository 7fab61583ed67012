#ifndef ITAG_PERFBENCH_WORKLOAD_H_
#define ITAG_PERFBENCH_WORKLOAD_H_

// Workload shapes, seeded input generation, and the system under test: an
// in-process api::Service over a core::ShardedSystem behind a net::Server on
// loopback, sized identically for every workload.

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "api/service.h"
#include "common/result.h"
#include "itag/project.h"
#include "itag/sharded_system.h"
#include "net/server.h"

namespace itag::perfbench {

/// Server sizing, identical across workloads (see BENCHMARK.json): fits a
/// 4-core host next to a load generator of at most 4 threads.
struct Sizing {
  size_t reactors = 1;
  size_t workers = 2;
  size_t shards = 4;
  size_t pool_threads = 2;
};
inline constexpr Sizing kSizing{};

/// Mean provider-era posts per resource; the sim generator spreads them
/// Zipf-skewed, so posts per resource are heavy-tailed.
inline constexpr uint32_t kPostsPerResource = 4;
/// Tasks one tag cycle accepts.
inline constexpr size_t kAcceptCount = 4;
/// Share of audience submissions the provider approves.
inline constexpr double kApproveShare = 0.9;
/// Share of --seconds spent in the open loop; the rest is closed loop.
inline constexpr double kOpenShare = 0.6;

/// Everything that differs between workloads.
struct Shape {
  std::string name;
  size_t projects = 16;
  uint32_t resources = 200;
  /// Initial remaining budget per project: log-spaced over [lo, hi].
  uint32_t budget_lo = 1000;
  uint32_t budget_hi = 20000;
  /// Systems built per run; setup_s is the median of their build times.
  int setups = 5;
  /// Durable paged storage with a one-frame page cache per shard
  /// (otherwise in memory).
  bool durable = false;
  /// Open loop: operations per second (0 = the workload has no open loop).
  double open_rate = 0.0;
  /// Share of open- and closed-loop operations that are tag cycles; the
  /// rest are provider ProjectQuery reads.
  double cycle_share = 0.0;
  /// Zipf skew of project popularity (0 = uniform).
  double project_zipf = 0.0;
  /// Periodic Checkpoint interval (0 = none).
  int checkpoint_every_ms = 0;
  /// Provider top-ups: a peek showing fewer than `topup_below` remaining
  /// tasks triggers BatchControl kAddBudget of `topup_tasks`.
  uint32_t topup_below = 0;
  uint32_t topup_tasks = 0;
  // Crowd workload: one client repeats Step(block_ticks), a read of every
  // project, and `cycles_per_block` audience tag cycles.
  size_t social_projects = 0;  ///< the rest of `projects` run on MTurk
  int64_t block_ticks = 0;
  size_t episode_blocks = 0;   ///< the fixed tick count is this × block_ticks
  size_t cycles_per_block = 0;
};

/// Returns false for an unknown workload name.
bool ShapeFor(const std::string& workload, bool tiny, Shape* out);

/// Seeded inputs of one project.
struct ProjectInput {
  uint32_t budget = 0;
  core::PlatformChoice platform = core::PlatformChoice::kAudience;
  /// Provider-era posts per resource (raw tag texts).
  std::vector<std::vector<std::vector<std::string>>> initial;
  /// Tag lists audience taggers submit for each resource, used in turn.
  std::vector<std::vector<std::vector<std::string>>> future;
};

struct Inputs {
  std::vector<ProjectInput> projects;
  uint64_t total_initial_posts = 0;
};

Inputs MakeInputs(const Shape& shape, uint64_t seed);

/// Counts the crowd provider's approval policy decisions.
struct PolicyCounters {
  std::atomic<uint64_t> submitted{0};
  std::atomic<uint64_t> approved{0};
};

/// One system under test, loaded with the workload's projects.
struct System {
  std::unique_ptr<api::Service> service;
  std::unique_ptr<net::Server> server;  ///< null when built without one
  core::ShardedSystem* sharded = nullptr;
  core::ShardedSystemOptions options;
  core::ProviderId provider = 0;
  std::vector<core::UserTaggerId> taggers;
  std::vector<core::ProjectId> projects;
  std::shared_ptr<PolicyCounters> policy;
  std::string db_dir;  ///< empty in memory

  uint16_t port() const { return server->port(); }
  /// Stops the server and releases the backend (closing its databases).
  void Shutdown();
};

/// Builds and loads a system: registers the provider and four taggers,
/// creates every project, uploads its resources with their provider-era
/// posts, funds and starts it, then starts the server when `serve`.
Result<std::unique_ptr<System>> BuildSystem(const Shape& shape,
                                            const Inputs& inputs,
                                            uint64_t seed,
                                            const std::string& db_dir,
                                            bool serve);

}  // namespace itag::perfbench

#endif  // ITAG_PERFBENCH_WORKLOAD_H_
