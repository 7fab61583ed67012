// itag_perfbench — the repository benchmark. Runs one named workload
// against an in-process net::Server over loopback, checks the outputs, and
// prints every metric by name with its unit. See perfbench/README.md.
//
//   itag_perfbench --workload monitor|tagging|crowd --seed N --seconds S
//                  --trace 0|1 [--size full|tiny] [--work-dir DIR]
//                  [--results-dir DIR] [--git-sha SHA] [--src-digest HEX]
//
// --trace 0 prints the end-to-end metrics; --trace 1 prints the per-layer
// metrics, measured by timing calls into each module's public functions
// from outside plus MetricsQuery counter deltas. The last stdout line is
// the result object; the line before it is the run's stamp.

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <sched.h>
#include <unistd.h>
#include <vector>

#include "bench_util.h"
#include "common/sharding.h"
#include "load.h"
#include "net/client.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "quality/quality_model.h"
#include "sim/dataset.h"
#include "strategy/engine.h"
#include "workload.h"

namespace itag::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool tiny = false;
  std::string work_dir = ".bench_build/perfbench-work";
  std::string results_dir = ".bench_build/perfbench-results";
  std::string git_sha = "unknown";
  std::string src_digest = "unknown";
};

bool ParseArgs(int argc, char** argv, Args* a) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const std::string v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a->seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a->trace = std::atoi(v.c_str());
    } else if (k == "--size") {
      if (v != "tiny" && v != "full") return false;
      a->tiny = v == "tiny";
    } else if (k == "--work-dir") {
      a->work_dir = v;
    } else if (k == "--results-dir") {
      a->results_dir = v;
    } else if (k == "--git-sha") {
      a->git_sha = v;
    } else if (k == "--src-digest") {
      a->src_digest = v;
    } else {
      return false;
    }
  }
  return (argc % 2) == 1 && !a->workload.empty() && a->seconds > 0 &&
         (a->trace == 0 || a->trace == 1);
}

[[noreturn]] void Die(const std::string& why) {
  std::fprintf(stderr, "itag_perfbench: %s\n", why.c_str());
  std::exit(1);
}

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return 0.0;
}

/// Bytes of every regular file under `dir`, and of the page files alone.
void DiskBytes(const std::string& dir, uint64_t* total, uint64_t* pages) {
  *total = 0;
  *pages = 0;
  if (dir.empty() || !std::filesystem::exists(dir)) return;
  for (const auto& e : std::filesystem::recursive_directory_iterator(dir)) {
    if (!e.is_regular_file()) continue;
    *total += e.file_size();
    if (e.path().filename() == "pages.db") *pages += e.file_size();
  }
}

// --------------------------------------------------------- CPU placement

/// The CPUs this process may use, split so the system under test and the
/// load generator never share one: the server's threads inherit the mask
/// of the thread that starts them. With a single CPU both get it.
struct CpuSplit {
  cpu_set_t server;
  cpu_set_t client;
};

CpuSplit SplitCpus() {
  cpu_set_t all;
  CPU_ZERO(&all);
  sched_getaffinity(0, sizeof(all), &all);
  CpuSplit out;
  out.server = all;
  CPU_ZERO(&out.client);
  int last = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &all)) last = c;
  }
  if (CPU_COUNT(&all) < 2 || last < 0) {
    out.client = all;
    return out;
  }
  CPU_SET(last, &out.client);
  CPU_CLR(last, &out.server);
  return out;
}

void PinCaller(const cpu_set_t& cpus) {
  sched_setaffinity(0, sizeof(cpus), &cpus);
}

std::vector<pid_t> ThreadIds() {
  std::vector<pid_t> out;
  for (const auto& e : std::filesystem::directory_iterator("/proc/self/task")) {
    out.push_back(static_cast<pid_t>(std::stol(e.path().filename().string())));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// Pins each thread started since `before` to one CPU of `cpus`, round
/// robin in creation order. Left to the scheduler, two busy server threads
/// sometimes share a CPU for a whole run, and that run's p99 comes out
/// about 1.5x higher; fixed placement makes runs comparable.
void PinNewThreads(const std::vector<pid_t>& before, const cpu_set_t& cpus) {
  std::vector<int> cpu_list;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &cpus)) cpu_list.push_back(c);
  }
  size_t next = 0;
  for (pid_t tid : ThreadIds()) {
    if (std::binary_search(before.begin(), before.end(), tid)) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu_list[next++ % cpu_list.size()], &one);
    sched_setaffinity(tid, sizeof(one), &one);
  }
}

// ------------------------------------------------------------------ passes

/// One pass of a workload over freshly built systems.
struct Pass {
  std::unique_ptr<System> system;
  std::unique_ptr<LoadStats> stats;
  MetricSnap before;
  MetricSnap after;
  double setup_s = 0.0;
  ClosedResult closed;
  Episode episode;
  double crowd_approved_per_s = 0.0;
  double crowd_ops_per_s = 0.0;
  uint64_t disk_bytes = 0;
  uint64_t page_file_bytes = 0;
};

struct Bench {
  Args args;
  Shape shape;
  Inputs inputs;
  CpuSplit cpus = SplitCpus();
  std::vector<std::string> checks;
  int dirs = 0;

  std::string FreshDir() {
    return args.work_dir + "/" + shape.name + "-" + std::to_string(getpid()) +
           "-" + std::to_string(dirs++);
  }

  LoadContext Context(Pass* pass) const {
    LoadContext ctx;
    ctx.shape = &shape;
    ctx.inputs = &inputs;
    ctx.system = pass->system.get();
    ctx.seed = args.seed;
    ctx.stats = pass->stats.get();
    return ctx;
  }

  std::unique_ptr<System> Build(bool durable, bool serve, double* seconds) {
    const int64_t t0 = NowNs();
    Result<std::unique_ptr<System>> sys = BuildSystem(
        shape, inputs, args.seed, durable ? FreshDir() : "", serve);
    if (!sys.ok()) Die("setup: " + sys.status().ToString());
    if (seconds != nullptr) *seconds = static_cast<double>(NowNs() - t0) / 1e9;
    return std::move(sys).value();
  }

  /// Builds the system `setups` times (setup_s is their median), keeps the
  /// last, and drives the workload over it.
  Pass Run(bool traced, int setups, bool durable, bool open_only) {
    Pass pass;
    std::vector<double> times;
    for (int i = 0; i < setups; ++i) {
      if (pass.system != nullptr) {
        const std::string dir = pass.system->db_dir;
        pass.system->Shutdown();
        pass.system.reset();
        if (!dir.empty()) std::filesystem::remove_all(dir);
      }
      double t = 0.0;
      PinCaller(cpus.server);
      const std::vector<pid_t> before = ThreadIds();
      pass.system = Build(durable, true, &t);
      PinNewThreads(before, cpus.server);
      PinCaller(cpus.client);
      times.push_back(t);
    }
    pass.setup_s = Median(times);
    pass.stats = std::make_unique<LoadStats>(shape.projects, traced);
    LoadContext ctx = Context(&pass);
    pass.before = TakeMetricSnap();
    if (shape.block_ticks > 0) {
      net::Client client;
      Status st = client.Connect("127.0.0.1", pass.system->port());
      if (!st.ok()) Die("connect: " + st.ToString());
      const Caller wire = [&client](const api::AnyRequest& req) {
        return client.Dispatch(req);
      };
      pass.episode = RunCrowdLoop(
          ctx, wire, NowNs() + static_cast<int64_t>(args.seconds * 1e9),
          &pass.crowd_approved_per_s, &pass.crowd_ops_per_s);
    } else {
      RunOpenLoop(ctx, args.seconds * kOpenShare);
      if (!open_only) {
        pass.closed = RunClosedLoop(ctx, args.seconds * (1 - kOpenShare));
      }
    }
    pass.after = TakeMetricSnap();
    if (pass.stats->broken.load()) Die("load: " + pass.stats->error);
    DiskBytes(pass.system->db_dir, &pass.disk_bytes, &pass.page_file_bytes);
    CheckReconciliation(pass);
    CheckWireMatchesInProcess(pass);
    return pass;
  }

  // ---------------------------------------------------------------- checks

  /// Every request the clients sent was counted once by the server.
  void CheckReconciliation(const Pass& pass) {
    for (size_t t = 0; t < api::kRequestTypeCount; ++t) {
      const uint64_t sent = pass.stats->sent[t].load();
      const std::string name =
          std::string("api.") + api::RequestTypeName(t) + ".requests";
      const uint64_t served = CounterDelta(pass.before, pass.after, name);
      if (sent != served) {
        Die("reconciliation: client sent " + std::to_string(sent) + " " +
            api::RequestTypeName(t) + ", server counted " +
            std::to_string(served));
      }
    }
    AddCheck("reconciliation");
  }

  /// After quiescing, a wire ProjectQuery answers byte-for-byte what the
  /// in-process Service answers, for every project.
  void CheckWireMatchesInProcess(const Pass& pass) {
    net::Client client;
    Status st = client.Connect("127.0.0.1", pass.system->port());
    if (!st.ok()) Die("connect: " + st.ToString());
    for (core::ProjectId project : pass.system->projects) {
      api::ProjectQueryRequest q;
      q.project = project;
      q.include_feed = true;
      q.detail_resources = {0, 1, 2};
      Result<api::AnyResponse> wire = client.Dispatch(api::AnyRequest{q});
      if (!wire.ok()) Die("wire ProjectQuery: " + wire.status().ToString());
      api::AnyResponse local = pass.system->service->Dispatch(api::AnyRequest{q});
      if (net::EncodeResponsePayload(wire.value()) !=
          net::EncodeResponsePayload(local)) {
        Die("wire ProjectQuery of project " + std::to_string(project) +
            " differs from the in-process answer");
      }
    }
    AddCheck("wire_equals_in_process");
  }

  /// Reopens the durable directory: each project's recovered
  /// tasks_completed equals the approvals its clients were acknowledged.
  void CheckRecovery(Pass* pass) {
    const core::ShardedSystemOptions options = pass->system->options;
    const std::vector<core::ProjectId> projects = pass->system->projects;
    pass->system->Shutdown();
    core::ShardedSystem reopened(options);
    Status st = reopened.Init();
    if (!st.ok()) Die("recovery: " + st.ToString());
    for (size_t p = 0; p < projects.size(); ++p) {
      Result<core::ProjectInfo> info = reopened.GetProjectInfo(projects[p]);
      if (!info.ok()) Die("recovery: " + info.status().ToString());
      const uint64_t want = pass->stats->approved_by_project[p].load();
      if (info.value().tasks_completed != want) {
        Die("recovery: project " + std::to_string(projects[p]) + " has " +
            std::to_string(info.value().tasks_completed) +
            " completed tasks, clients saw " + std::to_string(want) +
            " approvals");
      }
    }
    AddCheck("durable_recovery");
  }

  /// A second system with the same seed, driven in process, reaches the
  /// identical episode.
  void CheckCrowdRepeats(const Pass& pass) {
    Pass again;
    again.system = Build(false, false, nullptr);
    again.stats = std::make_unique<LoadStats>(shape.projects, false);
    api::Service* service = again.system->service.get();
    const Caller local = [service](const api::AnyRequest& req) {
      return Result<api::AnyResponse>(service->Dispatch(req));
    };
    double unused_rate = 0.0;
    double unused_ops = 0.0;
    Episode episode =
        RunCrowdLoop(Context(&again), local, 0, &unused_rate, &unused_ops);
    if (episode.Fingerprint() != pass.episode.Fingerprint()) {
      Die("crowd episode differs across same-seed runs: " +
          pass.episode.Fingerprint() + " vs " + episode.Fingerprint());
    }
    again.system->Shutdown();
    AddCheck("crowd_repeats");
  }

  void AddCheck(const std::string& name) {
    if (std::find(checks.begin(), checks.end(), name) == checks.end()) {
      checks.push_back(name);
    }
  }
};

// ------------------------------------------------------------------ probes

/// Per-call costs measured in process on the quiesced system, at the
/// stacked entry points net::Client -> Service::Dispatch -> ShardedSystem.
struct Probes {
  std::vector<double> client_us, dispatch_us, info_us, peek_us;
  std::vector<double> gain_us, corpus_us;
  double choose_us_per_task = 0.0;
};

template <typename Fn>
double TimeUs(Fn&& fn) {
  const int64_t t0 = NowNs();
  fn();
  return UsBetween(t0, NowNs());
}

Probes RunProbes(const Bench& b, System* sys, SpanLog* spans) {
  Probes out;
  net::Client client;
  if (!client.Connect("127.0.0.1", sys->port()).ok()) Die("probe connect");
  const size_t shards = sys->sharded->num_shards();
  const quality::StabilityQuality stability;
  const int rounds = b.args.tiny ? 2 : 6;
  auto span = [&](const char* name, double us) {
    const int64_t end = NowNs();
    spans->Add({name, spans->NextId(), 0,
                end - static_cast<int64_t>(us * 1e3), end});
  };
  for (int round = 0; round < rounds; ++round) {
    for (core::ProjectId project : sys->projects) {
      api::ProjectQueryRequest q;
      q.project = project;
      const api::AnyRequest req{q};
      double us = TimeUs([&] { (void)client.Dispatch(req); });
      out.client_us.push_back(us);
      span("probe.net.Client.ProjectQuery", us);
      us = TimeUs([&] { (void)sys->service->Dispatch(req); });
      out.dispatch_us.push_back(us);
      span("probe.api.Service.Dispatch", us);
      us = TimeUs([&] { (void)sys->sharded->GetProjectInfo(project); });
      out.info_us.push_back(us);
      span("probe.itag.GetProjectInfo", us);
      us = TimeUs([&] { (void)sys->sharded->PeekQuality(project); });
      out.peek_us.push_back(us);
      span("probe.itag.PeekQuality", us);
      // Direct facade access is safe here: the server is idle.
      core::ITagSystem& shard =
          sys->sharded->shard_system(ShardOfId(project, shards));
      const core::ProjectId local =
          static_cast<core::ProjectId>(LocalId(project, shards));
      us = TimeUs([&] { (void)shard.quality_manager().ProjectedGain(local); });
      out.gain_us.push_back(us);
      span("probe.quality.ProjectedGain", us);
      const tagging::Corpus* corpus =
          shard.resource_manager().GetCorpus(local);
      if (corpus != nullptr) {
        us = TimeUs([&] { (void)stability.CorpusQuality(*corpus); });
        out.corpus_us.push_back(us);
        span("probe.quality.CorpusQuality", us);
      }
    }
  }

  // The allocation API on a corpus of the workload's shape, as
  // bench_strategies_micro drives it.
  sim::DeliciousConfig cfg;
  cfg.num_resources = b.shape.resources;
  cfg.vocab_size = 1500;
  cfg.initial_posts = b.shape.resources * kPostsPerResource;
  cfg.seed = b.args.seed;
  sim::SyntheticWorkload wl = sim::GenerateDelicious(cfg);
  strategy::EngineOptions eopts;
  eopts.budget = std::min<uint32_t>(b.inputs.projects[0].budget, 2000);
  eopts.seed = b.args.seed;
  strategy::AllocationEngine engine(
      wl.corpus.get(),
      strategy::MakeStrategy(strategy::StrategyKind::kHybridFpMu), eopts);
  Rng rng(b.args.seed, 3);
  double engine_us = 0.0;
  uint32_t tasks = 0;
  for (; tasks < eopts.budget; ++tasks) {
    Result<tagging::ResourceId> chosen = Status::Internal("unset");
    engine_us += TimeUs([&] { chosen = engine.ChooseNext(); });
    if (!chosen.ok()) break;
    sim::GeneratedPost gp =
        wl.tagger->Generate(chosen.value(), 0.92, tasks, 1, &rng);
    (void)wl.corpus->AddPost(chosen.value(), std::move(gp.post));
    engine_us += TimeUs([&] { engine.NotifyPost(chosen.value()); });
  }
  out.choose_us_per_task = tasks == 0 ? 0.0 : engine_us / tasks;
  span("probe.strategy.AllocationEngine", engine_us);
  return out;
}

// ----------------------------------------------------------------- metrics

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

/// The workload's headline end-to-end number, as "worse" grows positive.
double Headline(const Bench& b, const Pass& p) {
  if (b.shape.block_ticks > 0) return -p.crowd_approved_per_s;
  if (b.shape.cycle_share >= 1.0) return Median(p.stats->cycle_us.Values());
  return Median(p.stats->query_us.Values());
}

std::vector<Metric> EndToEnd(const Bench& b, const Pass& p) {
  const std::vector<double> q = p.stats->query_us.Values();
  const std::vector<double> c = p.stats->cycle_us.Values();
  const bool crowd = b.shape.block_ticks > 0;
  return {
      {"setup_s", p.setup_s, "s"},
      {"query_p50_us", Quantile(q, 0.5), "us"},
      {"query_p99_us", p.stats->query_us.WindowedTail(), "us"},
      {"cycle_p50_us", Quantile(c, 0.5), "us"},
      {"cycle_p99_us", p.stats->cycle_us.WindowedTail(), "us"},
      {"peak_ops_per_s", crowd ? p.crowd_ops_per_s : p.closed.ops_per_s, "1/s"},
      {"approved_per_s",
       crowd ? p.crowd_approved_per_s : p.closed.approved_per_s, "1/s"},
      {"rss_mb", PeakRssMb(), "MB"},
  };
}

std::vector<Metric> PerLayer(const Bench& b, const Pass& p, const Probes& pr,
                             double durable_tax_us, double overhead_pct) {
  const MetricSnap& a = p.before;
  const MetricSnap& z = p.after;
  const LoadStats& s = *p.stats;
  auto counter = [&](const std::string& n) {
    return static_cast<double>(CounterDelta(a, z, n));
  };
  auto hist = [&](const std::string& n) { return HistogramDelta(a, z, n); };
  std::vector<Metric> m;

  const double frames = counter("net.frames");
  m.push_back({"net.self_p50_us", Median(pr.client_us) - Median(pr.dispatch_us),
               "us"});
  m.push_back({"net.bytes_per_request",
               Ratio(counter("net.bytes_in") + counter("net.bytes_out"), frames),
               "bytes"});
  m.push_back({"net.dispatch_batch_mean",
               HistogramMean(hist("net.dispatch.batch_size")), "count"});
  m.push_back({"net.flush_frames_mean",
               HistogramMean(hist("net.flush.coalesced_frames")), "count"});
  m.push_back({"net.overload_rejections", counter("net.overload_rejections"),
               "count"});

  for (const char* e : {"ProjectQuery", "BatchAcceptTasks", "BatchSubmitTags",
                        "BatchDecide", "BatchControl", "Step", "Checkpoint"}) {
    const obs::MetricSample h = hist(std::string("api.") + e + ".latency_us");
    m.push_back({std::string("api.") + e + ".p50_us",
                 static_cast<double>(obs::ApproxQuantile(h, 0.5)), "us"});
    m.push_back({std::string("api.") + e + ".p99_us",
                 static_cast<double>(obs::ApproxQuantile(h, 0.99)), "us"});
  }
  m.push_back({"api.dispatch_self_us",
               Median(pr.dispatch_us) - Median(pr.info_us), "us"});

  m.push_back({"itag.info_us", Median(pr.info_us), "us"});
  m.push_back({"itag.peek_us", Median(pr.peek_us), "us"});
  double max_ops = 0.0;
  double sum_ops = 0.0;
  for (size_t i = 0; i < kSizing.shards; ++i) {
    const double ops = counter("core.shard." + std::to_string(i) + ".ops");
    max_ops = std::max(max_ops, ops);
    sum_ops += ops;
  }
  m.push_back({"itag.shard_ops_skew",
               Ratio(max_ops, sum_ops / static_cast<double>(kSizing.shards)),
               "ratio"});
  const obs::MetricSample step = hist("core.step.latency_us");
  m.push_back({"itag.step_p50_ms",
               static_cast<double>(obs::ApproxQuantile(step, 0.5)) / 1e3, "ms"});
  m.push_back({"itag.step_p99_ms",
               static_cast<double>(obs::ApproxQuantile(step, 0.99)) / 1e3, "ms"});

  m.push_back({"quality.projected_gain_us", Median(pr.gain_us), "us"});
  m.push_back({"quality.corpus_quality_us", Median(pr.corpus_us), "us"});

  m.push_back({"strategy.choose_us_per_task", pr.choose_us_per_task, "us"});
  m.push_back({"strategy.starved_frac",
               Ratio(static_cast<double>(s.starved.load()),
                     static_cast<double>(s.accepts.load())),
               "ratio"});

  m.push_back({"tagging.submit_us_per_item",
               Ratio(static_cast<double>(hist("api.BatchSubmitTags.latency_us").sum),
                     static_cast<double>(s.tasks_submitted.load())),
               "us"});

  m.push_back({"crowd.posts_per_tick", p.episode.posts_per_tick, "count"});
  m.push_back({"crowd.approval_frac", p.episode.approval_frac, "ratio"});
  m.push_back({"crowd.quality_gain", p.episode.quality_gain, "quality"});

  const double tasks = static_cast<double>(s.tasks_accepted.load());
  const double hits = counter("storage.page.cache_hits");
  const double misses = counter("storage.page.cache_misses");
  const std::vector<double> ck = s.checkpoint_us.Values();
  m.push_back({"storage.durable_tax_us", durable_tax_us, "us"});
  m.push_back({"storage.wal_appends_per_task",
               Ratio(counter("storage.wal.appends"), tasks), "count"});
  m.push_back({"storage.wal_bytes_per_task",
               Ratio(counter("storage.wal.bytes"), tasks), "bytes"});
  m.push_back({"storage.page_hit_ratio", Ratio(hits, hits + misses), "ratio"});
  m.push_back({"storage.page_reads_per_task",
               Ratio(counter("storage.page.reads"), tasks), "count"});
  m.push_back({"storage.page_writes_per_task",
               Ratio(counter("storage.page.writes"), tasks), "count"});
  m.push_back({"storage.page_evictions", counter("storage.page.evictions"),
               "count"});
  m.push_back({"storage.checkpoint_p50_ms", Quantile(ck, 0.5) / 1e3, "ms"});
  m.push_back({"storage.checkpoint_max_ms",
               ck.empty() ? 0.0 : *std::max_element(ck.begin(), ck.end()) / 1e3,
               "ms"});
  m.push_back({"storage.disk_bytes_per_post",
               Ratio(static_cast<double>(p.disk_bytes),
                     static_cast<double>(b.inputs.total_initial_posts) +
                         static_cast<double>(s.approved.load())),
               "bytes"});

  const std::vector<double> late = s.late_us.Values();
  m.push_back({"bench.gen_late_p99_us",
               Quantile(late, TailQuantileFor(late.size())), "us"});
  m.push_back({"bench.trace_overhead_pct", overhead_pct, "%"});
  m.push_back({"bench.failed_frac",
               Ratio(static_cast<double>(s.failed.load()),
                     static_cast<double>(s.attempted())),
               "ratio"});
  return m;
}

// ------------------------------------------------------------------ output

std::string StampJson(const Bench& b, const Pass& p) {
  std::string checks = "[";
  for (size_t i = 0; i < b.checks.size(); ++i) {
    checks += (i ? ", " : "") + JsonStr(b.checks[i]);
  }
  checks += "]";
  const Shape& s = b.shape;
  return std::string("{\"stamp\": {") +
         "\"workload\": " + JsonStr(s.name) +
         ", \"seed\": " + std::to_string(b.args.seed) +
         ", \"seconds\": " + JsonNum(b.args.seconds) +
         ", \"trace\": " + std::to_string(b.args.trace) +
         ", \"size\": " + JsonStr(b.args.tiny ? "tiny" : "full") +
         ", \"host_cores\": " +
         std::to_string(std::thread::hardware_concurrency()) +
         ", \"git_sha\": " + JsonStr(b.args.git_sha) +
         ", \"src_digest\": " + JsonStr(b.args.src_digest) +
         ", \"build_type\": " + JsonStr(PERFBENCH_BUILD_TYPE) +
         ", \"sizing\": {\"reactors\": " + std::to_string(kSizing.reactors) +
         ", \"workers\": " + std::to_string(kSizing.workers) +
         ", \"shards\": " + std::to_string(kSizing.shards) +
         ", \"pool_threads\": " + std::to_string(kSizing.pool_threads) +
         "}, \"projects\": " + std::to_string(s.projects) +
         ", \"resources_per_project\": " + std::to_string(s.resources) +
         ", \"initial_posts\": " + std::to_string(b.inputs.total_initial_posts) +
         ", \"open_rate_per_s\": " + JsonNum(s.open_rate) +
         ", \"page_cache_bytes\": " +
         std::to_string(s.durable ? 4096 * kSizing.shards : 0) +
         ", \"page_file_bytes\": " + std::to_string(p.page_file_bytes) +
         ", \"disk_bytes\": " + std::to_string(p.disk_bytes) +
         ", \"query_samples\": " + std::to_string(p.stats->query_us.size()) +
         ", \"query_tail_quantile\": " +
         JsonNum(p.stats->query_us.TailQuantile()) +
         ", \"cycle_samples\": " + std::to_string(p.stats->cycle_us.size()) +
         ", \"cycle_tail_quantile\": " +
         JsonNum(p.stats->cycle_us.TailQuantile()) +
         ", \"api_histogram_resolution\": \"power-of-two buckets (2x)\"" +
         "}, \"checks\": " + checks + "}";
}

void WriteResults(const Bench& b, const std::string& stamp,
                  const std::string& metrics, const SpanLog* spans) {
  std::filesystem::create_directories(b.args.results_dir);
  const std::string path = b.args.results_dir + "/" + b.shape.name + "-seed" +
                           std::to_string(b.args.seed) + "-trace" +
                           std::to_string(b.args.trace) + ".json";
  std::ofstream out(path);
  out << "{\"run\": " << stamp << ",\n \"metrics\": " << metrics
      << ",\n \"spans\": [";
  if (spans != nullptr) {
    bool first = true;
    for (const ClientSpan& sp : spans->spans()) {
      out << (first ? "\n  " : ",\n  ") << "{\"name\": " << JsonStr(sp.name)
          << ", \"id\": " << sp.id << ", \"parent\": " << sp.parent
          << ", \"start_ns\": " << sp.start_ns << ", \"end_ns\": " << sp.end_ns
          << "}";
      first = false;
    }
  }
  out << "]}\n";
}

int Main(int argc, char** argv) {
  Bench b;
  if (!ParseArgs(argc, argv, &b.args)) {
    Die("usage: itag_perfbench --workload monitor|tagging|crowd --seed N "
        "--seconds S --trace 0|1 [--size full|tiny] [--work-dir DIR] "
        "[--results-dir DIR] [--git-sha SHA] [--src-digest HEX]");
  }
  if (!ShapeFor(b.args.workload, b.args.tiny, &b.shape)) {
    Die("unknown workload " + b.args.workload);
  }
  b.inputs = MakeInputs(b.shape, b.args.seed);
  const bool crowd = b.shape.block_ticks > 0;
  const bool traced = b.args.trace == 1;

  // The untraced pass: every end-to-end metric and every correctness check.
  Pass base = b.Run(false, traced ? 1 : b.shape.setups, b.shape.durable, false);
  if (crowd) b.CheckCrowdRepeats(base);
  const double base_headline = Headline(b, base);
  const std::string base_dir = base.system->db_dir;
  if (b.shape.durable) b.CheckRecovery(&base);
  const uint64_t attempted = base.stats->attempted();
  const uint64_t failed = base.stats->failed.load();

  std::string metrics;
  std::string stamp;
  if (!traced) {
    metrics = MetricsJson(EndToEnd(b, base));
    stamp = StampJson(b, base);
    WriteResults(b, stamp, metrics, nullptr);
  } else {
    const std::vector<double> base_cycles = base.stats->cycle_us.Values();
    base.system->Shutdown();
    // The traced pass: client spans kept in memory, counter deltas, then
    // the in-process probes on the quiesced system.
    Pass tp = b.Run(true, 1, b.shape.durable, false);
    Probes probes = RunProbes(b, tp.system.get(), &tp.stats->spans);
    const double overhead =
        base_headline == 0.0
            ? 0.0
            : (Headline(b, tp) - base_headline) / std::abs(base_headline) * 100;
    double tax = 0.0;
    if (b.shape.durable) {
      // The same seeded open-loop stream on in-memory storage.
      const std::string dir = tp.system->db_dir;
      tp.system->Shutdown();
      if (!dir.empty()) std::filesystem::remove_all(dir);
      Pass mem = b.Run(false, 1, false, true);
      tax = Median(base_cycles) - Median(mem.stats->cycle_us.Values());
      mem.system->Shutdown();
    }
    metrics = MetricsJson(PerLayer(b, tp, probes, tax, overhead));
    stamp = StampJson(b, tp);
    WriteResults(b, stamp, metrics, &tp.stats->spans);
    const std::string dir = tp.system != nullptr ? tp.system->db_dir : "";
    if (tp.system != nullptr) tp.system->Shutdown();
    if (!dir.empty()) std::filesystem::remove_all(dir);
  }
  if (base.system != nullptr) base.system->Shutdown();
  if (!base_dir.empty()) std::filesystem::remove_all(base_dir);

  std::printf("%s\n", stamp.c_str());
  std::printf("{\"correct\": true, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace itag::perfbench

int main(int argc, char** argv) { return itag::perfbench::Main(argc, argv); }
