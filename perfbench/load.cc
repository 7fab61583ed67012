#include "load.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>
#include <utility>

#include "async_conn.h"
#include "common/random.h"
#include "net/client.h"

namespace itag::perfbench {

void LoadStats::Fail(const std::string& why) {
  std::lock_guard<std::mutex> lock(error_mu);
  if (error.empty()) error = why;
  broken.store(true, std::memory_order_release);
}

std::string Episode::Fingerprint() const {
  std::string out;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "gain=%a ppt=%a appr=%a", quality_gain,
                posts_per_tick, approval_frac);
  out += buf;
  for (uint32_t c : tasks_completed) out += " " + std::to_string(c);
  return out;
}

namespace {

// ------------------------------------------------------------ requests

api::ProjectQueryRequest MakeQuery(const LoadContext& ctx, uint32_t p,
                                   uint32_t variant, uint32_t pick) {
  api::ProjectQueryRequest q;
  q.project = ctx.system->projects[p];
  // Dashboards mostly read the summary row; some open the live feed
  // (Fig. 5) and some drill into a few resources (Fig. 6).
  if (variant < 15) {
    q.include_feed = true;
  } else if (variant < 30) {
    for (uint32_t k = 0; k < 3; ++k) {
      q.detail_resources.push_back((pick + k * 7919u) % ctx.shape->resources);
    }
  }
  return q;
}

/// The provider's verdict on a submission: a seeded SplitMix64 hash of its
/// handle, so the same handle always gets the same verdict.
bool Approves(const LoadContext& ctx, core::TaskHandle handle) {
  uint64_t z = handle + 0x9e3779b97f4a7c15ULL * (ctx.seed + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  z ^= z >> 31;
  return static_cast<double>(z >> 11) * 0x1.0p-53 < kApproveShare;
}

/// Builds the submit and decide requests for an accepted batch.
void BuildFollowUps(const LoadContext& ctx, uint32_t p,
                    core::UserTaggerId tagger,
                    const std::vector<core::AcceptedTask>& tasks,
                    api::BatchSubmitTagsRequest* submit,
                    api::BatchDecideRequest* decide) {
  const ProjectInput& in = ctx.inputs->projects[p];
  decide->provider = ctx.system->provider;
  for (const core::AcceptedTask& task : tasks) {
    const auto& options = in.future[task.resource % in.future.size()];
    submit->items.push_back(
        {tagger, task.handle, options[task.handle % options.size()]});
    decide->items.push_back({task.handle, Approves(ctx, task.handle)});
  }
}

/// Approvals a decide reply acknowledged.
uint64_t CountApproved(const api::BatchDecideRequest& req,
                       const api::BatchDecideResponse& resp) {
  uint64_t n = 0;
  for (size_t i = 0; i < req.items.size() && i < resp.outcome.statuses.size();
       ++i) {
    if (req.items[i].approve && resp.outcome.statuses[i].ok()) ++n;
  }
  return n;
}

api::BatchControlRequest TopUp(const LoadContext& ctx, uint32_t p) {
  api::BatchControlRequest req;
  req.project = ctx.system->projects[p];
  api::ControlItem item;
  item.action = api::ControlAction::kAddBudget;
  item.budget_tasks = ctx.shape->topup_tasks;
  req.items.push_back(item);
  return req;
}

bool NeedsTopUp(const LoadContext& ctx, uint32_t p,
                const api::ProjectQueryResponse& peek) {
  return ctx.shape->topup_below > 0 && peek.status.ok() &&
         peek.info.budget_remaining < ctx.shape->topup_below &&
         ctx.stats->topup_inflight[p].exchange(1) == 0;
}

template <typename Resp>
const Resp* As(const api::AnyResponse* r) {
  return r == nullptr ? nullptr : std::get_if<Resp>(r);
}

// ----------------------------------------------------------- open loop

enum class OpKind : uint8_t { kQuery, kCycle, kCheckpoint };

struct Op {
  int64_t due_ns = 0;  ///< offset from the start of the loop
  OpKind kind = OpKind::kQuery;
  uint32_t project = 0;
  uint32_t variant = 0;
  uint32_t pick = 0;
};

std::vector<Op> MakeSchedule(const Shape& shape, uint64_t seed,
                             double seconds) {
  Rng rng(seed, 0x5c4ed);
  ZipfSampler zipf(static_cast<uint32_t>(shape.projects), shape.project_zipf);
  std::vector<Op> ops;
  double t = 0.0;
  for (;;) {
    t += rng.Exponential(shape.open_rate);
    if (t >= seconds) break;
    Op op;
    op.due_ns = static_cast<int64_t>(t * 1e9);
    op.kind = rng.NextDouble() < shape.cycle_share ? OpKind::kCycle
                                                   : OpKind::kQuery;
    op.project = zipf.Sample(&rng);
    op.variant = rng.Uniform(100);
    op.pick = rng.NextU32();
    ops.push_back(op);
  }
  if (shape.checkpoint_every_ms > 0) {
    for (int64_t ms = shape.checkpoint_every_ms; ms < seconds * 1000;
         ms += shape.checkpoint_every_ms) {
      Op op;
      op.due_ns = ms * 1000000;
      op.kind = OpKind::kCheckpoint;
      ops.push_back(op);
    }
  }
  std::stable_sort(ops.begin(), ops.end(), [](const Op& a, const Op& b) {
    return a.due_ns < b.due_ns;
  });
  return ops;
}

using Done = std::function<void(const api::AnyResponse*, int64_t start_ns,
                                int64_t end_ns)>;

/// Sends one tracked request: counts it, logs its span, counts a typed
/// refusal as failed, and hands the reply (null when refused) to `done`.
void SendAsync(const LoadContext& ctx, AsyncConn* conn, api::AnyRequest req,
               uint64_t parent, Done done) {
  const size_t type = req.index();
  ctx.stats->sent[type].fetch_add(1, std::memory_order_relaxed);
  const int64_t start = NowNs();
  LoadStats* stats = ctx.stats;
  Status st = conn->Send(
      req, [stats, type, parent, start,
            done = std::move(done)](Result<api::AnyResponse> r) {
        const int64_t end = NowNs();
        stats->spans.Add({api::RequestTypeName(type), stats->spans.NextId(),
                          parent, start, end});
        if (!r.ok()) {
          if (r.status().code() == StatusCode::kCorruption) {
            stats->Fail("reply: " + r.status().ToString());
          }
          stats->failed.fetch_add(1, std::memory_order_relaxed);
          done(nullptr, start, end);
          return;
        }
        done(&r.value(), start, end);
      });
  if (!st.ok()) stats->Fail("send: " + st.ToString());
}

struct Cycle {
  LoadContext ctx;
  AsyncConn* conn = nullptr;
  core::UserTaggerId tagger = 0;
  uint32_t p = 0;
  int64_t due_ns = 0;
  uint64_t span = 0;
  std::atomic<int> waiting{2};
  api::BatchDecideRequest decide;
};

void FinishCycle(const std::shared_ptr<Cycle>& c, bool ok, int64_t end_ns) {
  c->ctx.stats->cycle_us.Add(ok ? UsBetween(c->due_ns, end_ns) : kMissedUs);
  c->ctx.stats->spans.Add({"cycle", c->span, 0, c->due_ns, end_ns});
}

void SendDecide(const std::shared_ptr<Cycle>& c) {
  SendAsync(c->ctx, c->conn, c->decide, c->span,
            [c](const api::AnyResponse* r, int64_t, int64_t end) {
              const auto* resp = As<api::BatchDecideResponse>(r);
              if (resp == nullptr) return FinishCycle(c, false, end);
              uint64_t approved = CountApproved(c->decide, *resp);
              c->ctx.stats->approved.fetch_add(approved);
              c->ctx.stats->approved_by_project[c->p].fetch_add(approved);
              if (!resp->outcome.all_ok()) c->ctx.stats->failed.fetch_add(1);
              FinishCycle(c, resp->outcome.all_ok(), end);
            });
}

void Join(const std::shared_ptr<Cycle>& c) {
  if (c->waiting.fetch_sub(1) == 1) SendDecide(c);
}

void SendTopUp(const LoadContext& ctx, AsyncConn* conn, uint32_t p) {
  SendAsync(ctx, conn, TopUp(ctx, p), 0,
            [ctx, p](const api::AnyResponse* r, int64_t, int64_t) {
              const auto* resp = As<api::BatchControlResponse>(r);
              if (resp != nullptr && !resp->outcome.all_ok()) {
                ctx.stats->failed.fetch_add(1);
              }
              ctx.stats->topup_inflight[p].store(0);
            });
}

/// accept -> (submit, pipelined with one ProjectQuery peek) -> decide.
void StartCycle(const LoadContext& ctx, AsyncConn* conn,
                core::UserTaggerId tagger, uint32_t p, int64_t due_ns) {
  auto c = std::make_shared<Cycle>();
  c->ctx = ctx;
  c->conn = conn;
  c->tagger = tagger;
  c->p = p;
  c->due_ns = due_ns;
  c->span = ctx.stats->spans.NextId();
  api::BatchAcceptTasksRequest accept;
  accept.tagger = tagger;
  accept.project = ctx.system->projects[p];
  accept.count = kAcceptCount;
  ctx.stats->accepts.fetch_add(1);
  SendAsync(ctx, conn, accept, c->span, [c](const api::AnyResponse* r,
                                            int64_t, int64_t end) {
    const LoadContext& ctx = c->ctx;
    const auto* resp = As<api::BatchAcceptTasksResponse>(r);
    if (resp == nullptr || !resp->status.ok() || resp->tasks.empty()) {
      if (resp != nullptr) ctx.stats->failed.fetch_add(1);
      return FinishCycle(c, false, end);
    }
    if (resp->tasks.size() < kAcceptCount) ctx.stats->starved++;
    ctx.stats->tasks_accepted.fetch_add(resp->tasks.size());
    api::BatchSubmitTagsRequest submit;
    BuildFollowUps(ctx, c->p, c->tagger, resp->tasks, &submit, &c->decide);
    SendAsync(ctx, c->conn, std::move(submit), c->span,
              [c](const api::AnyResponse* r, int64_t, int64_t) {
                const auto* s = As<api::BatchSubmitTagsResponse>(r);
                if (s != nullptr) {
                  c->ctx.stats->tasks_submitted.fetch_add(s->outcome.ok_count);
                  if (!s->outcome.all_ok()) c->ctx.stats->failed.fetch_add(1);
                }
                Join(c);
              });
    api::ProjectQueryRequest peek;
    peek.project = ctx.system->projects[c->p];
    SendAsync(ctx, c->conn, peek, c->span,
              [c](const api::AnyResponse* r, int64_t start, int64_t end) {
                const auto* q = As<api::ProjectQueryResponse>(r);
                c->ctx.stats->query_us.Add(q != nullptr && q->status.ok()
                                               ? UsBetween(start, end)
                                               : kMissedUs);
                if (q != nullptr && NeedsTopUp(c->ctx, c->p, *q)) {
                  SendTopUp(c->ctx, c->conn, c->p);
                }
                Join(c);
              });
  });
}

// --------------------------------------------------- synchronous callers

/// A synchronous transport: one call, or two sent back to back.
struct SyncTransport {
  Caller call;
  std::function<std::pair<Result<api::AnyResponse>, Result<api::AnyResponse>>(
      const api::AnyRequest&, const api::AnyRequest&)>
      call2;
};

SyncTransport WireTransport(net::Client* client) {
  SyncTransport t;
  t.call = [client](const api::AnyRequest& req) {
    return client->Dispatch(req);
  };
  t.call2 = [client](const api::AnyRequest& a, const api::AnyRequest& b)
      -> std::pair<Result<api::AnyResponse>, Result<api::AnyResponse>> {
    Result<uint64_t> ca = client->DispatchAsync(a);
    if (!ca.ok()) return {ca.status(), ca.status()};
    Result<uint64_t> cb = client->DispatchAsync(b);
    if (!cb.ok()) return {cb.status(), cb.status()};
    Result<api::AnyResponse> ra = client->Await(ca.value());
    return {std::move(ra), client->Await(cb.value())};
  };
  return t;
}

SyncTransport SequentialTransport(Caller call) {
  SyncTransport t;
  t.call = call;
  t.call2 = [call](const api::AnyRequest& a, const api::AnyRequest& b)
      -> std::pair<Result<api::AnyResponse>, Result<api::AnyResponse>> {
    Result<api::AnyResponse> ra = call(a);
    return {std::move(ra), call(b)};
  };
  return t;
}

/// Tracks one synchronous reply: span, failure accounting; returns the
/// typed reply or null.
const api::AnyResponse* Track(const LoadContext& ctx,
                              const Result<api::AnyResponse>& r, size_t type,
                              uint64_t parent, int64_t start, int64_t end) {
  ctx.stats->spans.Add(
      {api::RequestTypeName(type), ctx.stats->spans.NextId(), parent, start, end});
  if (r.ok()) return &r.value();
  const StatusCode code = r.status().code();
  if (code == StatusCode::kIOError || code == StatusCode::kCorruption) {
    ctx.stats->Fail("transport: " + r.status().ToString());
  }
  ctx.stats->failed.fetch_add(1);
  return nullptr;
}

/// One synchronous request, counted and traced.
const api::AnyResponse* CallOnce(const LoadContext& ctx, const SyncTransport& t,
                                 const api::AnyRequest& req, uint64_t parent,
                                 Result<api::AnyResponse>* holder,
                                 int64_t* latency_ns = nullptr) {
  ctx.stats->sent[req.index()].fetch_add(1);
  const int64_t start = NowNs();
  *holder = t.call(req);
  const int64_t end = NowNs();
  if (latency_ns != nullptr) *latency_ns = end - start;
  return Track(ctx, *holder, req.index(), parent, start, end);
}

/// Outcome of one synchronous tag cycle.
struct SyncCycleResult {
  uint64_t requests = 0;
  uint64_t approved = 0;
};

/// accept -> (submit + peek back to back) -> [top-up] -> decide, each step
/// waiting for the previous one. Records the peek and the whole cycle
/// into the query and cycle samples when `record`.
SyncCycleResult SyncCycle(const LoadContext& ctx, const SyncTransport& t,
                          core::UserTaggerId tagger, uint32_t p, bool record) {
  SyncCycleResult out;
  LoadStats* stats = ctx.stats;
  const uint64_t span = stats->spans.NextId();
  const int64_t start = NowNs();
  auto finish = [&](bool ok) {
    const int64_t end = NowNs();
    if (record) stats->cycle_us.Add(ok ? UsBetween(start, end) : kMissedUs);
    stats->spans.Add({"cycle", span, 0, start, end});
    return out;
  };
  api::BatchAcceptTasksRequest accept;
  accept.tagger = tagger;
  accept.project = ctx.system->projects[p];
  accept.count = kAcceptCount;
  stats->accepts.fetch_add(1);
  Result<api::AnyResponse> h1 = Status::Internal("unset");
  const auto* acc = As<api::BatchAcceptTasksResponse>(
      CallOnce(ctx, t, api::AnyRequest{accept}, span, &h1));
  ++out.requests;
  if (acc == nullptr || !acc->status.ok() || acc->tasks.empty()) {
    if (acc != nullptr) stats->failed.fetch_add(1);
    return finish(false);
  }
  if (acc->tasks.size() < kAcceptCount) stats->starved++;
  stats->tasks_accepted.fetch_add(acc->tasks.size());
  api::BatchSubmitTagsRequest submit;
  api::BatchDecideRequest decide;
  BuildFollowUps(ctx, p, tagger, acc->tasks, &submit, &decide);
  api::ProjectQueryRequest peek;
  peek.project = ctx.system->projects[p];
  const api::AnyRequest sreq{std::move(submit)};
  const api::AnyRequest preq{peek};
  stats->sent[sreq.index()].fetch_add(1);
  stats->sent[preq.index()].fetch_add(1);
  const int64_t pair_start = NowNs();
  auto pair = t.call2(sreq, preq);
  const int64_t pair_end = NowNs();
  out.requests += 2;
  const auto* sub = As<api::BatchSubmitTagsResponse>(
      Track(ctx, pair.first, sreq.index(), span, pair_start, pair_end));
  const auto* q = As<api::ProjectQueryResponse>(
      Track(ctx, pair.second, preq.index(), span, pair_start, pair_end));
  if (sub != nullptr) {
    stats->tasks_submitted.fetch_add(sub->outcome.ok_count);
    if (!sub->outcome.all_ok()) stats->failed.fetch_add(1);
  }
  if (record) {
    stats->query_us.Add(q != nullptr && q->status.ok()
                            ? UsBetween(pair_start, pair_end)
                            : kMissedUs);
  }
  if (q != nullptr && NeedsTopUp(ctx, p, *q)) {
    Result<api::AnyResponse> h = Status::Internal("unset");
    const auto* ctl = As<api::BatchControlResponse>(
        CallOnce(ctx, t, api::AnyRequest{TopUp(ctx, p)}, 0, &h));
    ++out.requests;
    if (ctl != nullptr && !ctl->outcome.all_ok()) stats->failed.fetch_add(1);
    stats->topup_inflight[p].store(0);
  }
  Result<api::AnyResponse> h3 = Status::Internal("unset");
  const auto* dec = As<api::BatchDecideResponse>(
      CallOnce(ctx, t, api::AnyRequest{decide}, span, &h3));
  ++out.requests;
  if (dec == nullptr) return finish(false);
  out.approved = CountApproved(decide, *dec);
  stats->approved.fetch_add(out.approved);
  stats->approved_by_project[p].fetch_add(out.approved);
  if (!dec->outcome.all_ok()) stats->failed.fetch_add(1);
  return finish(dec->outcome.all_ok());
}

}  // namespace

void RunOpenLoop(const LoadContext& ctx, double seconds) {
  const std::vector<Op> schedule = MakeSchedule(*ctx.shape, ctx.seed, seconds);
  AsyncConn conns[2];
  for (AsyncConn& c : conns) {
    Status st = c.Connect("127.0.0.1", ctx.system->port());
    if (!st.ok()) return ctx.stats->Fail("connect: " + st.ToString());
  }
  const int64_t t0 = NowNs() + 1000000;
  for (size_t i = 0; i < schedule.size(); ++i) {
    if (ctx.stats->broken.load()) break;
    const Op& op = schedule[i];
    const int64_t due = t0 + op.due_ns;
    std::this_thread::sleep_until(std::chrono::steady_clock::time_point(
        std::chrono::nanoseconds(due)));
    ctx.stats->late_us.Add(std::max(0.0, UsBetween(due, NowNs())));
    AsyncConn* conn = &conns[i % 2];
    switch (op.kind) {
      case OpKind::kQuery:
        SendAsync(ctx, conn, MakeQuery(ctx, op.project, op.variant, op.pick), 0,
                  [stats = ctx.stats, due](const api::AnyResponse* r, int64_t,
                                           int64_t end) {
                    const auto* q = As<api::ProjectQueryResponse>(r);
                    stats->query_us.Add(q != nullptr && q->status.ok()
                                            ? UsBetween(due, end)
                                            : kMissedUs);
                    if (q != nullptr && !q->status.ok()) stats->failed++;
                  });
        break;
      case OpKind::kCycle:
        StartCycle(ctx, conn, ctx.system->taggers[i % 2], op.project, due);
        break;
      case OpKind::kCheckpoint:
        SendAsync(ctx, conn, api::CheckpointRequest{}, 0,
                  [stats = ctx.stats](const api::AnyResponse* r,
                                      int64_t start, int64_t end) {
                    const auto* ck = As<api::CheckpointResponse>(r);
                    if (ck != nullptr && !ck->status.ok()) stats->failed++;
                    stats->checkpoint_us.Add(UsBetween(start, end));
                  });
        break;
    }
  }
  const int64_t give_up = NowNs() + 60'000'000'000LL;
  while ((conns[0].outstanding() > 0 || conns[1].outstanding() > 0) &&
         NowNs() < give_up && !ctx.stats->broken.load()) {
    if (!conns[0].healthy() || !conns[1].healthy()) {
      ctx.stats->Fail("connection lost during the open loop");
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  if (conns[0].outstanding() > 0 || conns[1].outstanding() > 0) {
    ctx.stats->Fail("open loop replies never arrived");
  }
  for (AsyncConn& c : conns) c.Close();
}

ClosedResult RunClosedLoop(const LoadContext& ctx, double seconds) {
  constexpr size_t kWindows = 10;
  const int64_t window_ns = static_cast<int64_t>(seconds * 1e9 / kWindows);
  std::atomic<uint64_t> ops[kWindows] = {};
  std::atomic<uint64_t> approved[kWindows] = {};
  const int64_t t0 = NowNs();
  const int64_t end = t0 + window_ns * static_cast<int64_t>(kWindows);
  auto worker = [&](size_t idx) {
    net::Client client;
    Status st = client.Connect("127.0.0.1", ctx.system->port());
    if (!st.ok()) return ctx.stats->Fail("connect: " + st.ToString());
    const SyncTransport t = WireTransport(&client);
    Rng rng(ctx.seed, 100 + idx);
    ZipfSampler zipf(static_cast<uint32_t>(ctx.shape->projects),
                     ctx.shape->project_zipf);
    const core::UserTaggerId tagger = ctx.system->taggers[2 + idx];
    int64_t next_checkpoint = t0 + ctx.shape->checkpoint_every_ms * 1000000LL;
    // Cycles interleave with reads at exactly cycle_share, so the mix of a
    // window never depends on luck.
    const double share = ctx.shape->cycle_share;
    for (uint64_t k = 0; NowNs() < end && !ctx.stats->broken.load(); ++k) {
      uint64_t done = 0;
      uint64_t appr = 0;
      const uint32_t p = zipf.Sample(&rng);
      if (idx == 0 && ctx.shape->checkpoint_every_ms > 0 &&
          NowNs() >= next_checkpoint) {
        next_checkpoint += ctx.shape->checkpoint_every_ms * 1000000LL;
        Result<api::AnyResponse> h = Status::Internal("unset");
        int64_t lat = 0;
        const auto* ck = As<api::CheckpointResponse>(CallOnce(
            ctx, t, api::AnyRequest{api::CheckpointRequest{}}, 0, &h, &lat));
        if (ck != nullptr && !ck->status.ok()) ctx.stats->failed++;
        ctx.stats->checkpoint_us.Add(static_cast<double>(lat) / 1e3);
        done = 1;
      } else if (std::floor((k + 1) * share) > std::floor(k * share)) {
        SyncCycleResult r = SyncCycle(ctx, t, tagger, p, false);
        done = r.requests;
        appr = r.approved;
      } else {
        Result<api::AnyResponse> h = Status::Internal("unset");
        const auto* q = As<api::ProjectQueryResponse>(
            CallOnce(ctx, t,
                     api::AnyRequest{MakeQuery(ctx, p, rng.Uniform(100),
                                               rng.NextU32())},
                     0, &h));
        if (q != nullptr && !q->status.ok()) ctx.stats->failed++;
        done = 1;
      }
      const int64_t w = (NowNs() - t0) / window_ns;
      if (w < static_cast<int64_t>(kWindows)) {
        ops[w].fetch_add(done);
        approved[w].fetch_add(appr);
      }
    }
  };
  std::thread a(worker, 0);
  std::thread b(worker, 1);
  a.join();
  b.join();
  std::vector<double> op_rates;
  std::vector<double> approved_rates;
  for (size_t w = 0; w < kWindows; ++w) {
    op_rates.push_back(static_cast<double>(ops[w].load()) * 1e9 / window_ns);
    approved_rates.push_back(static_cast<double>(approved[w].load()) * 1e9 /
                             window_ns);
  }
  ClosedResult out;
  out.ops_per_s = Median(op_rates);
  out.approved_per_s = Median(approved_rates);
  return out;
}

Episode RunCrowdLoop(const LoadContext& ctx, const Caller& call,
                     int64_t deadline_ns, double* approved_per_s,
                     double* ops_per_s) {
  const SyncTransport t = SequentialTransport(call);
  const size_t n = ctx.system->projects.size();
  std::vector<double> quality0(n);
  std::vector<uint32_t> completed0(n);
  std::vector<core::ProjectInfo> latest(n);
  uint64_t requests = 0;
  auto read_all = [&](bool record) {
    for (size_t p = 0; p < n; ++p) {
      api::ProjectQueryRequest q;
      q.project = ctx.system->projects[p];
      Result<api::AnyResponse> h = Status::Internal("unset");
      int64_t lat = 0;
      const auto* r = As<api::ProjectQueryResponse>(
          CallOnce(ctx, t, api::AnyRequest{q}, 0, &h, &lat));
      ++requests;
      const bool ok = r != nullptr && r->status.ok();
      if (r != nullptr && !ok) ctx.stats->failed++;
      if (record) {
        ctx.stats->query_us.Add(ok ? static_cast<double>(lat) / 1e3
                                   : kMissedUs);
      }
      if (ok) latest[p] = r->info;
    }
  };
  read_all(false);
  for (size_t p = 0; p < n; ++p) {
    quality0[p] = latest[p].quality;
    completed0[p] = latest[p].tasks_completed;
  }
  requests = 0;
  Episode episode;
  uint64_t audience_approved = 0;
  const int64_t start = NowNs();
  for (size_t block = 0;; ++block) {
    if (ctx.stats->broken.load()) break;
    api::StepRequest step;
    step.ticks = ctx.shape->block_ticks;
    Result<api::AnyResponse> h = Status::Internal("unset");
    const auto* s =
        As<api::StepResponse>(CallOnce(ctx, t, api::AnyRequest{step}, 0, &h));
    ++requests;
    if (s != nullptr && !s->status.ok()) ctx.stats->failed++;
    read_all(true);
    for (size_t c = 0; c < ctx.shape->cycles_per_block; ++c) {
      const uint32_t p =
          static_cast<uint32_t>((block * ctx.shape->cycles_per_block + c) % n);
      SyncCycleResult r =
          SyncCycle(ctx, t, ctx.system->taggers[c % 4], p, true);
      requests += r.requests;
      audience_approved += r.approved;
    }
    if (block + 1 == ctx.shape->episode_blocks) {
      double gain = 0.0;
      uint64_t completed = 0;
      for (size_t p = 0; p < n; ++p) {
        gain += latest[p].quality - quality0[p];
        completed += latest[p].tasks_completed - completed0[p];
        episode.tasks_completed.push_back(latest[p].tasks_completed);
      }
      episode.quality_gain = gain / static_cast<double>(n);
      const double ticks = static_cast<double>(ctx.shape->episode_blocks *
                                               ctx.shape->block_ticks);
      episode.posts_per_tick =
          static_cast<double>(completed - audience_approved) / ticks;
      const uint64_t submitted = ctx.system->policy->submitted.load();
      episode.approval_frac =
          submitted == 0 ? 0.0
                         : static_cast<double>(ctx.system->policy->approved) /
                               static_cast<double>(submitted);
    }
    if (block + 1 >= ctx.shape->episode_blocks && NowNs() >= deadline_ns) {
      break;
    }
  }
  const double elapsed_s = static_cast<double>(NowNs() - start) / 1e9;
  uint64_t completed = 0;
  for (size_t p = 0; p < n; ++p) {
    completed += latest[p].tasks_completed - completed0[p];
  }
  *approved_per_s = static_cast<double>(completed) / elapsed_s;
  *ops_per_s = static_cast<double>(requests) / elapsed_s;
  return episode;
}

}  // namespace itag::perfbench
