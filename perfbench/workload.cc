#include "workload.h"

#include <cmath>
#include <filesystem>
#include <utility>

#include "common/random.h"
#include "sim/dataset.h"

namespace itag::perfbench {

bool ShapeFor(const std::string& workload, bool tiny, Shape* out) {
  Shape s;
  s.name = workload;
  if (workload == "monitor") {
    // Provider dashboards: large, spread budgets put the projected-gain
    // greedy (capped at 5000 tasks) on both sides of its cap.
    s.budget_lo = 1000;
    s.budget_hi = 20000;
    s.open_rate = 600;
    s.cycle_share = 0.05;
  } else if (workload == "tagging") {
    // Audience taggers on durable paged storage with a cache far smaller
    // than the data; providers keep budgets small through top-ups.
    s.budget_lo = 512;
    s.budget_hi = 512;
    s.durable = true;
    s.open_rate = 150;
    s.setups = 3;
    s.cycle_share = 1.0;
    s.project_zipf = 1.1;
    s.checkpoint_every_ms = 250;
    s.topup_below = 256;
    s.topup_tasks = 512;
  } else if (workload == "crowd") {
    // The paper's Algorithm 1 loop over MTurk and social-network projects.
    s.projects = 8;
    s.resources = 300;
    s.budget_lo = 10000;
    s.budget_hi = 20000;
    s.social_projects = 4;
    s.block_ticks = 5;
    s.episode_blocks = 60;
    s.cycles_per_block = 2;
  } else {
    return false;
  }
  if (tiny) {
    s.projects = s.social_projects > 0 ? 2 : 4;
    s.social_projects = s.social_projects > 0 ? 1 : 0;
    s.resources = 24;
    s.open_rate = s.open_rate > 0 ? 100 : 0;
    s.episode_blocks = s.episode_blocks > 0 ? 6 : 0;
  }
  *out = std::move(s);
  return true;
}

Inputs MakeInputs(const Shape& shape, uint64_t seed) {
  Inputs in;
  // Budgets are the log-spaced quantiles of [lo, hi], in project order. As
  // projects land on shards round-robin, every shard gets the same spread,
  // and every seed sees the same budget mix: seeds change the corpora and
  // the request stream, not the cost profile.
  const size_t n = shape.projects;
  const double lo = std::log(static_cast<double>(shape.budget_lo));
  const double hi = std::log(static_cast<double>(shape.budget_hi));
  for (size_t p = 0; p < n; ++p) {
    ProjectInput pi;
    const double at = (static_cast<double>(p) + 0.5) / static_cast<double>(n);
    pi.budget =
        static_cast<uint32_t>(std::lround(std::exp(lo + (hi - lo) * at)));
    if (shape.block_ticks > 0) {
      pi.platform = p < shape.social_projects
                        ? core::PlatformChoice::kSocialNetwork
                        : core::PlatformChoice::kMTurk;
    }
    sim::DeliciousConfig cfg;
    cfg.num_resources = shape.resources;
    cfg.vocab_size = 1500;
    cfg.initial_posts = shape.resources * kPostsPerResource;
    cfg.popularity_zipf_s = 1.1;
    cfg.seed = seed * 7919 + p;
    sim::SyntheticWorkload wl = sim::GenerateDelicious(cfg);
    const tagging::TagDictionary& dict = wl.corpus->dict();
    auto texts = [&](const tagging::Post& post) {
      std::vector<std::string> out;
      for (tagging::TagId t : post.tags) out.push_back(dict.Text(t));
      return out;
    };
    pi.initial.resize(shape.resources);
    pi.future.resize(shape.resources);
    Rng post_rng(cfg.seed, 0xf07);
    for (uint32_t r = 0; r < shape.resources; ++r) {
      for (const tagging::Post& post : wl.corpus->posts(r)) {
        pi.initial[r].push_back(texts(post));
        ++in.total_initial_posts;
      }
      for (int k = 0; k < 4; ++k) {
        sim::GeneratedPost gp = wl.tagger->Generate(r, 0.92, 0, 1, &post_rng);
        std::vector<std::string> tags = texts(gp.post);
        if (tags.empty()) tags.push_back("misc");
        pi.future[r].push_back(std::move(tags));
      }
    }
    in.projects.push_back(std::move(pi));
  }
  return in;
}

void System::Shutdown() {
  if (server != nullptr) server->Stop();
  server.reset();
  service.reset();
  sharded = nullptr;
}

namespace {

Status FirstError(const std::vector<Status>& statuses) {
  for (const Status& st : statuses) {
    if (!st.ok()) return st;
  }
  return Status::OK();
}

}  // namespace

Result<std::unique_ptr<System>> BuildSystem(const Shape& shape,
                                            const Inputs& inputs,
                                            uint64_t seed,
                                            const std::string& db_dir,
                                            bool serve) {
  auto sys = std::make_unique<System>();
  sys->db_dir = db_dir;
  sys->options.num_shards = kSizing.shards;
  sys->options.pool_threads = kSizing.pool_threads;
  sys->options.shard.seed = seed;
  if (!db_dir.empty()) {
    std::filesystem::create_directories(db_dir);
    sys->options.shard.db.directory = db_dir;
    sys->options.shard.db.paged = true;
    sys->options.shard.db.page_cache_mb = 0;  // one frame per shard pager
  }
  sys->service = std::make_unique<api::Service>(sys->options);
  Status st = sys->service->Init();
  if (!st.ok()) return st;
  core::ShardedSystem* core = sys->service->sharded();
  sys->sharded = core;

  Result<core::ProviderId> provider = core->RegisterProvider("perfbench");
  if (!provider.ok()) return provider.status();
  sys->provider = provider.value();
  for (int t = 0; t < 4; ++t) {
    Result<core::UserTaggerId> tagger =
        core->RegisterTagger("tagger-" + std::to_string(t));
    if (!tagger.ok()) return tagger.status();
    sys->taggers.push_back(tagger.value());
  }

  for (size_t p = 0; p < inputs.projects.size(); ++p) {
    const ProjectInput& pi = inputs.projects[p];
    core::ProjectSpec spec;
    spec.name = shape.name + "-" + std::to_string(p);
    spec.kind = tagging::ResourceKind::kWebUrl;
    // Funded after loading, as a provider does once resources are in.
    spec.budget = 1;
    spec.pay_cents = 5;
    spec.platform = pi.platform;
    Result<core::ProjectId> project = core->CreateProject(sys->provider, spec);
    if (!project.ok()) return project.status();
    const core::ProjectId id = project.value();
    sys->projects.push_back(id);

    std::vector<core::ResourceUpload> uploads(pi.initial.size());
    for (size_t r = 0; r < uploads.size(); ++r) {
      uploads[r].kind = tagging::ResourceKind::kWebUrl;
      uploads[r].uri = "https://example.org/" + std::to_string(p) + "/" +
                       std::to_string(r);
      if (!pi.initial[r].empty()) uploads[r].initial_tags = pi.initial[r][0];
    }
    std::vector<tagging::ResourceId> ids;
    st = FirstError(core->UploadResourceBatch(id, uploads, &ids));
    if (!st.ok()) return st;
    for (size_t r = 0; r < pi.initial.size(); ++r) {
      for (size_t k = 1; k < pi.initial[r].size(); ++k) {
        st = core->ImportPost(id, ids[r], pi.initial[r][k]);
        if (!st.ok()) return st;
      }
    }
    st = core->StartProject(id);
    if (!st.ok()) return st;
    if (pi.budget > 1) {
      st = core->AddBudget(id, pi.budget - 1);
      if (!st.ok()) return st;
    }
  }

  if (shape.block_ticks > 0) {
    // The crowd provider approves conscientious work only.
    auto counters = std::make_shared<PolicyCounters>();
    sys->policy = counters;
    core->SetApprovalPolicy(
        sys->provider, [counters](const core::PendingSubmission& sub) {
          counters->submitted.fetch_add(1, std::memory_order_relaxed);
          if (!sub.conscientious_hint) return false;
          counters->approved.fetch_add(1, std::memory_order_relaxed);
          return true;
        });
  }

  if (serve) {
    net::ServerOptions so;
    so.reactors = kSizing.reactors;
    so.workers = kSizing.workers;
    sys->server = std::make_unique<net::Server>(sys->service.get(), so);
    st = sys->server->Start();
    if (!st.ok()) return st;
  }
  return sys;
}

}  // namespace itag::perfbench
