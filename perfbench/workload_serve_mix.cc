// serve_mix: four closed-loop clients against four cached tenants.
//
// Kernel, solver and queueing work dominate; the build layers run only in
// set-up. Two tenants share a large anti-correlated dataset (arr and
// topk:5) and two share a small one (cvar:0.9 and rank-regret). About 75%
// of requests are ratio-form (greedy-shrink, greedy-grow and local-search
// on arr, greedy-grow on topk:5) and 25% non-ratio (greedy-grow on cvar
// and on rank-regret), with k from 5 to 20, so a gain in the
// kernel, in the generic measure path, or in queue wait each shows in its
// own metric: op = ratio-form requests, op2 = non-ratio requests.

#include <algorithm>
#include <array>
#include <memory>
#include <thread>

#include "decomposed_build.h"
#include "workloads.h"

namespace fam::perfbench {

namespace {

constexpr size_t kDim = 4;
constexpr size_t kClients = 4;
constexpr size_t kMinK = 5;

enum Tenant { kArr, kTopK, kCvar, kRankRegret, kNumTenants };

struct RequestKind {
  Tenant tenant;
  const char* solver;
  bool ratio;
  size_t weight;  // out of 16: 12/16 ratio-form, 4/16 non-ratio
  const char* name;  // the latency class (ClassPercentile)
};
constexpr std::array<RequestKind, 6> kKinds = {{
    {kArr, "greedy-shrink", true, 3, "greedy-shrink/arr"},
    {kArr, "greedy-grow", true, 3, "greedy-grow/arr"},
    {kArr, "local-search", true, 3, "local-search/arr"},
    {kTopK, "greedy-grow", true, 3, "greedy-grow/topk5"},
    {kCvar, "greedy-grow", false, 2, "greedy-grow/cvar"},
    {kRankRegret, "greedy-grow", false, 2, "greedy-grow/rank-regret"},
}};

struct Request {
  size_t kind;
  size_t k;
};

/// One pass over the nominal mix: the 16 kind slots (each kind as often as
/// its weight) paired with k = 5..20, both in a seeded order. Clients deal
/// their requests from successive decks, so every run sends almost exactly
/// the same mix, and each kind is solved at many k — a per-kind median
/// over three distinct computations would follow the seed, not the code.
std::vector<Request> Deck(Rng& rng) {
  std::vector<Request> deck;
  for (size_t kind = 0; kind < kKinds.size(); ++kind) {
    for (size_t copy = 0; copy < kKinds[kind].weight; ++copy) {
      deck.push_back({kind, 0});
    }
  }
  std::vector<size_t> ks(deck.size());
  for (size_t i = 0; i < ks.size(); ++i) ks[i] = kMinK + i;
  Shuffle(deck, rng);
  Shuffle(ks, rng);
  for (size_t i = 0; i < deck.size(); ++i) deck[i].k = ks[i];
  return deck;
}

/// What the client keeps of one reply for the checks after the run.
struct Reply {
  size_t kind;
  size_t k;
  Status status;
  SolveResponse response;  // selection only; the distribution is dropped
  double client_ms;
};

}  // namespace

RunReport RunServeMix(RunContext& ctx) {
  const Sizes& sizes = ctx.sizes;
  const uint64_t seed = ctx.options.seed;
  Tracer* tracer = ctx.tracer;
  RunReport report;
  EndToEnd e2e;
  Digest digest;
  digest.Add("serve_mix");

  std::unique_ptr<Service> service;
  std::array<std::shared_ptr<const Workload>, kNumTenants> tenants;
  std::array<BuildSpec, kNumTenants> specs;
  for (size_t r = 0; r < sizes.setup_repeats; ++r) {
    const double start = NowSeconds();
    tenants = {};
    service.reset();
    auto big = std::make_shared<const Dataset>(GenerateSynthetic(
        {.n = sizes.serve_points, .d = kDim,
         .distribution = SyntheticDistribution::kAntiCorrelated,
         .seed = DeriveSeed(kCatalogSeed, "serve_mix.big")}));
    auto small = std::make_shared<const Dataset>(GenerateSynthetic(
        {.n = sizes.serve_small_points, .d = kDim,
         .distribution = SyntheticDistribution::kAntiCorrelated,
         .seed = DeriveSeed(kCatalogSeed, "serve_mix.small")}));
    const uint64_t theta = DeriveSeed(seed, "serve_mix.theta");
    specs[kArr] = {big, sizes.serve_users, theta, {PruneMode::kAuto}, "arr"};
    specs[kTopK] = {big, sizes.serve_users, theta, {PruneMode::kAuto},
                    "topk:5"};
    specs[kCvar] = {small, sizes.serve_small_users, theta,
                    {PruneMode::kAuto}, "cvar:0.9"};
    specs[kRankRegret] = {small, sizes.serve_small_users, theta,
                          {PruneMode::kAuto}, "rank-regret"};
    service = std::make_unique<Service>();
    for (size_t t = 0; t < kNumTenants; ++t) {
      ctx.checker.Attempt();
      Result<std::shared_ptr<const Workload>> built =
          service->GetOrBuildWorkload(specs[t].ToServiceSpec());
      if (!ctx.checker.Ok(built.status(), "serve_mix tenant build")) {
        return report;
      }
      tenants[t] = *built;
    }
    e2e.setup_s.push_back(NowSeconds() - start);
  }
  e2e.setup_rss_mb = PeakRssMb();
  for (const auto& tenant : tenants) digest.AddWorkload(*tenant);

  if (tracer != nullptr) {
    // Attribute the arr tenant's build to its layers and check the pieces
    // against it; time the two measure contexts this workload depends on.
    TraceSetupBuild(specs[kArr], *tenants[kArr], *service, *tracer,
                    ctx.checker);
    const uint64_t op = tracer->NewOp();
    const std::array<std::pair<Tenant, const char*>, 2> contexts = {
        {{kTopK, "topk5"}, {kRankRegret, "rank_regret"}}};
    for (const auto& [tenant, name] : contexts) {
      std::shared_ptr<const MeasureContext> context;
      {
        Span span(tracer, std::string("regret.measure.context.") + name, op);
        context = BuildMeasureContext(tenants[tenant]->shared_measure(),
                                      tenants[tenant]->evaluator());
      }
      tracer->Record(
          std::string("regret.measure.context_bytes.") + name,
          static_cast<double>((context->reference.size() +
                               context->sorted_utilities.size()) *
                              sizeof(double)));
    }
  }

  std::array<std::vector<Reply>, kClients> replies;
  std::array<double, kClients> last_done{};
  const double start = NowSeconds();
  const double deadline = start + ctx.options.seconds;
  {
    std::vector<std::thread> clients;
    for (size_t c = 0; c < kClients; ++c) {
      clients.emplace_back([&, c] {
        Rng rng(DeriveSeed(seed, "serve_mix.client", c));
        std::vector<Request> deck;
        for (size_t i = 0; i < sizes.digest_ops || NowSeconds() < deadline;
             ++i) {
          if (i % 16 == 0) deck = Deck(rng);
          const Request next = deck[i % deck.size()];
          const RequestKind& kind = kKinds[next.kind];
          const size_t k = next.k;
          const bool traced = tracer != nullptr && i % 2 == 0;
          const uint64_t op = tracer != nullptr ? tracer->NewOp() : 0;
          Tracer* op_tracer = traced ? tracer : nullptr;
          Span op_span(op_tracer, "op.serve_request", op);
          TimedSolve solve = SubmitAndWait(
              *service, *tenants[kind.tenant],
              {.solver = kind.solver, .k = k},
              kind.ratio ? "ratio" : "nonratio", op_tracer, op);
          Reply reply{.kind = next.kind, .k = k,
                      .status = solve.response.status(), .response = {},
                      .client_ms = solve.client_ms};
          if (reply.status.ok()) {
            reply.response.selection = std::move(solve.response->selection);
            reply.response.truncated = solve.response->truncated;
          }
          if (tracer != nullptr && kind.ratio) {
            tracer->Record(traced ? "trace.op_ms.traced"
                                  : "trace.op_ms.untraced",
                           solve.client_ms);
          }
          replies[c].push_back(std::move(reply));
          last_done[c] = NowSeconds();
        }
      });
    }
    for (std::thread& client : clients) client.join();
  }
  e2e.window_s = *std::max_element(last_done.begin(), last_done.end()) - start;

  for (size_t c = 0; c < kClients; ++c) {
    for (size_t i = 0; i < replies[c].size(); ++i) {
      Reply& reply = replies[c][i];
      if (!reply.status.ok()) {
        ctx.checker.Attempt();
        ctx.checker.Ok(reply.status, "serve_mix request");
        continue;
      }
      const RequestKind& kind = kKinds[reply.kind];
      (kind.ratio ? e2e.op_ms : e2e.op2_ms)[kind.name].push_back(
          reply.client_ms);
      if (i < sizes.digest_ops) digest.AddSelection(reply.response.selection);
      ctx.checker.CheckSolve(*tenants[kind.tenant], reply.k,
                             std::move(reply.response), "serve_mix request");
    }
  }

  Record(tracer, "fam.service.rejected",
         static_cast<double>(service->stats().rejected));
  ReportEndToEnd(e2e, report);
  report.digest = digest.value();
  return report;
}

}  // namespace fam::perfbench
