// cold_build: back-to-back cache-miss builds on one fixed dataset.
//
// The best-in-DB scan is O(N·n) and dominates the build, so this is where
// a faster scan, sample, prune or tile shows first; solver, service and
// stream code do almost nothing here. Each build draws a fresh Θ seed, so
// Service::GetOrBuildWorkload always misses, and is followed by one
// checked greedy-grow k=10 solve: op = the build, op2 = the time to the
// first answer (build + solve).
//
// In the traced run every other op first builds the same inputs layer by
// layer (decomposed_build.h), checks the pieces against the served build,
// and reports phase coverage against that build's wall time on the same
// seed; the untraced ops in between give the tracing overhead.

#include <memory>

#include "decomposed_build.h"
#include "workloads.h"

namespace fam::perfbench {

namespace {
constexpr size_t kDim = 4;
constexpr size_t kSolveK = 10;
}  // namespace

RunReport RunColdBuild(RunContext& ctx) {
  const Sizes& sizes = ctx.sizes;
  const uint64_t seed = ctx.options.seed;
  Tracer* tracer = ctx.tracer;
  RunReport report;
  EndToEnd e2e;
  Digest digest;
  digest.Add("cold_build");

  std::shared_ptr<const Dataset> data;
  std::unique_ptr<Service> service;
  for (size_t r = 0; r < sizes.setup_repeats; ++r) {
    const double start = NowSeconds();
    service.reset();
    data = std::make_shared<const Dataset>(GenerateSynthetic(
        {.n = sizes.cold_points, .d = kDim,
         .distribution = SyntheticDistribution::kIndependent,
         .seed = DeriveSeed(kCatalogSeed, "cold_build.data")}));
    service = std::make_unique<Service>();
    // A first build spawns the shared pool and warms the allocator before
    // the first timed op. It is full-size, so setup_s tracks the build
    // rather than a few ms of process noise.
    BuildSpec warmup{.dataset = data,
                     .num_users = sizes.cold_users,
                     .seed = DeriveSeed(seed, "cold_build.warmup_theta")};
    ctx.checker.Attempt();
    ctx.checker.Ok(service->GetOrBuildWorkload(warmup.ToServiceSpec()).status(),
                   "cold_build warm-up build");
    e2e.setup_s.push_back(NowSeconds() - start);
  }
  e2e.setup_rss_mb = PeakRssMb();

  if (tracer != nullptr) {
    Span span(tracer, "geom.skyline", tracer->NewOp());
    tracer->Record("geom.skyline_size",
                   static_cast<double>(SkylineIndices(*data).size()));
  }

  const double start = NowSeconds();
  for (size_t i = 0;
       i < sizes.digest_ops || NowSeconds() - start < ctx.options.seconds;
       ++i) {
    BuildSpec spec{.dataset = data,
                   .num_users = sizes.cold_users,
                   .seed = DeriveSeed(seed, "cold_build.theta", i)};
    const bool traced = tracer != nullptr && i % 2 == 0;
    Tracer* op_tracer = traced ? tracer : nullptr;
    const uint64_t op = tracer != nullptr ? tracer->NewOp() : 0;
    Span op_span(op_tracer, "op.cold_build", op);

    Result<DecomposedBuild> pieces = Status::Internal("not built");
    if (traced) {
      pieces = BuildDecomposed(spec, tracer, op);
      ctx.checker.Attempt();
      ctx.checker.Ok(pieces.status(), "cold_build decomposed build");
    }

    ctx.checker.Attempt();
    const double build_start = NowSeconds();
    Result<std::shared_ptr<const Workload>> built = [&] {
      Span span(op_tracer, "fam.service.get_or_build", op);
      return service->GetOrBuildWorkload(spec.ToServiceSpec());
    }();
    const double build_ms = (NowSeconds() - build_start) * 1e3;
    if (!ctx.checker.Ok(built.status(), "cold_build build")) continue;
    e2e.op_ms["build"].push_back(build_ms);
    if (tracer != nullptr) {
      tracer->Record(traced ? "trace.op_ms.traced" : "trace.op_ms.untraced",
                     build_ms);
    }
    if (i < sizes.digest_ops) digest.AddWorkload(**built);
    if (traced && pieces.ok()) {
      tracer->Record("fam.engine.phase_coverage", pieces->phases_ms / build_ms);
      tracer->Record("regret.evaluator.best_scan_share",
                     tracer->DurationsMs("regret.evaluator.best_scan").back() /
                         build_ms);
    }

    const SolveRequest request{.solver = "greedy-grow", .k = kSolveK};
    TimedSolve solve =
        SubmitAndWait(*service, **built, request, "ratio", op_tracer, op);
    if (!solve.response.ok()) {
      ctx.checker.Attempt();
      ctx.checker.Ok(solve.response.status(), "cold_build solve");
      continue;
    }
    e2e.op2_ms["first_answer"].push_back(build_ms + solve.client_ms);
    if (i < sizes.digest_ops) digest.AddSelection(solve.response->selection);
    if (traced && pieces.ok()) {
      CheckDecomposedParity(*pieces, **built, kSolveK, *solve.response,
                            ctx.checker);
    }
    ctx.checker.CheckSolve(**built, kSolveK, *std::move(solve.response),
                           "cold_build solve");
  }
  e2e.window_s = NowSeconds() - start;

  Record(tracer, "fam.service.rejected",
         static_cast<double>(service->stats().rejected));
  ReportEndToEnd(e2e, report);
  report.digest = digest.value();
  return report;
}

}  // namespace fam::perfbench
