#include "decomposed_build.h"

#include <utility>

namespace fam::perfbench {

WorkloadSpec BuildSpec::ToServiceSpec() const {
  WorkloadSpec spec;
  spec.dataset = dataset;
  spec.num_users = num_users;
  spec.seed = seed;
  spec.prune = prune;
  spec.measure = measure;
  return spec;
}

namespace {

/// Times one phase: a span named `name` plus the wall time added to
/// `total_ms`.
template <typename Fn>
auto Phase(Tracer* tracer, const char* name, uint64_t op, double& total_ms,
           Fn&& fn) {
  Span span(tracer, name, op);
  const double start = NowSeconds();
  auto result = fn();
  total_ms += (NowSeconds() - start) * 1e3;
  return result;
}

}  // namespace

Result<DecomposedBuild> BuildDecomposed(const BuildSpec& spec, Tracer* tracer,
                                        uint64_t op) {
  Span root(tracer, "fam.engine.decomposed_build", op);
  DecomposedBuild out;
  const Dataset& dataset = *spec.dataset;
  auto theta =
      std::make_shared<const UniformLinearDistribution>(WeightDomain::kSimplex);

  UtilityMatrix users =
      Phase(tracer, "utility.sample", op, out.phases_ms, [&] {
        Rng rng(spec.seed);
        return theta->Sample(dataset, spec.num_users, rng);
      });
  out.evaluator =
      Phase(tracer, "regret.evaluator.best_scan", op, out.phases_ms, [&] {
        return std::make_shared<const RegretEvaluator>(std::move(users));
      });
  Record(tracer, "regret.evaluator.pairs",
         static_cast<double>(spec.num_users) *
             static_cast<double>(dataset.size()));

  std::shared_ptr<const RegretMeasure> measure;
  if (spec.measure != "arr") {
    FAM_ASSIGN_OR_RETURN(measure, ParseMeasureSpec(spec.measure));
  }
  const bool measure_active =
      measure != nullptr && !measure->IsArrEquivalent();
  FAM_RETURN_IF_ERROR(ValidateMeasurePrune(measure.get(), spec.prune.mode));
  const bool monotone_for_prune =
      theta->MonotoneInAttributes() &&
      (!measure_active || measure->Traits().geometric_sound);

  if (spec.prune.mode != PruneMode::kOff) {
    Result<CandidateIndex> index = Phase(
        tracer, "regret.candidate_index.build", op, out.phases_ms, [&] {
          return CandidateIndex::Build(dataset, *out.evaluator, spec.prune,
                                       monotone_for_prune);
        });
    if (!index.ok()) return index.status();
    out.index = std::make_shared<const CandidateIndex>(*std::move(index));
    Record(tracer, "regret.candidate_index.keep_ratio",
           static_cast<double>(out.index->size()) /
               static_cast<double>(dataset.size()));
  }
  if (measure != nullptr) {
    out.context =
        Phase(tracer, "regret.measure.context", op, out.phases_ms,
              [&] { return BuildMeasureContext(measure, *out.evaluator); });
  }
  out.kernel =
      Phase(tracer, "regret.eval_kernel.tile_build", op, out.phases_ms, [&] {
        EvalKernelOptions options;
        if (out.index != nullptr) options.tile_columns = out.index->candidates();
        if (out.context != nullptr) {
          options.reference_values =
              out.context->KernelReference(*out.evaluator);
        }
        return std::make_shared<const EvalKernel>(out.evaluator, options);
      });
  Record(tracer, "regret.eval_kernel.tile_bytes",
         static_cast<double>(out.kernel->tile_bytes()));
  out.content_hash = Phase(tracer, "data.content_hash", op, out.phases_ms,
                           [&] { return dataset.ContentHash(); });
  return out;
}

bool CheckDecomposedParity(const DecomposedBuild& pieces,
                           const Workload& built, size_t k,
                           const SolveResponse& served, Checker& checker) {
  checker.Attempt();
  const RegretEvaluator& a = *pieces.evaluator;
  const RegretEvaluator& b = built.evaluator();
  if (a.best_in_db_values() != b.best_in_db_values() ||
      a.best_in_db_points() != b.best_in_db_points()) {
    checker.Fail("decomposed build: best-in-DB values/points differ");
    return false;
  }
  const std::vector<size_t> none;
  const std::vector<size_t>& mine =
      pieces.index != nullptr ? pieces.index->candidates() : none;
  const std::vector<size_t>& theirs = built.candidate_index() != nullptr
                                          ? built.candidate_index()->candidates()
                                          : none;
  if (mine != theirs) {
    checker.Fail("decomposed build: candidate lists differ");
    return false;
  }
  const bool measure_active = pieces.context != nullptr &&
                              !pieces.context->measure->IsArrEquivalent();
  GreedyGrowOptions options{.k = k};
  options.measure = measure_active ? pieces.context.get() : nullptr;
  options.candidates = pieces.index.get();
  options.kernel = pieces.kernel.get();
  Result<Selection> selection = GreedyGrow(a, options);
  if (!checker.Ok(selection.status(), "decomposed build: solve")) return false;
  // The engine reports a non-ratio measure's objective from the measure's
  // own scoring, not the solver's running value; compare like with like.
  const double objective =
      measure_active ? SelectionObjective(pieces.context.get(), a,
                                          selection->indices)
                     : selection->average_regret_ratio;
  if (selection->indices != served.selection.indices ||
      objective != served.selection.average_regret_ratio) {
    checker.Fail("decomposed build: solve differs from the built workload's");
    return false;
  }
  return true;
}

void TraceSetupBuild(const BuildSpec& spec, const Workload& served,
                     Service& service, Tracer& tracer, Checker& checker) {
  constexpr size_t kParityK = 10;
  const uint64_t op = tracer.NewOp();
  {
    Span span(&tracer, "geom.skyline", op);
    tracer.Record("geom.skyline_size",
                  static_cast<double>(SkylineIndices(*spec.dataset).size()));
  }
  checker.Attempt();
  const double build_start = NowSeconds();
  Result<Workload> built = [&] {
    Span span(&tracer, "fam.engine.build", op);
    return WorkloadBuilder()
        .WithDataset(spec.dataset)
        .WithNumUsers(spec.num_users)
        .WithSeed(spec.seed)
        .WithPruning(spec.prune)
        .WithMeasure(spec.measure)
        .Build();
  }();
  const double build_ms = (NowSeconds() - build_start) * 1e3;
  if (!checker.Ok(built.status(), "set-up rebuild")) return;

  Result<DecomposedBuild> pieces = BuildDecomposed(spec, &tracer, op);
  checker.Attempt();
  if (!checker.Ok(pieces.status(), "set-up decomposed build")) return;
  TimedSolve solve = SubmitAndWait(
      service, served, {.solver = "greedy-grow", .k = kParityK}, "ratio",
      nullptr, op);
  if (!checker.Ok(solve.response.status(), "set-up parity solve")) return;
  CheckDecomposedParity(*pieces, served, kParityK, *solve.response, checker);
  tracer.Record("fam.engine.phase_coverage", pieces->phases_ms / build_ms);
  tracer.Record("regret.evaluator.best_scan_share",
                tracer.DurationsMs("regret.evaluator.best_scan").back() /
                    build_ms);
}

}  // namespace fam::perfbench
