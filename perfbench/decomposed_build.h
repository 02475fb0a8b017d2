// A workload build split into its layers' public calls, in the order
// WorkloadBuilder::Build makes them, with one span per phase. The traced
// runs use it to attribute a cold build to data → utility → regret
// (evaluator, candidate_index, measure, eval_kernel), and check that the
// pieces are bit-identical to what Build produces on the same inputs —
// the phase numbers describe the program only if they describe the same
// computation.

#ifndef FAM_PERFBENCH_DECOMPOSED_BUILD_H_
#define FAM_PERFBENCH_DECOMPOSED_BUILD_H_

#include <memory>
#include <string>

#include "harness.h"

namespace fam::perfbench {

/// The inputs of one linear-Θ workload (simplex-uniform users).
struct BuildSpec {
  std::shared_ptr<const Dataset> dataset;
  size_t num_users = 0;
  uint64_t seed = 0;
  PruneOptions prune = {.mode = PruneMode::kAuto};
  std::string measure = "arr";

  WorkloadSpec ToServiceSpec() const;
};

struct DecomposedBuild {
  std::shared_ptr<const RegretEvaluator> evaluator;
  std::shared_ptr<const CandidateIndex> index;  // null when pruning is off
  std::shared_ptr<const MeasureContext> context;  // null for arr
  std::shared_ptr<const EvalKernel> kernel;
  uint64_t content_hash = 0;
  /// Σ of the phase wall times.
  double phases_ms = 0.0;
};

/// Runs the build phase by phase, recording a span per phase (under a
/// "fam.engine.decomposed_build" parent) plus the scan's pair count, the
/// candidate keep ratio, and the tile bytes.
Result<DecomposedBuild> BuildDecomposed(const BuildSpec& spec, Tracer* tracer,
                                        uint64_t op);

/// Requires `pieces` to match `built` bit for bit: best-in-DB values and
/// points, the candidate list, and a greedy-grow solve of size `k` run
/// directly on the pieces against the same request served from `built`
/// (`served`). Counts one attempted op.
bool CheckDecomposedParity(const DecomposedBuild& pieces,
                           const Workload& built, size_t k,
                           const SolveResponse& served, Checker& checker);

/// Per-phase spans in the traced runs of workloads whose builds happen in
/// set-up: times a standalone skyline of `spec`'s dataset and a
/// WorkloadBuilder::Build of `spec` (the phase-coverage base), builds it
/// again layer by layer, checks the pieces against `served` (the set-up's
/// workload for `spec`, solved through `service`), and records the phase
/// coverage and the best-scan share of the Build wall time.
void TraceSetupBuild(const BuildSpec& spec, const Workload& served,
                     Service& service, Tracer& tracer, Checker& checker);

}  // namespace fam::perfbench

#endif  // FAM_PERFBENCH_DECOMPOSED_BUILD_H_
