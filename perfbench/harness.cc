#include "harness.h"

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <unordered_set>

namespace fam::perfbench {

Sizes Sizes::Full() {
  Sizes s;
  s.cold_points = 100'000;
  s.cold_users = 2'000;
  s.serve_points = 50'000;
  s.serve_users = 5'000;
  s.serve_small_points = 1'000;
  s.serve_small_users = 500;
  s.churn_points = 100'000;
  s.churn_users = 2'000;
  s.churn_insert_batch = 400;
  s.churn_delete_batch = 400;
  s.probe_points = 1'000;
  s.probe_users = 500;
  s.setup_repeats = 3;
  s.digest_ops = 3;
  return s;
}

Sizes Sizes::Toy() {
  Sizes s;
  s.cold_points = 4'000;
  s.cold_users = 200;
  s.serve_points = 2'000;
  s.serve_users = 300;
  s.serve_small_points = 200;
  s.serve_small_users = 100;
  s.churn_points = 3'000;
  s.churn_users = 200;
  s.churn_insert_batch = 40;
  s.churn_delete_batch = 40;
  s.probe_points = 200;
  s.probe_users = 100;
  s.setup_repeats = 2;
  s.digest_ops = 3;
  return s;
}

uint64_t DeriveSeed(uint64_t run_seed, std::string_view tag, uint64_t index) {
  Fnv64 h;
  h.U64(run_seed);
  h.String(tag);
  h.U64(index);
  return h.hash();
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return std::nan("");
  std::sort(values.begin(), values.end());
  const double pos = p * static_cast<double>(values.size() - 1);
  const size_t lo = static_cast<size_t>(std::floor(pos));
  const size_t hi = std::min(lo + 1, values.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- Tracer ----------------------------------------------------------------

namespace {
int64_t SteadyNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Spans open on this thread, innermost last: the parent of a new span.
thread_local std::vector<uint32_t> open_spans;

void AppendEscaped(std::string& out, std::string_view text) {
  out += '"';
  for (char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  out += '"';
}
}  // namespace

Tracer::Tracer() : origin_ns_(SteadyNs()) {}

int64_t Tracer::Now() const { return SteadyNs() - origin_ns_; }

uint32_t Tracer::Begin(std::string_view name, uint64_t op) {
  SpanRecord record;
  record.name = std::string(name);
  record.parent = open_spans.empty() ? 0 : open_spans.back();
  record.op = op;
  uint32_t id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(record));
    id = static_cast<uint32_t>(spans_.size());
    spans_.back().start_ns = Now();
  }
  open_spans.push_back(id);
  return id;
}

void Tracer::End(uint32_t id) {
  const int64_t now = Now();
  if (!open_spans.empty() && open_spans.back() == id) open_spans.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end_ns = now;
}

void Tracer::Record(std::string_view name, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  values_.emplace_back(std::string(name), value);
}

std::vector<double> Tracer::DurationsMs(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const SpanRecord& span : spans_) {
    if (span.name == name && span.end_ns >= 0) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns) * 1e-6);
    }
  }
  return out;
}

std::vector<double> Tracer::Values(std::string_view name) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  for (const auto& [key, value] : values_) {
    if (key == name) out.push_back(value);
  }
  return out;
}

size_t Tracer::span_count() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

void Tracer::AppendJson(std::string& out) const {
  std::lock_guard<std::mutex> lock(mu_);
  out += "\"spans\":[";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const SpanRecord& span = spans_[i];
    if (i > 0) out += ',';
    out += "{\"id\":" + std::to_string(i + 1) + ",\"name\":";
    AppendEscaped(out, span.name);
    out += ",\"parent\":" + std::to_string(span.parent) +
           ",\"op\":" + std::to_string(span.op) +
           ",\"start_ns\":" + std::to_string(span.start_ns) +
           ",\"end_ns\":" + std::to_string(span.end_ns) + "}";
  }
  out += "],\"values\":[";
  for (size_t i = 0; i < values_.size(); ++i) {
    if (i > 0) out += ',';
    out += '[';
    AppendEscaped(out, values_[i].first);
    char buffer[40];
    std::snprintf(buffer, sizeof(buffer), ",%.17g]", values_[i].second);
    out += buffer;
  }
  out += ']';
}

Span::Span(Tracer* tracer, std::string_view name, uint64_t op)
    : tracer_(tracer) {
  if (tracer_ != nullptr) id_ = tracer_->Begin(name, op);
}

Span::~Span() {
  if (tracer_ != nullptr) tracer_->End(id_);
}

// --- Checks ---------------------------------------------------------------

void Checker::Fail(std::string_view what) {
  const uint64_t failures = failed_.fetch_add(1) + 1;
  if (failures <= 10) {
    std::fprintf(stderr, "perfbench: FAILED %.*s\n",
                 static_cast<int>(what.size()), what.data());
  }
}

bool Checker::Ok(const Status& status, std::string_view what) {
  if (status.ok()) return true;
  Fail(std::string(what) + ": " + status.ToString());
  return false;
}

bool Checker::CheckSolve(const Workload& workload, size_t k,
                         SolveResponse response, std::string_view what) {
  Attempt();
  std::vector<size_t>& indices = response.selection.indices;
  if (checked_solves_.fetch_add(1) == inject_wrong_ && !indices.empty()) {
    indices[0] ^= 1;  // the self-test's deliberately wrong answer
  }
  std::string problem;
  if (response.truncated) problem = "truncated";
  if (indices.size() != k) problem = "selection size != k";
  std::unordered_set<size_t> seen;
  for (size_t p : indices) {
    if (p >= workload.size() || !seen.insert(p).second) {
      problem = "index out of range or repeated";
    }
  }
  if (problem.empty()) {
    const double rescored =
        workload.measure_context() == nullptr
            ? workload.evaluator().AverageRegretRatio(indices)
            : SelectionObjective(workload.measure_context(),
                                 workload.evaluator(), indices);
    if (rescored != response.selection.average_regret_ratio) {
      char buffer[96];
      std::snprintf(buffer, sizeof(buffer), "objective %.17g != %.17g",
                    response.selection.average_regret_ratio, rescored);
      problem = buffer;
    }
  }
  if (problem.empty()) return true;
  Fail(std::string(what) + ": " + problem);
  return false;
}

void Digest::AddSelection(const Selection& selection) {
  hash_.U64(selection.indices.size());
  for (size_t p : selection.indices) hash_.U64(p);
  hash_.Double(selection.average_regret_ratio);
}

void Digest::AddWorkload(const Workload& workload) {
  const RegretEvaluator& evaluator = workload.evaluator();
  for (double v : evaluator.best_in_db_values()) hash_.Double(v);
  for (size_t p : evaluator.best_in_db_points()) hash_.U64(p);
  const CandidateIndex* index = workload.candidate_index();
  hash_.U64(index != nullptr ? index->size() : 0);
  if (index != nullptr) {
    for (size_t p : index->candidates()) hash_.U64(p);
  }
}

// --- Serving ---------------------------------------------------------------

TimedSolve SubmitAndWait(Service& service, const Workload& workload,
                         const SolveRequest& request,
                         std::string_view measure_class, Tracer* tracer,
                         uint64_t op) {
  TimedSolve out;
  const double start = NowSeconds();
  Result<JobHandle> handle = [&] {
    Span span(tracer, "fam.service.submit", op);
    return service.Submit(workload, request);
  }();
  if (!handle.ok()) {
    out.response = handle.status();
  } else {
    Span span(tracer, "fam.service.wait", op);
    out.response = handle->Wait();
  }
  out.client_ms = (NowSeconds() - start) * 1e3;
  if (tracer == nullptr || !out.response.ok()) return out;

  std::string solver = request.solver;
  std::replace(solver.begin(), solver.end(), '-', '_');
  const double query_ms = out.response->query_seconds * 1e3;
  tracer->Record("core." + solver + "." + std::string(measure_class) +
                     ".query_ms",
                 query_ms);
  tracer->Record("fam.service.wait_ms", out.client_ms - query_ms);
  for (const SolverCounter& counter : out.response->counters) {
    if (counter.name == "kernel_batch_gain_ns" ||
        counter.name == "kernel_batch_gain_elements") {
      tracer->Record(counter.name, counter.value);
    } else if (counter.name == "kernel_lazy_queue_hits" ||
               counter.name == "kernel_lazy_queue_reevaluations") {
      tracer->Record("core." + solver + "." + counter.name, counter.value);
    }
  }
  return out;
}

// --- Report ----------------------------------------------------------------

double ClassPercentile(const ClassedSamples& samples, double p) {
  double log_sum = 0.0;
  for (const auto& [name, values] : samples) {
    log_sum += std::log(Percentile(values, p));
  }
  return samples.empty()
             ? std::nan("")
             : std::exp(log_sum / static_cast<double>(samples.size()));
}

void ReportEndToEnd(const EndToEnd& e2e, RunReport& report) {
  std::string counts;
  size_t ops = 0;
  for (const ClassedSamples* samples : {&e2e.op_ms, &e2e.op2_ms}) {
    counts += samples == &e2e.op_ms ? "op" : "; op2";
    for (const auto& [name, values] : *samples) {
      counts += " " + name + "=" + std::to_string(values.size());
      ops += values.size();
    }
  }
  report.Add("setup_s", "s", Median(e2e.setup_s));
  report.Add("peak_rss_mb", "MB", e2e.setup_rss_mb);
  report.Add("op_ms_p50", "ms", ClassPercentile(e2e.op_ms, 0.5));
  report.Add("op_ms_p90", "ms", ClassPercentile(e2e.op_ms, 0.9));
  report.Add("op2_ms_p50", "ms", ClassPercentile(e2e.op2_ms, 0.5));
  report.Add("ops_per_s", "1/s", static_cast<double>(ops) / e2e.window_s);
  report.notes.push_back("samples: setup " + std::to_string(e2e.setup_s.size()) +
                         "; " + counts + "; window " +
                         std::to_string(e2e.window_s) + " s");
}

}  // namespace fam::perfbench
