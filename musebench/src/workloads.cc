#include "musebench/src/workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "src/common/rng.h"
#include "src/net/network_gen.h"
#include "src/net/trace.h"
#include "src/workload/cluster_trace.h"
#include "src/workload/query_gen.h"
#include "src/workload/selectivity_model.h"
#include "src/workload/spec.h"

namespace musebench {
namespace {

using muse::Rng;

/// The paper's Table 3 setting: the synthetic cluster-monitoring trace on
/// 20 nodes with Query 1 (SEQ on the task id) and Query 2 (AND on the job
/// id). The paper's 30 min window is shortened to 30 s so the trace spans
/// 20 windows, and troubled tasks are made 40x more likely than the
/// generator's default so a run yields enough matches to support p99.
/// The network rates and predicate selectivities come from a calibration
/// trace of the Table 3 bench's seed, so every workload seed runs the same
/// plan; the workload seed drives the executed trace.
constexpr uint64_t kCaseStudyInstanceSeed = 731;

void MakeCaseStudy(uint64_t seed, Size size, Inputs* in) {
  muse::ClusterTraceOptions opts;
  opts.duration_ms = size == Size::kFull ? 600'000 : 60'000;
  opts.window_ms = size == Size::kFull ? 30'000 : 3'000;
  opts.troubled_probability = 0.02;
  Rng calibration_rng(kCaseStudyInstanceSeed);
  const muse::ClusterTrace calibration =
      muse::GenerateClusterTrace(opts, calibration_rng);
  in->network = calibration.network;
  in->workload = {calibration.MakeQuery1(), calibration.MakeQuery2()};
  in->instance_seed = kCaseStudyInstanceSeed;
  Rng rng(seed);
  in->trace = muse::GenerateClusterTrace(opts, rng).events;
  in->window_ms = opts.window_ms;
  in->duration_ms = opts.duration_ms;
  in->nominal_eps = 10'000;
  in->p99_limit_ms = 50;
}

/// The robots spec of the paper's Fig. 1, made dense: camera and lidar at
/// 400 ev/s per robot, floor clearance at 20 and an obstacle flag X at 40.
/// Unary `% m == 0` filters drop most events before the join, and the
/// NSEQ query holds every candidate until the slack has passed.
constexpr const char* kFilterNseqSpec = R"(nodes 3
rate C 400
rate L 400
rate F 20
rate X 40
produce 0 C F X
produce 1 C L X
produce 2 L F X
selectivity C L 0.1
selectivity C F 0.1
selectivity L F 0.1
query SEQ(AND(C c, L l), F f) WHERE c.a0 == l.a0 AND l.a0 == f.a0 AND c.a1 % 2 == 0 AND l.a1 % 2 == 0 WITHIN 200ms
query NSEQ(C c, X x, F f) WHERE c.a0 == f.a0 AND x.a1 % 8 == 0 WITHIN 100ms
)";

void MakeFilterNseq(uint64_t seed, Size size, Inputs* in) {
  muse::Result<muse::DeploymentSpec> spec =
      muse::ParseDeploymentSpec(kFilterNseqSpec);
  if (!spec.ok()) {
    std::fprintf(stderr, "filter_nseq spec: %s\n",
                 spec.error().message.c_str());
    std::abort();
  }
  in->network = spec.value().network;
  in->workload = spec.value().workload;
  muse::TraceOptions topts;
  topts.duration_ms = size == Size::kFull ? 36'000 : 3'000;
  Rng rng(seed);
  in->trace = muse::GenerateGlobalTrace(in->network, topts, rng);
  in->duration_ms = topts.duration_ms;
  in->nominal_eps = 40'000;
  in->p99_limit_ms = 50;
}

/// The Fig. 7 workload-size instance at 10 queries (seed 703): 20 nodes,
/// 15 types, event-node ratio 0.5, rate skew 1.5, selectivities in
/// [0.01, 0.2], 6 primitives per query on average. The whole instance,
/// trace included, is fixed; the workload seed drives only the arrival
/// schedule. Another instance per seed would plan in anything from one to
/// tens of seconds, and the 6-way skip-till-any-match patterns make the
/// match count of a trace swing with its seed (one query emits 80% of the
/// matches). The window is 500 ms instead of 30 s: the planner's cost
/// model does not read the window (the plan is byte-identical), and 30 s
/// windows over these patterns would emit matches without bound.
constexpr uint64_t kFig7InstanceSeed = 703;

void MakePlanFig7(uint64_t seed, Size size, Inputs* in) {
  Rng rng(kFig7InstanceSeed);
  muse::NetworkGenOptions nopts;
  nopts.num_nodes = 20;
  nopts.num_types = 15;
  nopts.event_node_ratio = 0.5;
  nopts.rate_skew = 1.5;
  in->network = muse::MakeRandomNetwork(nopts, rng);
  muse::SelectivityModel model(nopts.num_types, 0.01, 0.2, rng);
  muse::QueryGenOptions qopts;
  qopts.num_queries = 10;
  qopts.avg_primitives = 6;
  qopts.num_types = nopts.num_types;
  qopts.window_ms = 500;
  in->workload = muse::GenerateWorkload(qopts, model, rng);
  in->window_ms = qopts.window_ms;
  in->instance_seed = kFig7InstanceSeed;

  (void)seed;  // RtOptions::source_seed draws the arrivals from it
  muse::TraceOptions topts;
  topts.duration_ms = size == Size::kFull ? 20'000 : 2'000;
  in->trace = muse::GenerateGlobalTrace(in->network, topts, rng);
  in->duration_ms = topts.duration_ms;
  in->nominal_eps = 20'000;
  in->p99_limit_ms = 50;
}

}  // namespace

bool MakeInputs(const std::string& name, uint64_t seed, Size size,
                Inputs* out) {
  out->name = name;
  if (name == "casestudy") {
    MakeCaseStudy(seed, size, out);
  } else if (name == "filter_nseq") {
    MakeFilterNseq(seed, size, out);
  } else if (name == "plan_fig7") {
    MakePlanFig7(seed, size, out);
  } else {
    return false;
  }
  if (out->window_ms == 0) {
    for (const muse::Query& q : out->workload) {
      out->window_ms = std::max(out->window_ms, q.window());
    }
  }
  return true;
}

void SetTraceRate(uint64_t injectable_events, Inputs* in) {
  in->trace_eps = in->duration_ms > 0
                      ? static_cast<double>(injectable_events) * 1000.0 /
                            static_cast<double>(in->duration_ms)
                      : 0;
}

uint64_t SlackForRate(const Inputs& in, double offered_eps) {
  const double speedup = in.trace_eps > 0 ? offered_eps / in.trace_eps : 1;
  return static_cast<uint64_t>(
      std::ceil(kSlackToleranceMs * std::max(1.0, speedup)));
}

}  // namespace musebench
