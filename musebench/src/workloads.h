#ifndef MUSEBENCH_WORKLOADS_H_
#define MUSEBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/cep/event.h"
#include "src/cep/query.h"
#include "src/net/network.h"

namespace musebench {

/// Trace length of a workload: the measured size, or a tiny one for the
/// benchmark's own self-test.
enum class Size { kFull, kShort };

/// Everything a measured process needs to set up one workload: the spec
/// (network + queries), the generated trace, and the load model the
/// orchestrator applies to it. A pure function of (name, seed, size).
struct Inputs {
  std::string name;
  muse::Network network{1, 1};
  std::vector<muse::Query> workload;
  std::vector<muse::Event> trace;

  /// Longest query window and the trace's span, in virtual ms.
  uint64_t window_ms = 0;
  uint64_t duration_ms = 0;
  /// Injectable trace events (those some deployed task consumes) per
  /// virtual second; set once the deployment is known (SetTraceRate).
  double trace_eps = 0;
  /// Offered rate of the nominal-rate runs (events/s, wall clock).
  double nominal_eps = 0;
  /// Latency limit on p99_ms a max_eps probe must meet (wall ms).
  double p99_limit_ms = 0;
  /// Seed of the planning instance (network and queries) when it is fixed
  /// independently of the workload seed, which then drives only the
  /// trace; 0 when the spec does not depend on a seed.
  uint64_t instance_seed = 0;
};

/// Builds the inputs of `name` from `seed`. Returns false for an unknown
/// name.
bool MakeInputs(const std::string& name, uint64_t seed, Size size,
                Inputs* out);

/// Wall-clock lateness every run tolerates before an input counts as late:
/// the eviction slack of a run at offered rate r is this tolerance times
/// the speed-up r / trace_eps, in virtual ms. The same wall tolerance at
/// every probe rate keeps the slack contract comparable across rates. It
/// must outlast the longest stall a shared host imposes on a run at the
/// nominal rate (100 ms lost matches on a 4-vCPU VM under CPU steal).
inline constexpr double kSlackToleranceMs = 300.0;

/// Sets `in->trace_eps` from the number of injectable events.
void SetTraceRate(uint64_t injectable_events, Inputs* in);

/// Eviction slack in virtual ms for a run offered at `offered_eps`.
uint64_t SlackForRate(const Inputs& in, double offered_eps);

}  // namespace musebench

#endif  // MUSEBENCH_WORKLOADS_H_
