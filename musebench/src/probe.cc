// musebench_probe: one measured process of the muse-bench benchmark.
//
// run.py starts a fresh probe process for every measurement, so no run
// inherits the heap of another (RSS grows across RtRuntime runs in one
// process). Every mode rebuilds the workload's inputs from the seed, does
// one kind of measurement by calling the layers' public functions, and
// prints one JSON object on stdout. The layers are only observed from
// outside: wall time around their calls, getrusage, the RtReport registry
// and the trace log.
//
//   musebench_probe setup     --workload W --seed S --plan P [--reps K]
//       K times: WorkloadCatalogs + PlanWorkloadAmuse(PlannerOptions{}) +
//       Deployment + RtRuntime constructor. Writes the plan JSON to P.
//   musebench_probe reference --workload W --seed S --plan P [--layers 1]
//       In-order single-thread WorkloadEngine replay (the reference), the
//       oracle cross-check on short slices; with --layers also the
//       DistributedSimulator run and the wire and transport micro-timings.
//   musebench_probe rt        --workload W --seed S --plan P --rate R
//                             [--trace-sample N] [--collect 1]
//       One RtRuntime run paced at R events/s by its own source driver.
//
// Common flags: --short 1 builds the self-test size of the workload.

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "musebench/src/workloads.h"
#include "src/cep/engine.h"
#include "src/cep/oracle.h"
#include "src/common/rng.h"
#include "src/core/multi_query.h"
#include "src/core/plan_json.h"
#include "src/dist/deployment.h"
#include "src/dist/simulator.h"
#include "src/obs/trace.h"
#include "src/rt/runtime.h"
#include "src/rt/transport.h"
#include "src/rt/wire.h"

namespace musebench {
namespace {

using Clock = std::chrono::steady_clock;

double Seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// --- output ---------------------------------------------------------------

/// Minimal JSON object writer: keys in insertion order, numbers with all
/// their digits.
class Json {
 public:
  Json& Num(const std::string& key, double v) {
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return Raw(key, buf);
  }
  Json& Int(const std::string& key, uint64_t v) {
    return Raw(key, std::to_string(v));
  }
  Json& Bool(const std::string& key, bool v) {
    return Raw(key, v ? "true" : "false");
  }
  Json& Str(const std::string& key, const std::string& v) {
    return Raw(key, Quote(v));
  }
  Json& Raw(const std::string& key, const std::string& json) {
    out_ << (first_ ? "" : ", ") << Quote(key) << ": " << json;
    first_ = false;
    return *this;
  }
  std::string Done() const { return "{" + out_.str() + "}"; }

  static std::string Quote(const std::string& s) {
    std::string q = "\"";
    for (char c : s) {
      if (c == '"' || c == '\\') {
        q += '\\';
        q += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        q += ' ';
      } else {
        q += c;
      }
    }
    return q + "\"";
  }

 private:
  std::ostringstream out_;
  bool first_ = true;
};

std::string NumList(const std::vector<double>& v) {
  std::string s = "[";
  char buf[64];
  for (size_t i = 0; i < v.size(); ++i) {
    std::snprintf(buf, sizeof(buf), "%.17g", v[i]);
    s += (i ? ", " : "") + std::string(buf);
  }
  return s + "]";
}

std::string IntList(const std::vector<uint64_t>& v) {
  std::string s = "[";
  for (size_t i = 0; i < v.size(); ++i) {
    s += (i ? ", " : "") + std::to_string(v[i]);
  }
  return s + "]";
}

/// The benchmark's own spans: one per layer call it times, with its
/// parent, on this process's steady clock. run.py merges them with the
/// other processes' spans into one Chrome/Perfetto trace per run.
class SpanLog {
 public:
  SpanLog() : epoch_(Clock::now()) {}

  /// Opens a span; returns its index for End().
  int Begin(const std::string& name) {
    spans_.push_back({name, NowUs(), 0, stack_.empty() ? -1 : stack_.back()});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void End(int idx) {
    spans_[static_cast<size_t>(idx)].dur_us =
        NowUs() - spans_[static_cast<size_t>(idx)].start_us;
    if (!stack_.empty() && stack_.back() == idx) stack_.pop_back();
  }

  std::string ToJson() const {
    std::string s = "[";
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& sp = spans_[i];
      s += (i ? ", " : "") + std::string("[") + Json::Quote(sp.name) + ", " +
           std::to_string(sp.start_us) + ", " + std::to_string(sp.dur_us) +
           ", " + std::to_string(sp.parent) + "]";
    }
    return s + "]";
  }

 private:
  struct Span {
    std::string name;
    uint64_t start_us;
    uint64_t dur_us;
    int parent;
  };
  uint64_t NowUs() const {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                              epoch_)
            .count());
  }

  Clock::time_point epoch_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

SpanLog& Spans() {
  static SpanLog log;
  return log;
}

/// RAII span around one timed layer call.
class Scoped {
 public:
  explicit Scoped(const std::string& name) : idx_(Spans().Begin(name)) {}
  ~Scoped() { Spans().End(idx_); }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  int idx_;
};

double CpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) / 1e6;
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // Linux: KiB
}

// --- arguments --------------------------------------------------------------

struct Args {
  std::string mode;
  std::string workload;
  uint64_t seed = 1;
  std::string plan_path;
  int reps = 1;
  bool layers = false;
  double rate = 0;
  uint64_t trace_sample = 0;
  bool collect = false;
  bool short_size = false;
};

bool ParseArgs(int argc, char** argv, Args* a) {
  if (argc < 2) return false;
  a->mode = argv[1];
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string k = argv[i];
    const char* v = argv[i + 1];
    if (k == "--workload") {
      a->workload = v;
    } else if (k == "--seed") {
      a->seed = std::strtoull(v, nullptr, 10);
    } else if (k == "--plan") {
      a->plan_path = v;
    } else if (k == "--reps") {
      a->reps = std::max(1, std::atoi(v));
    } else if (k == "--layers") {
      a->layers = std::atoi(v) != 0;
    } else if (k == "--rate") {
      a->rate = std::strtod(v, nullptr);
    } else if (k == "--trace-sample") {
      a->trace_sample = std::strtoull(v, nullptr, 10);
    } else if (k == "--collect") {
      a->collect = std::atoi(v) != 0;
    } else if (k == "--short") {
      a->short_size = std::atoi(v) != 0;
    } else {
      std::fprintf(stderr, "unknown flag %s\n", k.c_str());
      return false;
    }
  }
  return !a->workload.empty() && !a->plan_path.empty();
}

// --- shared set-up ----------------------------------------------------------

/// Source events the runtime's driver injects (and paces): those some
/// deployed primitive task consumes at their origin node.
uint64_t InjectableEvents(const muse::Deployment& dep,
                          const std::vector<muse::Event>& trace) {
  uint64_t n = 0;
  for (const muse::Event& e : trace) {
    if (!dep.PrimitiveTasksFor(e.origin, e.type).empty()) ++n;
  }
  return n;
}

/// The runtime configuration every rt run shares; only the offered rate,
/// and with it the slack, differs between runs.
muse::rt::RtOptions RtOptionsFor(const Inputs& in, double rate,
                                 uint64_t seed) {
  muse::rt::RtOptions opts;
  const long nproc = sysconf(_SC_NPROCESSORS_ONLN);
  // Workers plus the source driver never exceed the cores.
  opts.num_threads = static_cast<int>(std::max<long>(1, nproc - 1));
  opts.source_rate_eps = rate;
  opts.source_seed = seed;
  opts.eval.eviction_slack_ms = SlackForRate(in, rate);
  opts.collect_matches = false;
  return opts;
}

/// A loaded workload: inputs, catalogs and the deployment of the plan the
/// setup process wrote.
struct Loaded {
  Inputs in;
  std::unique_ptr<muse::WorkloadCatalogs> catalogs;
  std::unique_ptr<muse::Deployment> dep;
  uint64_t injectable = 0;
};

bool Load(const Args& a, Loaded* l) {
  {
    Scoped s("generate_inputs");
    if (!MakeInputs(a.workload, a.seed,
                    a.short_size ? Size::kShort : Size::kFull, &l->in)) {
      std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
      return false;
    }
  }
  std::ifstream f(a.plan_path);
  std::stringstream buf;
  buf << f.rdbuf();
  muse::Result<muse::MuseGraph> plan = muse::PlanFromJson(buf.str());
  if (!plan.ok()) {
    std::fprintf(stderr, "cannot load plan %s: %s\n", a.plan_path.c_str(),
                 plan.error().message.c_str());
    return false;
  }
  Scoped s("load_plan");
  l->catalogs =
      std::make_unique<muse::WorkloadCatalogs>(l->in.workload, l->in.network);
  l->dep = std::make_unique<muse::Deployment>(plan.value(),
                                              l->catalogs->Pointers());
  l->injectable = InjectableEvents(*l->dep, l->in.trace);
  SetTraceRate(l->injectable, &l->in);
  return true;
}

/// Order-independent identity of a canonical match set.
uint64_t SetFingerprint(const std::vector<muse::Match>& matches) {
  uint64_t h = 0;
  for (const muse::Match& m : matches) h += m.Fingerprint();
  return h;
}

// --- setup ------------------------------------------------------------------

int RunSetup(const Args& a) {
  Inputs in;
  {
    Scoped s("generate_inputs");
    if (!MakeInputs(a.workload, a.seed,
                    a.short_size ? Size::kShort : Size::kFull, &in)) {
      std::fprintf(stderr, "unknown workload %s\n", a.workload.c_str());
      return 2;
    }
  }
  std::vector<double> setup_s, catalog_s, plan_s, select_s, enumerate_s,
      construct_s, par_eval_s;
  std::vector<uint64_t> constructed, discarded, lb_rejections, wasted;
  std::string plan_json;
  bool plan_stable = true;
  double ratio = 0;
  int tasks = 0;
  uint64_t injectable = 0;
  for (int r = 0; r < a.reps; ++r) {
    Scoped rep("setup");
    const Clock::time_point t0 = Clock::now();
    std::unique_ptr<muse::WorkloadCatalogs> catalogs;
    {
      Scoped s("core.WorkloadCatalogs");
      catalogs = std::make_unique<muse::WorkloadCatalogs>(in.workload,
                                                          in.network);
    }
    const Clock::time_point t1 = Clock::now();
    muse::WorkloadPlan wp;
    {
      Scoped s("core.PlanWorkloadAmuse");
      wp = muse::PlanWorkloadAmuse(*catalogs, muse::PlannerOptions{});
    }
    const Clock::time_point t2 = Clock::now();
    std::unique_ptr<muse::Deployment> dep;
    {
      Scoped s("dist.Deployment");
      dep = std::make_unique<muse::Deployment>(wp.combined,
                                               catalogs->Pointers());
    }
    {
      Scoped s("rt.RtRuntime");
      muse::rt::RtRuntime runtime(*dep,
                                  RtOptionsFor(in, in.nominal_eps, a.seed));
      (void)runtime;
    }
    const Clock::time_point t3 = Clock::now();
    // The benchmark's own bookkeeping, outside the timed set-up.
    injectable = InjectableEvents(*dep, in.trace);
    SetTraceRate(injectable, &in);
    setup_s.push_back(Seconds(t0, t3));
    catalog_s.push_back(Seconds(t0, t1));
    plan_s.push_back(Seconds(t1, t2));
    const muse::PlannerStats& st = wp.aggregate_stats;
    select_s.push_back(st.select_seconds);
    enumerate_s.push_back(st.enumerate_seconds);
    construct_s.push_back(st.construct_seconds);
    par_eval_s.push_back(st.par_eval_seconds);
    constructed.push_back(static_cast<uint64_t>(st.graphs_constructed));
    discarded.push_back(static_cast<uint64_t>(st.graphs_discarded));
    lb_rejections.push_back(static_cast<uint64_t>(st.lb_rejections));
    wasted.push_back(static_cast<uint64_t>(st.par_wasted_evals));
    const std::string json = muse::PlanToJson(wp.combined);
    if (r > 0 && json != plan_json) plan_stable = false;
    plan_json = json;
    ratio = wp.transmission_ratio;
    tasks = dep->num_tasks();
  }
  std::ofstream out(a.plan_path);
  out << plan_json;
  out.close();
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", a.plan_path.c_str());
    return 2;
  }

  Json j;
  j.Str("mode", "setup")
      .Raw("setup_s", NumList(setup_s))
      .Raw("catalog_s", NumList(catalog_s))
      .Raw("plan_s", NumList(plan_s))
      .Raw("select_s", NumList(select_s))
      .Raw("enumerate_s", NumList(enumerate_s))
      .Raw("construct_s", NumList(construct_s))
      .Raw("par_eval_cpu_s", NumList(par_eval_s))
      .Raw("graphs_constructed", IntList(constructed))
      .Raw("graphs_discarded", IntList(discarded))
      .Raw("lb_rejections", IntList(lb_rejections))
      .Raw("par_wasted_evals", IntList(wasted))
      .Bool("plan_stable", plan_stable)
      .Num("transmission_ratio", ratio)
      .Int("tasks", static_cast<uint64_t>(tasks))
      .Int("queries", in.workload.size())
      .Int("trace_events", in.trace.size())
      .Int("injectable_events", injectable)
      .Num("trace_eps", in.trace_eps)
      .Int("duration_ms", in.duration_ms)
      .Int("window_ms", in.window_ms)
      .Num("nominal_eps", in.nominal_eps)
      .Num("p99_limit_ms", in.p99_limit_ms)
      .Int("instance_seed", in.instance_seed)
      .Num("slack_tolerance_ms", kSlackToleranceMs)
      .Int("nominal_slack_ms", SlackForRate(in, in.nominal_eps));
  std::vector<uint64_t> nseq;
  for (size_t q = 0; q < in.workload.size(); ++q) {
    if (in.workload[q].ContainsNegation()) nseq.push_back(q);
  }
  j.Raw("nseq_queries", IntList(nseq));
#if defined(__GNUC__) && !defined(__clang__)
  j.Str("compiler", "gcc " __VERSION__);
#else
  j.Str("compiler", __VERSION__);
#endif
  j.Str("build_type", MUSEBENCH_BUILD_TYPE);
  j.Raw("spans", Spans().ToJson());
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

// --- reference and layers ---------------------------------------------------

/// Replays `trace` in order through one WorkloadEngine: the matches per
/// query, in emission order.
std::vector<std::vector<muse::Match>> Replay(
    const std::vector<muse::Query>& workload,
    const std::vector<muse::Event>& trace) {
  muse::WorkloadEngine engine(workload);
  std::vector<std::vector<muse::Match>> out(workload.size());
  for (const muse::Event& e : trace) engine.OnEvent(e, &out);
  engine.Flush(&out);
  return out;
}

/// Cross-checks the engine against the brute-force oracle of
/// src/cep/oracle.h on one short slice per query: the events of the
/// query's first reference match plus the other events of its types that
/// lie between them, up to kSliceEvents (the first kSliceEvents events of
/// its types when it has no match). Returns the slices that agree.
constexpr size_t kSliceEvents = 14;

int OracleCheck(const Inputs& in,
                const std::vector<std::vector<muse::Match>>& reference,
                uint64_t* oracle_matches) {
  int agree = 0;
  for (size_t q = 0; q < in.workload.size(); ++q) {
    const muse::Query& query = in.workload[q];
    const muse::TypeSet types = query.PrimitiveTypes();
    std::vector<muse::Event> slice;
    uint64_t first = 0, last = UINT64_MAX;
    if (!reference[q].empty()) {
      const muse::Match& m = reference[q].front();
      slice = m.events;
      first = m.FirstSeq();
      last = m.LastSeq();
    }
    for (const muse::Event& e : in.trace) {
      if (slice.size() >= kSliceEvents || e.seq > last) break;
      const bool in_match =
          std::any_of(slice.begin(), slice.end(),
                      [&](const muse::Event& s) { return s.seq == e.seq; });
      if (e.seq >= first && types.Contains(e.type) && !in_match) {
        slice.push_back(e);
      }
    }
    std::sort(slice.begin(), slice.end(),
              [](const muse::Event& a, const muse::Event& b) {
                return a.seq < b.seq;
              });
    std::vector<muse::Match> oracle =
        muse::CanonicalMatchSet(muse::OracleMatches(query, slice));
    *oracle_matches += oracle.size();
    if (muse::CanonicalMatchSet(Replay({query}, slice)[0]) == oracle) ++agree;
  }
  return agree;
}

/// Sum of a counter family over all its label sets.
uint64_t SumCounter(const muse::obs::MetricsRegistry& reg,
                    const std::string& name) {
  uint64_t total = 0;
  for (const auto& e : reg.Entries()) {
    if (e.name == name && e.counter != nullptr) total += e.counter->Value();
  }
  return total;
}

/// Max of a gauge family's peaks over all its label sets.
double MaxGauge(const muse::obs::MetricsRegistry& reg,
                const std::string& name) {
  double m = 0;
  for (const auto& e : reg.Entries()) {
    if (e.name == name && e.gauge != nullptr) {
      m = std::max({m, e.gauge->Value(), e.gauge->Max()});
    }
  }
  return m;
}

/// Runs `body` repeatedly until at least `min_seconds` have passed and
/// returns the elapsed seconds per call.
template <typename F>
double TimePerCall(double min_seconds, F body) {
  uint64_t calls = 0;
  const Clock::time_point t0 = Clock::now();
  double elapsed = 0;
  do {
    body();
    ++calls;
    elapsed = Seconds(t0, Clock::now());
  } while (elapsed < min_seconds);
  return elapsed / static_cast<double>(calls);
}

int RunReference(const Args& a) {
  Loaded l;
  if (!Load(a, &l)) return 2;
  const Inputs& in = l.in;
  Json j;
  j.Str("mode", "reference");

  std::vector<std::vector<muse::Match>> reference;
  double replay_s = 0;
  {
    Scoped s("cep.WorkloadEngine.OnEvent");
    const Clock::time_point t0 = Clock::now();
    reference = Replay(in.workload, in.trace);
    replay_s = Seconds(t0, Clock::now());
  }
  std::vector<uint64_t> counts, prints;
  for (auto& v : reference) {
    v = muse::CanonicalMatchSet(std::move(v));
    counts.push_back(v.size());
    prints.push_back(SetFingerprint(v));
  }
  const double events = static_cast<double>(l.injectable);
  uint64_t oracle_matches = 0;
  int oracle_agree = 0;
  {
    Scoped s("cep.OracleMatches");
    oracle_agree = OracleCheck(in, reference, &oracle_matches);
  }
  j.Raw("counts", IntList(counts))
      .Raw("fingerprints", IntList(prints))
      .Int("injectable_events", l.injectable)
      .Num("trace_eps", in.trace_eps)
      .Num("replay_s", replay_s)
      .Num("replay_us_per_event", replay_s * 1e6 / events)
      .Int("oracle_slices", in.workload.size())
      .Int("oracle_agree", static_cast<uint64_t>(oracle_agree))
      .Int("oracle_matches", oracle_matches);

  if (a.layers) {
    // dist: the node runtimes, input log, exactly-once filters and sink
    // dedup on the same deployment and trace, without threads or wire.
    muse::SimOptions sopts;
    muse::SimReport sim;
    double sim_s = 0;
    {
      Scoped s("dist.DistributedSimulator.Run");
      const Clock::time_point t0 = Clock::now();
      muse::DistributedSimulator simulator(*l.dep, sopts);
      sim = simulator.Run(in.trace);
      sim_s = Seconds(t0, Clock::now());
    }
    std::vector<uint64_t> sim_counts, sim_prints;
    for (const auto& v : sim.matches_per_query) {
      sim_counts.push_back(v.size());
      sim_prints.push_back(SetFingerprint(v));
    }
    const muse::obs::MetricsRegistry& reg = sim.telemetry->registry;
    j.Raw("sim_counts", IntList(sim_counts))
        .Raw("sim_fingerprints", IntList(sim_prints))
        .Num("sim_s", sim_s)
        .Num("sim_us_per_event", sim_s * 1e6 / events)
        .Num("node_inputs_per_event",
             static_cast<double>(SumCounter(reg, "node_inputs_total")) /
                 events)
        .Num("task_outputs_per_event",
             static_cast<double>(SumCounter(reg, "task_outputs_total")) /
                 events)
        .Int("sim_candidates",
             SumCounter(reg, "task_candidates_checked_total"))
        .Int("dup_dropped", SumCounter(reg, "node_dup_dropped_total"))
        .Num("sink_dedup_peak", MaxGauge(reg, "sink_dedup_peak"));

    // Composite-task outputs over candidates: the distributed evaluators'
    // yield (primitive tasks forward events without a candidate check).
    uint64_t composite_outputs = 0;
    for (const auto& e : reg.Entries()) {
      if (e.name != "task_outputs_total" || e.counter == nullptr) continue;
      for (const auto& [k, v] : e.labels.labels()) {
        if (k == "task" && !l.dep->task(std::stoi(v)).is_primitive) {
          composite_outputs += e.counter->Value();
        }
      }
    }
    j.Int("sim_composite_outputs", composite_outputs);

    // The exactly-once path: crash the node hosting the most tasks at
    // mid-trace; it replays its input log, receivers drop the duplicates,
    // and the match sets must still equal the reference.
    std::map<muse::NodeId, int> tasks_per_node;
    for (const muse::Task& t : l.dep->tasks()) ++tasks_per_node[t.node];
    muse::NodeId busiest = 0;
    for (const auto& [node, n] : tasks_per_node) {
      if (n > tasks_per_node[busiest]) busiest = node;
    }
    muse::SimOptions crash_opts;
    crash_opts.failures = {{busiest, in.trace[in.trace.size() / 2].time}};
    muse::SimReport crashed;
    {
      Scoped s("dist.DistributedSimulator.Run(crash)");
      muse::DistributedSimulator simulator(*l.dep, crash_opts);
      crashed = simulator.Run(in.trace);
    }
    std::vector<uint64_t> crash_prints;
    for (const auto& v : crashed.matches_per_query) {
      crash_prints.push_back(SetFingerprint(v));
    }
    j.Raw("crash_sim_fingerprints", IntList(crash_prints))
        .Int("crash_dup_dropped",
             SumCounter(crashed.telemetry->registry, "node_dup_dropped_total"));

    // rt.wire: encode the workload's own events and reference matches,
    // decode them back as packets of up to batch_max_frames frames.
    const size_t max_events = std::min<size_t>(in.trace.size(), 20'000);
    std::vector<muse::SimMessage> messages;
    for (const auto& v : reference) {
      for (const muse::Match& m : v) {
        if (messages.size() >= 5'000) break;
        muse::SimMessage msg;
        msg.src_task = 0;
        msg.channel_seq = messages.size();
        msg.payload = m;
        messages.push_back(std::move(msg));
      }
    }
    std::string encoded;
    size_t frames = 0;
    double encode_s = 0;
    {
      Scoped s("rt.wire.Append*Frame");
      encode_s = TimePerCall(0.2, [&] {
        encoded.clear();
        for (size_t i = 0; i < max_events; ++i) {
          muse::rt::AppendEventFrame(in.trace[i], &encoded);
        }
        for (const muse::SimMessage& m : messages) {
          muse::rt::AppendMessageFrame(m, &encoded);
        }
      });
    }
    frames = max_events + messages.size();
    std::vector<std::string> packets;
    {
      // Re-split into packets at frame boundaries, as the link batcher
      // would emit them.
      const int per_packet = muse::rt::RtTransportOptions{}.batch_max_frames;
      size_t pos = 0;
      while (pos < encoded.size()) {
        size_t start = pos;
        for (int f = 0; f < per_packet && pos < encoded.size(); ++f) {
          uint32_t len = 0;
          std::memcpy(&len, encoded.data() + pos, sizeof(len));
          pos += sizeof(len) + len;
        }
        packets.push_back(encoded.substr(start, pos - start));
      }
    }
    bool decode_ok = true;
    double decode_s = 0;
    {
      Scoped s("rt.wire.DecodePacket");
      decode_s = TimePerCall(0.2, [&] {
        for (const std::string& p : packets) {
          decode_ok &= muse::rt::DecodePacket(p).ok();
        }
      });
    }
    double message_bytes = 0;
    for (const muse::SimMessage& m : messages) {
      message_bytes += static_cast<double>(
          muse::rt::MessageFrameBytes(m.payload));
    }
    j.Num("wire_encode_ns_per_frame",
          encode_s * 1e9 / static_cast<double>(std::max<size_t>(1, frames)))
        .Num("wire_decode_ns_per_frame",
             decode_s * 1e9 / static_cast<double>(std::max<size_t>(1, frames)))
        .Num("wire_reference_message_bytes",
             messages.empty() ? 0
                              : message_bytes /
                                    static_cast<double>(messages.size()))
        .Bool("wire_decode_ok", decode_ok);

    // rt.transport: TryDeliver -> PopReady -> Release round trips of a
    // one-frame packet. Paced sources flush every event as its own packet,
    // so at the measured rates a packet is one frame.
    muse::obs::MetricsRegistry treg;
    muse::rt::InProcTransport transport(2, 1, muse::rt::RtTransportOptions{},
                                        &treg);
    muse::rt::Packet packet;
    packet.src = 0;
    packet.dst = 1;
    packet.frames = 1;
    muse::rt::AppendEventFrame(in.trace.front(), &packet.bytes);
    bool transport_ok = true;
    double per_packet_s = 0;
    {
      Scoped s("rt.transport.round_trip");
      per_packet_s = TimePerCall(0.2, [&] {
        for (int i = 0; i < 1000; ++i) {
          packet.deliver_at_us = transport.DeliverAt(0, 1);
          if (!transport.TryDeliver(std::move(packet))) {
            transport_ok = false;
            return;
          }
          muse::rt::Transport::Popped popped = transport.PopReady(0, 0);
          if (popped.packets.size() != 1) {
            transport_ok = false;
            return;
          }
          transport.Release(popped.packets.front());
          packet = std::move(popped.packets.front());
        }
      }) / 1000.0;
    }
    j.Num("transport_ns_per_packet", per_packet_s * 1e9)
        .Bool("transport_ok", transport_ok);
  }
  j.Num("peak_rss_mb", PeakRssMb());
  j.Raw("spans", Spans().ToJson());
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

// --- rt -----------------------------------------------------------------------

/// The histogram as [lower, upper, count] bucket triples plus exact
/// min/max, so run.py can pool runs and interpolate quantiles.
std::string HistogramJson(const muse::obs::Histogram& h) {
  Json j;
  std::string buckets = "[";
  char buf[128];
  bool first = true;
  for (const auto& [idx, count] : h.NonEmptyBuckets()) {
    const double hi = h.BucketUpperBound(idx);
    const double lo = hi - h.BucketWidth(idx);
    std::snprintf(buf, sizeof(buf), "%s[%.17g, %.17g, %" PRIu64 "]",
                  first ? "" : ", ", lo, hi, count);
    buckets += buf;
    first = false;
  }
  buckets += "]";
  j.Raw("buckets", buckets).Num("min", h.Min()).Num("max", h.Max());
  return j.Done();
}

/// Wall-clock span of the driver's Poisson schedule: the due time of the
/// last injected event. Replays the runtime driver's own draws (one
/// exponential per injectable event from Rng(source_seed)).
double ScheduledSeconds(const Loaded& l, double rate, uint64_t seed) {
  muse::Rng rng(seed);
  double t = 0;
  for (uint64_t i = 0; i < l.injectable; ++i) t += rng.Exponential(rate);
  return t;
}

int RunRt(const Args& a) {
  Loaded l;
  if (!Load(a, &l)) return 2;
  const Inputs& in = l.in;
  muse::rt::RtOptions opts = RtOptionsFor(in, a.rate, a.seed);
  opts.trace_sample_every = a.trace_sample;
  opts.collect_matches = a.collect;

  muse::rt::RtReport report;
  double cpu_s = 0;
  {
    Scoped s(a.trace_sample > 0 ? "rt.RtRuntime.Run(traced)"
                                : "rt.RtRuntime.Run");
    muse::rt::RtRuntime runtime(*l.dep, opts);
    const double cpu0 = CpuSeconds();
    report = runtime.Run(in.trace);
    cpu_s = CpuSeconds() - cpu0;
  }
  const muse::obs::MetricsRegistry& reg = report.telemetry->registry;

  // Per-query counts from the sink registry, latency split by whether the
  // query holds NSEQ candidates back until the slack has passed.
  const size_t nq = in.workload.size();
  std::vector<uint64_t> counts(nq, 0);
  muse::obs::Histogram plain(1e-3), nseq(1e-3);
  for (const auto& e : reg.Entries()) {
    int q = -1;
    for (const auto& [k, v] : e.labels.labels()) {
      if (k == "query") q = std::stoi(v);
    }
    if (q < 0 || static_cast<size_t>(q) >= nq) continue;
    if (e.name == "rt_matches_total" && e.counter != nullptr) {
      counts[static_cast<size_t>(q)] = e.counter->Value();
    } else if (e.name == "rt_latency_ms" && e.histogram != nullptr) {
      (in.workload[static_cast<size_t>(q)].ContainsNegation() ? nseq : plain)
          .MergeFrom(*e.histogram);
    }
  }
  const double injected = static_cast<double>(report.injected_events);
  const double scheduled_s = ScheduledSeconds(l, a.rate, a.seed);

  Json j;
  j.Str("mode", "rt")
      .Num("offered_eps", a.rate)
      .Int("slack_ms", opts.eval.eviction_slack_ms)
      .Num("slack_tolerance_ms", kSlackToleranceMs)
      .Int("threads", static_cast<uint64_t>(opts.num_threads))
      .Int("trace_sample_every", a.trace_sample)
      .Raw("counts", IntList(counts))
      .Bool("wedged", report.wedged)
      .Int("injected_events", report.injected_events)
      .Int("injectable_events", l.injectable)
      .Num("wall_s", report.wall_seconds)
      .Num("scheduled_s", scheduled_s)
      .Num("achieved_eps", report.events_per_sec)
      .Num("cpu_s", cpu_s)
      .Num("cpu_us_per_event", cpu_s * 1e6 / injected)
      .Int("network_bytes", report.network_bytes)
      .Int("network_frames", report.network_frames)
      .Int("inputs_processed", report.inputs_processed)
      .Int("stalls", report.backpressure_stalls)
      .Int("source_stall_us", SumCounter(reg, "rt_source_stall_us_total"))
      .Raw("latency", HistogramJson(plain))
      .Raw("nseq_latency", HistogramJson(nseq))
      .Num("peak_buffered", MaxGauge(reg, "rt_node_peak_buffered"))
      .Int("evictions", SumCounter(reg, "rt_evaluator_evictions_total"))
      .Num("peak_pending", MaxGauge(reg, "rt_task_peak_pending"))
      .Int("pending_released",
           SumCounter(reg, "rt_evaluator_pending_released_total"))
      .Int("inbox_batch_rows", SumCounter(reg, "rt_inbox_batch_rows_total"))
      .Int("dup_dropped", report.duplicates_dropped)
      .Num("sink_dedup_peak", MaxGauge(reg, "rt_sink_dedup_peak"));
  if (a.collect) {
    std::vector<uint64_t> prints;
    for (const auto& v : report.matches_per_query) {
      prints.push_back(SetFingerprint(v));
    }
    j.Raw("fingerprints", IntList(prints));
  }
  if (report.trace_log != nullptr) {
    const muse::obs::TraceSummary sum = report.trace_log->Summarize();
    Json t;
    t.Int("traces", sum.traces)
        .Int("completed", sum.completed)
        .Int("spans", sum.spans)
        .Int("dropped", sum.dropped);
    for (size_t k = 0; k < muse::obs::kNumSpanKinds; ++k) {
      const muse::obs::StageStats& st = sum.stages[k];
      const std::string name =
          muse::obs::SpanKindName(static_cast<muse::obs::SpanKind>(k));
      Json stage;
      stage.Int("count", st.count)
          .Num("p50_us", st.p50_us)
          .Num("p99_us", st.p99_us)
          .Num("total_us", st.total_us);
      t.Raw(name, stage.Done());
    }
    j.Raw("trace", t.Done());
  }
  j.Num("peak_rss_mb", PeakRssMb());
  j.Raw("spans", Spans().ToJson());
  std::printf("%s\n", j.Done().c_str());
  return 0;
}

}  // namespace
}  // namespace musebench

int main(int argc, char** argv) {
  musebench::Args a;
  if (!musebench::ParseArgs(argc, argv, &a)) {
    std::fprintf(stderr,
                 "usage: musebench_probe setup|reference|rt --workload W "
                 "--seed S --plan P [flags]\n");
    return 2;
  }
  if (a.mode == "setup") return musebench::RunSetup(a);
  if (a.mode == "reference") return musebench::RunReference(a);
  if (a.mode == "rt") {
    if (a.rate <= 0) {
      std::fprintf(stderr, "rt mode needs --rate > 0\n");
      return 2;
    }
    return musebench::RunRt(a);
  }
  std::fprintf(stderr, "unknown mode %s\n", a.mode.c_str());
  return 2;
}
