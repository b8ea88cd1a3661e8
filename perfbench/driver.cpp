// perfbench: one benchmark workload, measured end to end or traced.
//
//   perfbench --workload=NAME --seed=N --seconds=S --trace=0|1 [--toy]
//   perfbench --workload=NAME --seed=N --setup-only [--toy]
//   perfbench --build-info
//
// --trace=0 repeats the workload as run::Experiment (set-up, then run
// over the horizon) at least once, and again while at least half of
// another repetition fits in S seconds. It reports the median run_s and
// node_rounds_per_s, and the process's peak_rss_mib. Repetitions share
// the seed, so every one must reproduce the first one's digest.
//
// --setup-only times one Experiment construction. Set-up time depends on
// the heap earlier work left behind, so run.py samples it in fresh
// processes and reports their median as setup_s.
//
// --trace=1 runs the workload once untraced (run::Experiment, on the
// workload's own engine) and reads the counters the program exposes,
// then once more as a MirrorWorld whose protocol layer is timed from
// outside (timed_sampler.hpp), on the sequential engine, in slices at
// the recorder's interval with a read-only metric probe between slices.
// The two digests must be equal. It reports the per-layer metrics.
//
// Prints one JSON object as the last line of stdout. Exit status: 0 when
// every check passed, 1 when a check failed (the JSON says which count
// failed), 2 on a usage error (no JSON).
#include <sys/resource.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/croupier.hpp"
#include "metrics/estimation.hpp"
#include "metrics/randomness.hpp"
#include "metrics/streaming.hpp"
#include "mirror.hpp"
#include "runtime/spec.hpp"
#include "timed_sampler.hpp"

namespace {

namespace cr = croupier;
using cr::run::ExperimentSpec;
using perfbench::Clock;
using perfbench::seconds_since;

struct Workload {
  const char* name;
  const char* spec;
  std::size_t world_jobs;
  /// Sanity bound on the final average estimation error; 0 = the
  /// protocol keeps no estimate. Set well above the worst final error
  /// seen over many seeds of the unchanged program (README.md).
  double max_avg_error;
};

constexpr Workload kWorkloads[] = {
    {"steady-20k",
     "protocol=croupier nodes=20000 ratio=0.2 join=instant "
     "record=estimation duration=20",
     1, 0.03},
    {"churn-frag-10k",
     "protocol=gozar nodes=10000 ratio=0.2 join=instant churn=0.01 "
     "churn-at=5 loss=0.05 mtu=128 record=randomness duration=30",
     2, 0.0},
    {"scale-100k",
     "protocol=croupier:alpha=25,gamma=50 nodes=100000 ratio=0.2 "
     "join=instant latency=constant record=graph-sampled record-every=10 "
     "duration=10",
     1, 0.05},
};

/// Every message type the workloads' protocols send; each gets a
/// pss.msg.<name> pair on every workload (zero where unused).
constexpr const char* kMessageNames[] = {
    "croupier.shuffle_req", "croupier.shuffle_res", "gozar.shuffle_req",
    "gozar.shuffle_res",    "gozar.relayed_req",    "gozar.relayed_res",
    "gozar.ping",           "gozar.pong",
};

/// --toy divides every population by this (the self-test's scale).
constexpr std::size_t kToyDivisor = 50;

constexpr bool built_with_sanitizer() {
#if defined(PERFBENCH_SANITIZED) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  return true;
#else
  return false;
#endif
}

[[nodiscard]] double peak_rss_kib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss);  // KiB on Linux
}

[[nodiscard]] double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// ---------------------------------------------------------------------
// Deterministic counters and the digest

class Fnv {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Counters {
  std::uint64_t events = 0;
  std::uint64_t datagrams = 0;  // TrafficMeter msgs_sent, summed
  std::uint64_t bytes = 0;      // TrafficMeter bytes_sent, summed
  std::uint64_t datagrams_received = 0;
  std::uint64_t bytes_received = 0;
  cr::net::Network::DropStats drops;
  cr::run::ScenarioProcess::Stats scenario;
  std::size_t alive = 0;
  std::size_t series_points = 0;
  /// Recorder series plus every final ratio estimate, in id order.
  std::uint64_t series_digest = 0;
  double final_avg_error = 0.0;

  /// (name, value) of every field the digest covers, for diagnostics.
  [[nodiscard]] std::vector<std::pair<const char*, std::uint64_t>> fields()
      const {
    const auto& d = drops;
    return {{"events", events},
            {"datagrams", datagrams},
            {"bytes", bytes},
            {"datagrams_received", datagrams_received},
            {"bytes_received", bytes_received},
            {"drops.loss", d.loss},
            {"drops.nat_filtered", d.nat_filtered},
            {"drops.dead_receiver", d.dead_receiver},
            {"drops.delivered", d.delivered},
            {"drops.loss_bytes", d.loss_bytes},
            {"drops.nat_filtered_bytes", d.nat_filtered_bytes},
            {"drops.dead_receiver_bytes", d.dead_receiver_bytes},
            {"drops.delivered_bytes", d.delivered_bytes},
            {"drops.fragments_sent", d.fragments_sent},
            {"drops.fragments_lost", d.fragments_lost},
            {"drops.fragments_reassembled", d.fragments_reassembled},
            {"drops.fragments_expired", d.fragments_expired},
            {"scenario.spawned", scenario.spawned},
            {"scenario.killed", scenario.killed},
            {"scenario.replaced", scenario.replaced},
            {"alive", alive},
            {"series_points", series_points},
            {"series_digest", series_digest}};
  }

  [[nodiscard]] std::uint64_t digest() const {
    Fnv h;
    for (const auto& [name, value] : fields()) h.add(value);
    return h.value();
  }
};

/// What a finished run exposes, whether it ran as an Experiment or as a
/// MirrorWorld.
struct Finished {
  cr::run::World& world;
  const cr::run::EstimationRecorder* estimation;
  const cr::run::SampledGraphStatsRecorder* graph_sampled;
  const cr::run::RandomnessAuditRecorder* randomness;
  cr::run::ScenarioProcess::Stats scenario;
};

/// Reads the counters. In a traced world the tracer must be paused: the
/// final estimates are read through the decorator.
[[nodiscard]] Counters observe(const Finished& run) {
  Counters c;
  cr::run::World& world = run.world;
  c.events = world.simulator().events_processed();
  for (const auto& [id, t] : world.network().meter().per_node()) {
    c.datagrams += t.msgs_sent;
    c.bytes += t.bytes_sent;
    c.datagrams_received += t.msgs_received;
    c.bytes_received += t.bytes_received;
  }
  c.drops = world.network().drops();
  c.scenario = run.scenario;
  c.alive = world.alive_count();

  Fnv h;
  if (run.estimation != nullptr) {
    for (const auto& p : run.estimation->series()) {
      h.add(p.t_seconds);
      h.add(p.sample.avg_error);
      h.add(p.sample.max_error);
      h.add(p.sample.truth);
      h.add(std::uint64_t{p.sample.node_count});
    }
    c.series_points += run.estimation->series().size();
  }
  if (run.graph_sampled != nullptr) {
    for (const auto& p : run.graph_sampled->series()) {
      for (const double v : {p.t_seconds, p.avg_path_length,
                             p.unreachable_fraction, p.clustering_coefficient,
                             p.mean_out_degree, p.in_degree_cv,
                             p.largest_component_fraction}) {
        h.add(v);
      }
      for (const std::uint64_t v :
           {std::uint64_t{p.population}, std::uint64_t{p.component_nodes},
            p.edge_samples, std::uint64_t{p.path_pairs},
            std::uint64_t{p.bfs_truncated}}) {
        h.add(v);
      }
    }
    c.series_points += run.graph_sampled->series().size();
  }
  if (run.randomness != nullptr) {
    for (const auto& p : run.randomness->series()) {
      for (const double v :
           {p.t_seconds, p.chi2, p.chi2_z, p.repeat_observed,
            p.repeat_expected, p.repeat_ratio, p.public_fraction,
            p.public_expected, p.bias_ratio}) {
        h.add(v);
      }
      h.add(std::uint64_t{p.nodes});
      h.add(p.edges_observed);
    }
    c.series_points += run.randomness->series().size();
  }
  const auto estimates = world.ratio_estimates(2);
  for (const double e : estimates) h.add(e);
  c.series_digest = h.value();
  if (!estimates.empty()) {
    c.final_avg_error =
        cr::metrics::estimation_errors(estimates, world.true_ratio())
            .avg_error;
  }
  return c;
}

/// The workload's own sanity checks on one finished run; returns the
/// problems found.
[[nodiscard]] std::vector<std::string> sanity_problems(
    const Workload& w, const ExperimentSpec& spec, const Counters& c) {
  std::vector<std::string> out;
  if (c.alive != spec.nodes) {
    out.push_back("population " + std::to_string(c.alive) + " != " +
                  std::to_string(spec.nodes));
  }
  if (c.series_points == 0) out.emplace_back("recorder series is empty");
  if (c.drops.delivered == 0) out.emplace_back("no message was delivered");
  if (w.max_avg_error > 0.0 && !(c.final_avg_error <= w.max_avg_error)) {
    out.push_back("final avg estimation error " +
                  std::to_string(c.final_avg_error) + " above " +
                  std::to_string(w.max_avg_error));
  }
  if (spec.mtu > 0 && c.drops.fragments_reassembled == 0) {
    out.emplace_back("fragmenting workload reassembled nothing");
  }
  return out;
}

/// Prints every field that differs; returns whether all are equal.
bool same_counters(const Counters& untraced, const Counters& traced) {
  const auto a = untraced.fields();
  const auto b = traced.fields();
  bool same = true;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].second != b[i].second) {
      std::fprintf(stderr, "digest mismatch: %s untraced=%llu traced=%llu\n",
                   a[i].first, static_cast<unsigned long long>(a[i].second),
                   static_cast<unsigned long long>(b[i].second));
      same = false;
    }
  }
  return same;
}

// ---------------------------------------------------------------------
// Output

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
};

void report_problems(const std::vector<std::string>& problems,
                     Outcome& out) {
  for (const auto& p : problems) {
    std::fprintf(stderr, "check failed: %s\n", p.c_str());
  }
  if (!problems.empty()) ++out.failed;
}

int emit(const Outcome& out) {
  bool finite = true;
  std::string json = "{\"metrics\": {";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    finite = finite && std::isfinite(m.value);
    char value[64];
    std::snprintf(value, sizeof value, "%.17g",
                  std::isfinite(m.value) ? m.value : 0.0);
    json += (i == 0 ? "" : ", ") + ("\"" + m.name + "\": {\"value\": ") +
            value + ", \"unit\": \"" + m.unit + "\"}";
  }
  const std::uint64_t failed = out.failed + (finite ? 0 : 1);
  if (!finite) std::fprintf(stderr, "check failed: a metric is not finite\n");
  json += "}, \"correct\": " + std::string(failed == 0 ? "true" : "false") +
          ", \"attempted\": " + std::to_string(out.attempted) +
          ", \"failed\": " + std::to_string(failed) + "}";
  std::printf("%s\n", json.c_str());
  return failed == 0 ? 0 : 1;
}

// ---------------------------------------------------------------------
// --trace=0: end-to-end metrics

Outcome measure_end_to_end(const Workload& w, const ExperimentSpec& spec,
                           std::uint64_t seed, double budget_s) {
  Outcome out;
  std::vector<double> runs;
  std::optional<Counters> first;
  const auto start = Clock::now();
  double rep_s = 0.0;
  do {
    const auto t0 = Clock::now();
    auto exp = std::make_unique<cr::run::Experiment>(spec, seed, w.world_jobs);
    const auto t1 = Clock::now();
    exp->run();
    runs.push_back(seconds_since(t1));
    rep_s = std::max(rep_s, seconds_since(t0));

    ++out.attempted;
    const Counters c =
        observe({exp->world(), exp->estimation(), exp->graph_sampled(),
                 exp->randomness(), exp->scenario_stats()});
    auto problems = sanity_problems(w, spec, c);
    if (!first) first = c;
    if (c.digest() != first->digest()) {
      problems.emplace_back("repetition digest differs from the first run's");
    }
    report_problems(problems, out);
    // Another repetition when at least half of it fits in the budget.
  } while (seconds_since(start) + 0.5 * rep_s <= budget_s);

  const double run_s = median(runs);
  const double node_rounds = static_cast<double>(spec.nodes) *
                             spec.duration_s / (spec.round_ms / 1000.0);
  out.metrics = {
      {"run_s", "s", run_s},
      {"node_rounds_per_s", "1/s", node_rounds / run_s},
      {"peak_rss_mib", "MiB", peak_rss_kib() / 1024.0},
  };
  std::fprintf(stderr,
               "perfbench: %s seed=%llu reps=%zu events=%llu "
               "final-avg-error=%.5f run_s:",
               w.name, static_cast<unsigned long long>(seed), runs.size(),
               static_cast<unsigned long long>(first->events),
               first->final_avg_error);
  for (const double r : runs) std::fprintf(stderr, " %.3f", r);
  std::fprintf(stderr, "\n");
  return out;
}

// ---------------------------------------------------------------------
// --setup-only: one set-up in a fresh process

/// Times one Experiment construction and exits without destroying it:
/// the sample is the construction alone, and the OS reclaims the rest.
[[noreturn]] void measure_setup(const Workload& w, const ExperimentSpec& spec,
                                std::uint64_t seed) {
  const auto t0 = Clock::now();
  const auto exp =
      std::make_unique<cr::run::Experiment>(spec, seed, w.world_jobs);
  Outcome out;
  out.attempted = 1;
  out.metrics = {{"setup_s", "s", seconds_since(t0)}};
  const int code = emit(out);
  std::fflush(stdout);
  std::_Exit(code);
}

// ---------------------------------------------------------------------
// --trace=1: per-layer split

/// Read-only metric probe owned by the driver: the recorder's public
/// metric call for the workload's RecordKind, on the driver's own
/// estimator instance and RNG stream, so the World is never touched.
class MetricProbe {
 public:
  MetricProbe(ExperimentSpec::RecordKind kind, std::uint64_t seed)
      : kind_(kind), rng_(seed ^ 0x9e3779b97f4a7c15ULL) {}

  void tick(cr::run::World& world) {
    const auto t0 = Clock::now();
    switch (kind_) {
      case ExperimentSpec::RecordKind::Estimation:
        sink_ += cr::metrics::estimation_errors(world.ratio_estimates(2),
                                                world.true_ratio())
                     .avg_error;
        break;
      case ExperimentSpec::RecordKind::GraphSampled: {
        const auto neighbors = [&world](cr::net::NodeId id,
                                        std::vector<cr::net::NodeId>& out) {
          const auto* s = world.sampler(id);
          if (s == nullptr) return false;
          out = s->out_neighbors();
          return true;
        };
        const auto is_vertex = [&world](cr::net::NodeId id) {
          return world.sampler(id) != nullptr;
        };
        sink_ += streaming_
                     .tick(std::span<const cr::net::NodeId>(world.alive_ids()),
                           world.gossiping_count(), neighbors, is_vertex, rng_)
                     .avg_path_length;
        break;
      }
      case ExperimentSpec::RecordKind::Randomness: {
        cr::metrics::RandomnessAuditor::Adjacency adjacency;
        for (const cr::net::NodeId id : world.sorted_ids()) {
          const auto* s = world.sampler(id);
          if (s != nullptr) adjacency.emplace_back(id, s->out_neighbors());
        }
        sink_ += auditor_
                     .observe(adjacency, world.class_map(), world.true_ratio(),
                              cr::sim::to_seconds(world.simulator().now()))
                     .chi2_z;
        break;
      }
      case ExperimentSpec::RecordKind::None:
      case ExperimentSpec::RecordKind::Graph:
        return;
    }
    ticks_.add(t0, Clock::now());
  }

  [[nodiscard]] const perfbench::Span& ticks() const { return ticks_; }

 private:
  ExperimentSpec::RecordKind kind_;
  cr::sim::RngStream rng_;
  cr::metrics::StreamingGraphEstimator streaming_;
  cr::metrics::RandomnessAuditor auditor_;
  perfbench::Span ticks_;
  double sink_ = 0.0;  // keeps the probed results observable
};

[[nodiscard]] double record_interval_s(const ExperimentSpec& spec) {
  if (spec.record_every_s > 0.0) return spec.record_every_s;
  return spec.record == ExperimentSpec::RecordKind::Estimation ? 1.0 : 10.0;
}

Outcome measure_layers(const Workload& w, const ExperimentSpec& spec,
                       std::uint64_t seed, double skew_offset) {
  Outcome out;
  std::vector<Metric>& m = out.metrics;
  const auto ratio = [](double num, double den) {
    return den == 0.0 ? 0.0 : num / den;
  };

  // Untraced: the program as users run it.
  Counters untraced;
  double untraced_run_s = 0.0;
  {
    auto exp = std::make_unique<cr::run::Experiment>(spec, seed, w.world_jobs);
    const auto t0 = Clock::now();
    exp->run();
    untraced_run_s = seconds_since(t0);
    cr::run::World& world = exp->world();
    untraced = observe({world, exp->estimation(), exp->graph_sampled(),
                        exp->randomness(), exp->scenario_stats()});

    cr::sim::ParallelExecutor::Stats engine;
    if (const auto* s = world.engine_stats(); s != nullptr) engine = *s;
    const auto batched = static_cast<double>(engine.batched_events);
    m.push_back({"sim.events", "count", static_cast<double>(untraced.events)});
    m.push_back({"sim.executor.batches", "count",
                 static_cast<double>(engine.batches)});
    m.push_back({"sim.executor.batched_share", "ratio",
                 ratio(batched, batched + static_cast<double>(
                                              engine.serial_events))});
    m.push_back({"sim.executor.mean_batch", "count",
                 ratio(batched, static_cast<double>(engine.batches))});
    m.push_back({"sim.executor.max_batch", "count",
                 static_cast<double>(engine.max_batch)});

    double cached = 0.0;
    double croupiers = 0.0;
    world.for_each_sampler([&](cr::net::NodeId, cr::pss::PeerSampler& s) {
      if (const auto* c = dynamic_cast<const cr::core::Croupier*>(&s)) {
        cached += static_cast<double>(c->estimator().cached_count());
        croupiers += 1.0;
      }
    });
    m.push_back({"core.estimator.cached_mean", "count",
                 ratio(cached, croupiers)});
    const auto arena = world.view_arena().stats();
    m.push_back({"pss.view_arena.slab_mib", "MiB",
                 static_cast<double>(arena.slab_bytes) / (1024.0 * 1024.0)});
    m.push_back({"pss.view_arena.reuses", "count",
                 static_cast<double>(arena.reuses)});

    const auto& d = untraced.drops;
    m.push_back({"net.datagrams", "count",
                 static_cast<double>(untraced.datagrams)});
    m.push_back({"net.bytes", "B", static_cast<double>(untraced.bytes)});
    const double attempted_bytes =
        static_cast<double>(d.delivered_bytes + d.loss_bytes +
                            d.nat_filtered_bytes + d.dead_receiver_bytes);
    m.push_back({"net.delivered_share", "ratio",
                 ratio(static_cast<double>(d.delivered_bytes),
                       attempted_bytes)});
    m.push_back({"net.frag.sent", "count",
                 static_cast<double>(d.fragments_sent)});
    m.push_back({"net.frag.reassembled", "count",
                 static_cast<double>(d.fragments_reassembled)});
    m.push_back({"net.frag.expired", "count",
                 static_cast<double>(d.fragments_expired)});
    m.push_back({"runtime.scenario.replaced", "count",
                 static_cast<double>(untraced.scenario.replaced)});
    m.push_back({"runtime.rss_per_node_kib", "KiB",
                 peak_rss_kib() / static_cast<double>(spec.nodes)});
  }
  ++out.attempted;
  report_problems(sanity_problems(w, spec, untraced), out);

  // Traced: the mirror, timed from outside, sequential, sliced.
  perfbench::Tracer tracer;
  perfbench::MirrorWorld mirror(spec, seed, tracer, skew_offset);
  cr::run::World& world = mirror.world();
  MetricProbe probe(spec.record, seed);
  const cr::sim::SimTime horizon = spec.duration();
  const auto slice = static_cast<cr::sim::Duration>(
      std::llround(record_interval_s(spec) * 1e6));
  double traced_run_s = 0.0;
  for (cr::sim::SimTime t = 0; t < horizon;) {
    t = std::min<cr::sim::SimTime>(t + slice, horizon);
    const auto t0 = Clock::now();
    world.run_until(t);
    traced_run_s += seconds_since(t0);
    tracer.paused = true;
    probe.tick(world);
    tracer.paused = false;
  }
  tracer.paused = true;
  const Counters traced =
      observe({world, mirror.estimation(), mirror.graph_sampled(),
               mirror.randomness(), mirror.scenario_stats()});
  ++out.attempted;
  std::vector<std::string> problems;
  if (!same_counters(untraced, traced)) {
    problems.emplace_back("traced digest differs from the untraced run's");
  }
  const double residual_s = traced_run_s - tracer.span_seconds();
  if (residual_s < 0.0) {
    problems.emplace_back("decorator spans exceed the traced run time");
  }
  report_problems(problems, out);

  const auto span_metrics = [&m](const std::string& prefix,
                                 const perfbench::Span& s, bool mean_ns) {
    m.push_back({prefix + ".calls", "count", static_cast<double>(s.calls)});
    if (mean_ns) m.push_back({prefix + ".ns", "ns", s.mean_ns()});
    m.push_back({prefix + ".s", "s", s.seconds()});
  };
  m.push_back({"sim.residual.s", "s", residual_s});
  span_metrics("pss.init", tracer.init, false);
  span_metrics("pss.round", tracer.round, true);
  span_metrics("pss.on_message", tracer.on_message, true);
  for (const char* name : kMessageNames) {
    const perfbench::Span s = tracer.message(name);
    const std::string prefix = std::string("pss.msg.") + name;
    m.push_back({prefix + ".calls", "count", static_cast<double>(s.calls)});
    m.push_back({prefix + ".ns", "ns", s.mean_ns()});
  }
  span_metrics("pss.read", tracer.read, false);
  m.push_back({"wire.size.ns", "ns", tracer.wire_size.mean_ns()});
  m.push_back({"wire.size.s", "s", tracer.wire_size.seconds()});
  m.push_back({"runtime.spawn.calls", "count",
               static_cast<double>(mirror.spawn().calls)});
  m.push_back({"runtime.spawn.us", "us", mirror.spawn().mean_ns() * 1e-3});
  m.push_back({"metrics.tick.ms", "ms", probe.ticks().mean_ns() * 1e-6});
  m.push_back({"trace.run_s", "s", traced_run_s});
  m.push_back({"trace.overhead", "ratio", traced_run_s / untraced_run_s});
  return out;
}

// ---------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 20.0;
  int trace = 0;
  bool toy = false;
  bool setup_only = false;
  double skew_offset = 0.0;
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\n"
               "usage: perfbench --workload=NAME --seed=N --seconds=S "
               "--trace=0|1 [--toy] [--perturb-mirror=SKEW]\n"
               "       perfbench --workload=NAME --seed=N --setup-only "
               "[--toy]\n"
               "       perfbench --build-info\n"
               "workloads:",
               why);
  for (const auto& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    const auto value = [&](std::string_view key) -> std::optional<std::string> {
      if (arg.substr(0, key.size()) != key) return std::nullopt;
      return std::string(arg.substr(key.size()));
    };
    try {
      if (arg == "--build-info") {
        std::printf("build_type=%s\nsanitized=%s\ncompiler=%s\n",
                    PERFBENCH_BUILD_TYPE,
                    built_with_sanitizer() ? "yes" : "no", PERFBENCH_COMPILER);
        std::exit(0);
      } else if (auto v = value("--workload=")) {
        a.workload = *v;
      } else if (auto v = value("--seed=")) {
        a.seed = std::stoull(*v);
      } else if (auto v = value("--seconds=")) {
        a.seconds = std::stod(*v);
      } else if (auto v = value("--trace=")) {
        a.trace = std::stoi(*v);
      } else if (arg == "--toy") {
        a.toy = true;
      } else if (arg == "--setup-only") {
        a.setup_only = true;
      } else if (auto v = value("--perturb-mirror=")) {
        a.skew_offset = std::stod(*v);
      } else {
        usage(("unknown argument " + std::string(arg)).c_str());
      }
    } catch (const std::exception&) {
      usage(("malformed argument " + std::string(arg)).c_str());
    }
  }
  if (a.trace != 0 && a.trace != 1) usage("--trace must be 0 or 1");
  if (!(a.seconds > 0.0)) usage("--seconds must be positive");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse_args(argc, argv);
  const Workload* w = nullptr;
  for (const auto& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (w == nullptr) usage("unknown or missing --workload");

  ExperimentSpec spec = ExperimentSpec::parse(w->spec);
  if (args.toy) spec.nodes /= kToyDivisor;

  try {
    if (args.setup_only) measure_setup(*w, spec, args.seed);
    const Outcome out =
        args.trace == 0
            ? measure_end_to_end(*w, spec, args.seed, args.seconds)
            : measure_layers(*w, spec, args.seed, args.skew_offset);
    return emit(out);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
}
