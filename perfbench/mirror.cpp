#include "mirror.hpp"

#include <cmath>
#include <stdexcept>
#include <string>
#include <utility>

#include "runtime/registry.hpp"

namespace perfbench {

namespace cr = croupier;
using cr::run::ExperimentSpec;

namespace {

// The same rounding ExperimentSpec applies to its millisecond and second
// fields.
cr::sim::Duration from_ms(double ms) {
  return static_cast<cr::sim::Duration>(std::llround(ms * 1000.0));
}
cr::sim::Duration from_s(double s) {
  return static_cast<cr::sim::Duration>(std::llround(s * 1e6));
}

void refuse_unmirrored(const ExperimentSpec& spec) {
  const auto refuse = [&](const char* feature) {
    throw std::invalid_argument(std::string("MirrorWorld does not mirror ") +
                                feature + ": " + spec.to_string());
  };
  if (spec.join != ExperimentSpec::JoinKind::Instant) refuse("timed joins");
  if (spec.natid) refuse("natid");
  if (spec.step_publics + spec.step_privates > 0) refuse("step joins");
  if (spec.flash_publics + spec.flash_privates > 0) refuse("flash crowds");
  if (spec.catastrophe > 0.0) refuse("catastrophe");
  if (spec.failure_frac > 0.0) refuse("correlated failure");
  if (spec.eclipse_target != 0) refuse("eclipse");
  if (spec.natflap_frac > 0.0) refuse("natflap");
  if (spec.adversary_hubs > 0) refuse("hub adversaries");
  if (spec.record == ExperimentSpec::RecordKind::Graph) refuse("record=graph");
}

}  // namespace

MirrorWorld::MirrorWorld(const ExperimentSpec& spec, std::uint64_t seed,
                         Tracer& tracer, double skew_offset) {
  spec.validate();
  refuse_unmirrored(spec);

  cr::run::World::Config cfg;
  cfg.seed = seed;
  cfg.loss = spec.loss.to_config();
  cfg.packet = spec.packet_config();
  cfg.round_period = from_ms(spec.round_ms);
  cfg.clock_skew = spec.skew + skew_offset;
  cfg.private_round_scale = spec.private_round_scale;
  cfg.latency = spec.latency;
  cfg.constant_latency = from_ms(spec.latency_ms);
  cfg.use_natid_protocol = spec.natid;
  cfg.world_jobs = 1;
  world_ = std::make_unique<cr::run::World>(
      cfg, timed_factory(
               cr::run::ProtocolRegistry::instance().make_from_spec(
                   spec.protocol),
               tracer));

  const auto spawn = [&](const cr::net::NatConfig& nat) {
    const auto t0 = Clock::now();
    world_->spawn(nat);
    spawn_.add(t0, Clock::now());
  };
  for (std::size_t i = 0; i < spec.publics(); ++i) {
    spawn(cr::net::NatConfig::open());
  }
  for (std::size_t i = 0; i < spec.privates(); ++i) {
    spawn(cr::net::NatConfig::natted());
  }

  if (spec.churn > 0.0) {
    auto churn = std::make_unique<cr::run::ChurnProcess>(
        *world_, spec.churn, cr::net::NatConfig::open(),
        cr::net::NatConfig::natted());
    churn->start(from_s(spec.churn_at_s));
    scenario_.push_back(std::move(churn));
  }

  const bool every_set = spec.record_every_s > 0.0;
  switch (spec.record) {
    case ExperimentSpec::RecordKind::None:
    case ExperimentSpec::RecordKind::Graph:
      break;
    case ExperimentSpec::RecordKind::Estimation: {
      const auto every =
          every_set ? from_s(spec.record_every_s) : cr::sim::sec(1);
      estimation_ = std::make_unique<cr::run::EstimationRecorder>(
          *world_, cr::run::EstimationRecorderOptions{every, 2});
      estimation_->start(every);
      break;
    }
    case ExperimentSpec::RecordKind::GraphSampled: {
      cr::run::SampledGraphStatsRecorderOptions opt;
      if (every_set) opt.interval = from_s(spec.record_every_s);
      graph_sampled_ =
          std::make_unique<cr::run::SampledGraphStatsRecorder>(*world_, opt);
      graph_sampled_->start(opt.interval);
      break;
    }
    case ExperimentSpec::RecordKind::Randomness: {
      const auto every =
          every_set ? from_s(spec.record_every_s) : cr::sim::sec(10);
      randomness_ = std::make_unique<cr::run::RandomnessAuditRecorder>(
          *world_, cr::run::RandomnessRecorderOptions{every});
      randomness_->start(every);
      break;
    }
  }
}

cr::run::ScenarioProcess::Stats MirrorWorld::scenario_stats() const {
  cr::run::ScenarioProcess::Stats total;
  for (const auto& process : scenario_) {
    const auto s = process->stats();
    total.spawned += s.spawned;
    total.killed += s.killed;
    total.replaced += s.replaced;
    total.reclassified += s.reclassified;
  }
  return total;
}

}  // namespace perfbench
