// A hand-assembled World that mirrors run::Experiment.
//
// Experiment builds its ProtocolFactory internally, so a traced run
// cannot slip the timing decorator into it. MirrorWorld repeats the
// Experiment constructor step for step for the spec features the
// benchmark's workloads use (instant joins, churn, one recorder), with
// the factory wrapped by timed_factory and every setup-phase
// World::spawn timed. It always runs the sequential engine. A spec that
// needs anything else is refused rather than approximated, and the
// driver compares the mirror's digest with the untraced Experiment's, so
// a mirror that drifts from Experiment fails the run.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "runtime/recorder.hpp"
#include "runtime/scenario.hpp"
#include "runtime/spec.hpp"
#include "runtime/world.hpp"
#include "timed_sampler.hpp"

namespace perfbench {

class MirrorWorld {
 public:
  /// `skew_offset` is added to the spec's clock skew; non-zero only in
  /// the self-test, which feeds the digest check a perturbed world.
  /// Throws std::invalid_argument for spec features it does not mirror.
  MirrorWorld(const croupier::run::ExperimentSpec& spec, std::uint64_t seed,
              Tracer& tracer, double skew_offset = 0.0);

  MirrorWorld(const MirrorWorld&) = delete;
  MirrorWorld& operator=(const MirrorWorld&) = delete;

  [[nodiscard]] croupier::run::World& world() { return *world_; }
  [[nodiscard]] const croupier::run::EstimationRecorder* estimation() const {
    return estimation_.get();
  }
  [[nodiscard]] const croupier::run::SampledGraphStatsRecorder*
  graph_sampled() const {
    return graph_sampled_.get();
  }
  [[nodiscard]] const croupier::run::RandomnessAuditRecorder* randomness()
      const {
    return randomness_.get();
  }
  [[nodiscard]] croupier::run::ScenarioProcess::Stats scenario_stats() const;

  /// Setup-phase World::spawn calls, timed from outside.
  [[nodiscard]] const Span& spawn() const { return spawn_; }

 private:
  Span spawn_;
  std::unique_ptr<croupier::run::World> world_;
  // After world_, as in Experiment: processes cancel pending events on
  // destruction, which needs the simulator alive.
  std::vector<std::unique_ptr<croupier::run::ScenarioProcess>> scenario_;
  std::unique_ptr<croupier::run::EstimationRecorder> estimation_;
  std::unique_ptr<croupier::run::SampledGraphStatsRecorder> graph_sampled_;
  std::unique_ptr<croupier::run::RandomnessAuditRecorder> randomness_;
};

}  // namespace perfbench
