// Named, seeded scenario generation layered on the uniform workload
// generator (DESIGN.md §12).
//
// The paper evaluates every optimizer against one uniformly random workload
// shape. Real deployments are not uniform: rates follow diurnal cycles and
// flash crowds, join selectivities are skewed, sources cluster
// geographically, failures correlate within a region. A Scenario bundles a
// network, a workload and the non-uniform structure as *data* — rate curves,
// a fixed failure script, a pure rate-modulation function — so the chaos
// harness, the engine and the benches can all replay exactly the same
// conditions from one (name, seed) pair.
//
// Everything is deterministic: all randomness flows through one Prng forked
// per concern, and the rate curves are pure functions of (stream, time), so
// the chaos digest of a scenario stays bitwise-identical across planner
// thread counts (the PR-2 contract).
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/prng.h"
#include "engine/chaos.h"
#include "net/gtitm.h"
#include "net/network.h"
#include "workload/generator.h"

namespace iflow::workload {

/// Time-varying multiplier on a stream's catalog rate. Pure data so the
/// same curve can drive the engine (EngineConfig::rate_factor), the chaos
/// delivery twins (ChaosConfig::rate_modulation) and the planner-facing
/// kRateSpike samples in a scenario's script.
struct RateCurve {
  enum class Shape : std::uint8_t { kConstant, kDiurnal, kFlashCrowd };
  Shape shape = Shape::kConstant;

  // kDiurnal: factor(t) = 1 + amplitude * sin(2*pi*t/period + phase).
  double period_s = 40.0;
  double amplitude = 0.0;  // in [0, 1)
  double phase = 0.0;      // radians

  // kFlashCrowd: factor(t) = burst_factor inside the burst window, 1 outside.
  double burst_start_s = 0.0;
  double burst_duration_s = 0.0;
  double burst_factor = 1.0;

  double factor_at(double t) const;
};

/// How pairwise join selectivities are drawn.
enum class SelectivityModel : std::uint8_t {
  kUniform,     // the generator's uniform [min, max] draw
  kZipf,        // rank-skewed: a few hot pairs near max, a long cheap tail
  kCorrelated,  // block structure: high within stream groups, low across
};

/// Where stream sources and query sinks land.
enum class PlacementModel : std::uint8_t {
  kUniform,       // anywhere (the generator's draw)
  kGeoClustered,  // sources packed into a few stub domains, sinks elsewhere
};

/// Shape of the query set.
enum class StructureModel : std::uint8_t {
  kRandomSpj,      // the generator's random select-project-join queries
  kDeepChains,     // every query joins exactly max_joins+1 streams (8-way)
  kSharedSources,  // a family sharing a hot stream pair and a common sink
  kUnionFanIn,     // UNION ALL scripts compiled through the SQL front-end
};

/// Correlated failure script replayed through engine::run_churn.
enum class FailureProfile : std::uint8_t {
  kNone,            // injector-drawn churn (run_churn)
  kClusterOutage,   // whole stub domains crash and recover together
  kFlappingRegion,  // one domain's nodes flap down/up repeatedly
  kLossStorm,       // loss + jitter re-drawn across many links, then a storm
  kGraySlowNode,    // gray failure: a node runs slow but stays up
  kGrayLossyLink,   // gray failure: a link pair silently drops tuples
  kGrayFlapper,     // gray failure: a node cycles sick/healthy sub-epoch
};

/// Complete recipe for one scenario. `scenario_spec(name)` returns the
/// catalogue entry; all knobs stay overridable for tests.
struct ScenarioSpec {
  std::string name;
  std::uint64_t seed = 1;
  net::TransitStubParams topology;  // default small shape, see scenario.cpp
  WorkloadParams workload;
  int num_queries = 6;

  RateCurve::Shape rates = RateCurve::Shape::kConstant;
  SelectivityModel selectivity = SelectivityModel::kUniform;
  PlacementModel placement = PlacementModel::kUniform;
  StructureModel structure = StructureModel::kRandomSpj;
  FailureProfile failures = FailureProfile::kNone;

  /// kZipf: selectivity of the rank-r pair decays as 1 / r^zipf_exponent.
  double zipf_exponent = 1.1;
  /// kCorrelated / kGeoClustered: number of stream groups / stub domains
  /// the structure concentrates in.
  int clusters = 2;
  /// Failure script intensity: outages, flap cycles, or storm waves.
  int failure_rounds = 3;
};

/// A fully materialised scenario: everything the matrix driver needs to run
/// one (optimizer, scenario) cell through the chaos + delivery contracts.
struct Scenario {
  ScenarioSpec spec;
  net::Network net;
  Workload workload;
  /// Per-stream rate curves, parallel to catalog stream ids. Empty when the
  /// scenario's rates are constant.
  std::vector<RateCurve> rate_curves;
  /// Fixed failure script for run_churn; empty = injector-drawn churn.
  /// Scripts are valid by construction (no double-faults, everything
  /// restorable).
  std::vector<engine::ChaosEvent> script;

  /// Pure rate-modulation closure over `rate_curves` (by value, so it
  /// outlives the Scenario). Null when rates are constant.
  std::function<double(query::StreamId, double)> rate_modulation() const;
};

/// Names of the built-in catalogue, in canonical order.
const std::vector<std::string>& scenario_names();

/// Catalogue lookup; throws on unknown names.
ScenarioSpec scenario_spec(const std::string& name);

/// Materialises a spec. Deterministic: equal specs yield bitwise-identical
/// scenarios (networks, catalogs, scripts).
Scenario build_scenario(const ScenarioSpec& spec);

/// Seeded registration-churn script over a pool of `pool_size` queries for
/// engine::run_registration_churn. Four phases: a ramp-up registering the
/// whole pool, `steady_events` of mixed register/unregister churn with
/// interleaved node/link faults and rate spikes, a flash-crowd burst
/// re-registering everything absent, and a half-pool drain. Fault events are
/// applicable by construction; register/unregister events assume every
/// register was admitted (the runner skips the ones admission rejected).
std::vector<engine::ChaosEvent> make_churn_script(
    const net::Network& net, const query::Catalog& catalog,
    std::size_t pool_size, std::uint64_t seed, int steady_events = 32);

}  // namespace iflow::workload
