// Deployment verification: a structured validity pass over optimizer
// outputs.
//
// The six optimizers all emit `query::Deployment`s whose correctness the
// rest of the system (sessions, the engine, the benches) trusts blindly.
// `validate` re-derives every invariant a well-formed deployment must
// satisfy — structural (topological op order, mask composition, child
// encoding), placement (nodes exist, processing-node restriction honoured
// modulo the documented cluster fallback), semantic (unit masks partition
// the query's source set, recorded rates agree with the RateModel) and
// economic (planned cost matches `deployment_cost()` re-evaluation, and the
// marginal accounting charges reused derived units only their
// provider→consumer edge) — and returns the violations as data rather than
// throwing, so the differential fuzz harness can aggregate them and the
// mutation tests can assert which invariant fired.
//
// `check_result` (via IFLOW_VERIFY_RESULT) is the debug-build hook wired
// into every Optimizer subclass: it throws CheckError listing the
// violations, and compiles to nothing under NDEBUG so Release planning hot
// paths pay zero cost.
#pragma once

#include <string>
#include <vector>

#include "opt/optimizer.h"
#include "query/plan.h"

namespace iflow::verify {

/// One invariant class per code, so tests can assert exactly which
/// invariant a corrupted deployment trips.
enum class ViolationCode {
  kNoUnits,               // deployment has no leaf units at all
  kEmptyUnitMask,         // a unit covers no sources
  kOverlappingUnits,      // two leaf units share a source bit
  kInvalidUnitLocation,   // unit location outside the network
  kNegativeUnitRate,      // unit byte/tuple rate below zero
  kChildOutOfRange,       // child code resolves outside units/ops arenas
  kChildOrder,            // op consumes an op at an equal or later index
  kInputConsumedTwice,    // a unit or op feeds two different parents
  kOrphanOp,              // a non-root op is consumed by nobody
  kOverlappingChildMasks, // an op joins inputs sharing a source bit
  kOpMaskMismatch,        // op mask != union of its child masks
  kInvalidOpNode,         // op placed outside the network
  kNonProcessingNode,     // op on a non-processing node without a fallback
  kRootNotCovering,       // root op mask != union of all unit masks
  kDanglingUnits,         // several units but no join op connecting them
  kInvalidSink,           // sink missing or outside the network
  kSourceCoverageMismatch,// unit masks do not partition the query's sources
  kUnitRateDrift,         // unit rates disagree with the RateModel
  kOpRateDrift,           // op output rates disagree with the RateModel
  kPlannedCostMismatch,   // planned cost far from deployment_cost()
  kMarginalCostMismatch,  // deployment_cost() != independent edge re-sum
  kExcludedHost,          // element on a failed or load-shed host
};

const char* to_string(ViolationCode code);

struct Violation {
  ViolationCode code;
  std::string detail;
};

struct ValidateOptions {
  /// Enables the semantic checks (source coverage, rate propagation and the
  /// model-based marginal re-sum) when non-null. Requires `env.catalog`.
  const query::Query* query = nullptr;
  /// When >= 0, checked against `deployment_cost()` re-evaluation. Pass the
  /// optimizer's planned cost for exact-oracle algorithms (every in-tree
  /// optimizer reports its cost against the true routing tables).
  double planned_cost = -1.0;
  /// Recorded per-op candidate scopes (`OptimizeResult::op_scopes`), parallel
  /// to `d.ops`. When present for an op, the placement check becomes exact:
  /// the op must sit inside its scope, on a processing node whenever the
  /// scope holds one. When absent, scopes are assumed derivable from the
  /// environment (whole network or hierarchy clusters).
  const std::vector<std::vector<net::NodeId>>* op_scopes = nullptr;
  /// Hosts no deployed element may sit on — failed, crashed or load-shed
  /// nodes (`Middleware::excluded_hosts()`). Unlike the processing-node
  /// restriction this has no cluster fallback: a deployment that keeps an
  /// operator, a derived unit or its sink on an excluded host is invalid
  /// outright (kExcludedHost). Sorted or not; checked by linear scan.
  const std::vector<net::NodeId>* excluded_hosts = nullptr;
};

/// Runs every applicable invariant and returns the violations (empty =
/// valid). Checks that would read out-of-bounds after a structural
/// violation are skipped, never crash.
std::vector<Violation> validate(const query::Deployment& d,
                                const opt::OptimizerEnv& env,
                                const ValidateOptions& opts = {});

/// True when any violation carries `code`.
bool has_violation(const std::vector<Violation>& violations,
                   ViolationCode code);

/// Human-readable one-per-line rendering of a violation list.
std::string describe(const std::vector<Violation>& violations);

/// Debug hook body: validates a feasible OptimizeResult against its
/// environment and query and throws CheckError describing every violation.
/// Infeasible results pass through untouched.
void check_result(const opt::OptimizeResult& res, const opt::OptimizerEnv& env,
                  const query::Query& q);

}  // namespace iflow::verify

// Self-validation of optimizer outputs: active in debug builds, compiled
// out (zero cost) under NDEBUG, mirroring IFLOW_DCHECK.
#ifdef NDEBUG
#define IFLOW_VERIFY_RESULT(res, env, q) \
  do {                                   \
  } while (0)
#else
#define IFLOW_VERIFY_RESULT(res, env, q) \
  ::iflow::verify::check_result((res), (env), (q))
#endif
