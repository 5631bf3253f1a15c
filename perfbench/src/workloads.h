// The benchmark's workloads. Each generates every input from
// run.opts().seed, loops episodes until run.next_episode() says stop, and
// returns its checked outputs; see README.md for why each was chosen.
#pragma once

#include <string>

#include "bench.h"
#include "net/routing.h"
#include "query/catalog.h"
#include "query/query.h"

namespace perfbench {

/// Reliable data plane at 2% per-link loss with checkpoints, against a
/// loss-free reference run of the same deployment.
Outcome stream_lossy(Run& run);

/// Register/unregister churn with admission control, settles and node/link
/// faults against one Middleware.
Outcome control_churn(Run& run);

/// Sparse routing tier, partitioned hierarchy and SparseOracle at ~3k
/// nodes: cold plans, then link faults with repair and replanning.
Outcome scale_sparse(Run& run);

/// Cost per second of shipping every source stream of `q` raw to its sink
/// over the cheapest routes: the library-independent yardstick plan costs
/// are divided by, so the reported cost ratio does not swing with how far
/// a seed happened to scatter sources and sinks.
double ship_to_sink_cost(const iflow::query::Query& q,
                         const iflow::query::Catalog& catalog,
                         const iflow::net::RoutingTables& rt);

/// Dispatches by workload name; false when the name is unknown.
bool run_workload(const std::string& name, Run& run, Outcome* out);

}  // namespace perfbench
