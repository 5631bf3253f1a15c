#include "workloads.h"

namespace perfbench {

double ship_to_sink_cost(const iflow::query::Query& q,
                         const iflow::query::Catalog& catalog,
                         const iflow::net::RoutingTables& rt) {
  double cost = 0.0;
  for (int i = 0; i < q.k(); ++i) {
    const iflow::query::StreamDef& s =
        catalog.stream(q.sources[static_cast<std::size_t>(i)]);
    cost += s.tuple_rate * s.tuple_width * q.filter(i) *
            rt.cost(s.source, q.sink);
  }
  return cost;
}

bool run_workload(const std::string& name, Run& run, Outcome* out) {
  if (name == "stream-lossy") {
    *out = stream_lossy(run);
  } else if (name == "control-churn") {
    *out = control_churn(run);
  } else if (name == "scale-sparse") {
    *out = scale_sparse(run);
  } else {
    return false;
  }
  return true;
}

}  // namespace perfbench
