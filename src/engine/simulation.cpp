#include "engine/simulation.h"

#include <algorithm>
#include <cmath>
#include <cstring>

namespace iflow::engine {

namespace {

/// Each retry multiplies the retransmit timeout by this factor (capped at
/// ReliabilityConfig::max_backoff_s).
constexpr double kBackoffFactor = 2.0;

/// Projection factor of composite tuple widths. Must match the RateModel
/// projection used when planning.
constexpr double kProjectionFactor = 1.0;

/// Half-width of the symmetric hash joins' window: a pair matches when its
/// tuples were born within ±0.5 s of each other, a 1 s window, so measured
/// join rates match the analytic per-second model (see simulation.h).
constexpr double kJoinWindowS = 0.5;
static_assert(kJoinWindowS > 0.0);

std::string producer_key(const std::vector<query::StreamId>& streams,
                         net::NodeId node) {
  std::string key = std::to_string(node) + ":";
  for (auto s : streams) key += std::to_string(s) + ",";
  return key;
}

std::uint64_t link_key(net::NodeId a, net::NodeId b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::uint64_t>(a) << 32) | b;
}

}  // namespace

Simulation::Simulation(const net::Network& net, const net::RoutingTables& rt,
                       const query::Catalog& catalog, const EngineConfig& cfg,
                       std::uint64_t seed)
    : net_(&net),
      rt_(&rt),
      catalog_(&catalog),
      cfg_(cfg),
      prng_(seed),
      net_prng_(seed ^ 0xAC4DE11FE55ULL) {
  IFLOW_CHECK(cfg.duration_s > 0.0);
  const ReliabilityConfig& r = cfg.reliability;
  IFLOW_CHECK_MSG(r.enabled, "every data edge is a channel; "
                             "reliability.enabled must stay true");
  IFLOW_CHECK_MSG(cfg.duration_s > r.drain_s,
                  "duration must exceed the drain window");
  IFLOW_CHECK(r.ack_timeout_s > 0.0);
  IFLOW_CHECK(r.max_backoff_s >= r.ack_timeout_s);
  IFLOW_CHECK(r.max_retries >= 0 && r.window > 0);
  if (cfg.checkpoint.enabled) IFLOW_CHECK(cfg.checkpoint.interval_s > 0.0);
  link_bytes_.assign(net.link_count(), 0.0);
  for (std::size_t i = 0; i < net.link_count(); ++i) {
    link_index_.emplace(link_key(net.links()[i].a, net.links()[i].b), i);
  }
  routes_.emplace_back(0, 0);  // route 0: co-located, no links
}

std::uint32_t Simulation::key_domain(query::StreamId a,
                                     query::StreamId b) const {
  const double sel = catalog_->selectivity(a, b);
  return static_cast<std::uint32_t>(
      std::max<long long>(1, std::llround(1.0 / sel)));
}

double Simulation::composite_width(
    const std::vector<query::StreamId>& streams) const {
  double w = 0.0;
  for (auto s : streams) w += catalog_->stream(s).tuple_width;
  if (streams.size() > 1) w *= kProjectionFactor;
  return w;
}

Simulation::InstanceId Simulation::source_for(query::StreamId s) {
  const auto it = sources_.find(s);
  if (it != sources_.end()) return it->second;
  Instance inst;
  inst.kind = Kind::kSource;
  inst.node = catalog_->stream(s).source;
  inst.streams = {s};
  inst.source_stream = s;
  instances_.push_back(std::move(inst));
  const auto id = static_cast<InstanceId>(instances_.size() - 1);
  sources_.emplace(s, id);
  // First emission: random phase so colocated sources do not synchronise.
  const double rate = source_rate(s, 0.0);
  schedule(Event{prng_.uniform(0.0, 1.0 / rate), next_seq_++, id, -1, nullptr});
  return id;
}

Simulation::InstanceId Simulation::find_producer(
    const std::vector<query::StreamId>& streams, net::NodeId node) const {
  const auto it = producers_.find(producer_key(streams, node));
  IFLOW_CHECK_MSG(it != producers_.end(),
                  "no deployed producer for derived stream at node " << node);
  return it->second;
}

void Simulation::register_producer(const std::vector<query::StreamId>& streams,
                                   net::NodeId node, InstanceId id) {
  producers_.emplace(producer_key(streams, node), id);
}

void Simulation::deploy(const query::Deployment& d,
                        const query::RateModel& rates) {
  IFLOW_CHECK_MSG(!ran_, "deploy before run()");
  query::validate_deployment(d);

  auto streams_of_mask = [&rates](query::Mask m) {
    std::vector<query::StreamId> streams;
    for (int i = 0; i < rates.k(); ++i) {
      if (m >> i & 1) streams.push_back(rates.stream(i));
    }
    std::sort(streams.begin(), streams.end());
    return streams;
  };

  // Wires a data edge: its own channel (sequence numbers, replay buffer,
  // dedup) attributed to the deploying query.
  auto connect = [this, &d](InstanceId from, InstanceId to, int port) {
    if (instances_[to].kind == Kind::kJoin) {
      instances_[to].lead[port] = instances_[from].streams.front();
    }
    Channel ch;
    ch.producer = from;
    ch.consumer = to;
    ch.port = port;
    ch.query = d.query;
    channels_.push_back(std::move(ch));
    instances_[from].outputs.push_back(
        static_cast<std::uint32_t>(channels_.size() - 1));
  };

  // Interposes a selection operator at `node` in front of `producer`.
  auto filtered = [this, &d, &connect](InstanceId producer, net::NodeId node,
                                       double pass_probability) {
    Instance filter;
    filter.kind = Kind::kFilter;
    filter.node = node;
    filter.streams = instances_[producer].streams;
    filter.pass_probability = pass_probability;
    filter.owner = d.query;
    instances_.push_back(std::move(filter));
    const auto id = static_cast<InstanceId>(instances_.size() - 1);
    connect(producer, id, 0);
    return id;
  };

  // Resolve each leaf unit to a producing instance.
  std::vector<InstanceId> unit_producer;
  for (const query::LeafUnit& u : d.units) {
    const auto streams = streams_of_mask(u.mask);
    if (u.derived) {
      InstanceId producer = find_producer(streams, u.location);
      if (u.residual_filter < 1.0) {
        // Containment reuse: trim the broader stream at the provider.
        producer = filtered(producer, u.location, u.residual_filter);
      }
      unit_producer.push_back(producer);
    } else {
      IFLOW_CHECK_MSG(streams.size() == 1,
                      "non-derived composite unit has no engine producer");
      InstanceId producer = source_for(streams[0]);
      // Query selection predicates are applied at the source (§1).
      const double f = rates.query().filter_on(streams[0]);
      if (f < 1.0) {
        producer = filtered(producer, instances_[producer].node, f);
      }
      unit_producer.push_back(producer);
    }
  }

  // Join operators (arena order = children first).
  std::vector<InstanceId> op_instance;
  for (const query::DeployedOp& op : d.ops) {
    Instance inst;
    inst.kind = Kind::kJoin;
    inst.node = op.node;
    inst.streams = streams_of_mask(op.mask);
    inst.owner = d.query;
    instances_.push_back(std::move(inst));
    const auto id = static_cast<InstanceId>(instances_.size() - 1);
    op_instance.push_back(id);
    int port = 0;
    for (int child : {op.left, op.right}) {
      const InstanceId producer =
          query::child_is_unit(child)
              ? unit_producer[static_cast<std::size_t>(
                    query::child_unit_index(child))]
              : op_instance[static_cast<std::size_t>(child)];
      connect(producer, id, port++);
    }
    register_producer(instances_[id].streams, op.node, id);
  }

  // Sink.
  Instance sink;
  sink.kind = Kind::kSink;
  sink.node = d.sink;
  sink.query = d.query;
  sink.owner = d.query;
  sink.streams = streams_of_mask([&] {
    query::Mask all = 0;
    for (const query::LeafUnit& u : d.units) all |= u.mask;
    return all;
  }());
  instances_.push_back(std::move(sink));
  const auto sink_id = static_cast<InstanceId>(instances_.size() - 1);
  InstanceId root = d.ops.empty() ? unit_producer[0] : op_instance.back();
  if (d.aggregate.enabled()) {
    // Windowed aggregation co-located with the root producer; only the
    // (smaller) aggregate stream travels to the sink.
    Instance agg;
    agg.kind = Kind::kAggregate;
    agg.node = instances_[root].node;
    agg.streams = instances_[sink_id].streams;
    agg.aggregation = d.aggregate;
    agg.owner = d.query;
    instances_.push_back(std::move(agg));
    const auto agg_id = static_cast<InstanceId>(instances_.size() - 1);
    connect(root, agg_id, 0);
    root = agg_id;
    connect(root, sink_id, 0);
    // Aggregated results are query-specific; they are not re-exported as
    // derived streams.
  } else {
    connect(root, sink_id, 0);
    // The sink re-exports the full result (it is itself a derived source):
    // tuples arriving there are forwarded to any later subscriber.
    register_producer(instances_[sink_id].streams, d.sink, sink_id);
  }

  // Health watch for availability/downtime accounting under faults.
  QueryWatch watch;
  watch.query = d.query;
  query::Mask full = 0;
  for (const query::LeafUnit& u : d.units) full |= u.mask;
  watch.expected_rate = rates.tuple_rate(full);
  if (d.aggregate.enabled()) {
    // Expected non-empty groups per tumbling window (occupancy formula),
    // emitted once per window.
    const double per_window = watch.expected_rate * d.aggregate.window_s;
    const double g = std::max(1.0, d.aggregate.groups);
    const double nonempty = g * (1.0 - std::pow(1.0 - 1.0 / g, per_window));
    watch.expected_rate = nonempty / d.aggregate.window_s;
  }
  for (const query::LeafUnit& u : d.units) watch.nodes.push_back(u.location);
  for (const query::DeployedOp& op : d.ops) watch.nodes.push_back(op.node);
  watch.nodes.push_back(d.sink);
  const auto loc_of = [&d](int child) {
    return query::child_is_unit(child)
               ? d.units[static_cast<std::size_t>(
                             query::child_unit_index(child))]
                     .location
               : d.ops[static_cast<std::size_t>(child)].node;
  };
  for (const query::DeployedOp& op : d.ops) {
    for (int child : {op.left, op.right}) {
      const net::NodeId from = loc_of(child);
      if (from != op.node) watch.edges.emplace_back(from, op.node);
    }
  }
  if (d.root_node() != d.sink) watch.edges.emplace_back(d.root_node(), d.sink);
  watches_.push_back(std::move(watch));
}

void Simulation::schedule_fault(const SimFault& f) {
  IFLOW_CHECK_MSG(!ran_, "schedule_fault before run()");
  IFLOW_CHECK(f.time >= 0.0);
  if (!fnet_) {
    fnet_ = std::make_unique<net::Network>(*net_);
  }
  faults_.push_back(f);
  const auto idx = static_cast<InstanceId>(faults_.size() - 1);
  schedule(Event{f.time, next_seq_++, idx, kFaultPort, nullptr});
}

void Simulation::apply_fault(double now, const SimFault& f) {
  switch (f.kind) {
    case SimFault::Kind::kFailLink: fnet_->fail_link(f.a, f.b); break;
    case SimFault::Kind::kRestoreLink: fnet_->restore_link(f.a, f.b); break;
    case SimFault::Kind::kCrashNode: fnet_->crash_node(f.a); break;
    case SimFault::Kind::kRestoreNode: fnet_->restore_node(f.a); break;
    case SimFault::Kind::kSetLinkLoss:
      fnet_->set_link_loss(f.a, f.b, f.value);
      break;
    case SimFault::Kind::kSetLinkJitter:
      fnet_->set_link_jitter(f.a, f.b, f.value);
      break;
    case SimFault::Kind::kMigrateOps:
      break;  // handled below, after routing reflects the current world
  }
  if (frt_ == nullptr) {
    frt_ = std::make_unique<net::RoutingTables>(
        net::RoutingTables::build(*fnet_));
  } else {
    frt_->sync(*fnet_);
  }
  invalidate_routes();
  // Checkpoint-plane reactions run after the routing sync so replayed
  // retention and migrated edges see the post-fault routes.
  if (f.kind == SimFault::Kind::kCrashNode) {
    if (cfg_.checkpoint.enabled) abort_epoch(now);
    if (cfg_.checkpoint.volatile_state) {
      // Volatile model: a crash loses the node's operator state (windows,
      // queues). Channel protocol state survives — transport endpoints
      // re-handshake, they do not forget what was delivered.
      for (Instance& inst : instances_) {
        if (inst.node == f.a) wipe_operator_state(inst);
      }
    }
  } else if (f.kind == SimFault::Kind::kRestoreNode) {
    if (cfg_.checkpoint.enabled) recover_node(now, f.a);
  } else if (f.kind == SimFault::Kind::kMigrateOps) {
    migrate_ops(now, f.a, f.b);
  }
  update_watches(now);
}

void Simulation::update_watches(double now) {
  for (QueryWatch& w : watches_) {
    bool down = false;
    for (net::NodeId n : w.nodes) down |= !fnet_->node_alive(n);
    for (const auto& [a, b] : w.edges) down |= !frt_->reachable(a, b);
    if (down && !w.broken) {
      w.broken = true;
      w.broken_since = now;
    } else if (!down && w.broken) {
      w.broken = false;
      w.downtime_s += now - w.broken_since;
    }
  }
}

void Simulation::schedule(Event e) {
  events_.push_back(std::move(e));
  std::push_heap(events_.begin(), events_.end(), std::greater<>{});
}

std::uint32_t Simulation::route(net::NodeId from, net::NodeId dest) {
  if (from == dest) return 0;
  const auto [it, fresh] = route_ids_.try_emplace(
      (static_cast<std::uint64_t>(from) << 32) | dest, kNoRoute);
  if (!fresh) return it->second;
  const std::vector<net::NodeId> path = cur_rt().cost_path(from, dest);
  if (path.empty()) return kNoRoute;  // partitioned
  const auto begin = static_cast<std::uint32_t>(route_links_.size());
  for (std::size_t h = 0; h + 1 < path.size(); ++h) {
    const auto li = link_index_.find(link_key(path[h], path[h + 1]));
    IFLOW_CHECK(li != link_index_.end());
    route_links_.push_back(static_cast<std::uint32_t>(li->second));
  }
  routes_.emplace_back(begin, static_cast<std::uint32_t>(route_links_.size()));
  it->second = static_cast<std::uint32_t>(routes_.size() - 1);
  return it->second;
}

std::span<const std::uint32_t> Simulation::route_links(std::uint32_t r) const {
  const auto [begin, end] = routes_[r];
  return {route_links_.data() + begin, end - begin};
}

bool Simulation::route_severed(std::uint32_t r) const {
  for (const std::uint32_t li : route_links(r)) {
    if (!fnet_->usable(li)) return true;
  }
  return false;
}

void Simulation::invalidate_routes() {
  ++route_epoch_;
  route_ids_.clear();
}

void Simulation::refresh_routes(Channel& c) {
  if (c.route_epoch == route_epoch_) return;
  const net::NodeId producer = instances_[c.producer].node;
  const net::NodeId consumer = instances_[c.consumer].node;
  c.data_route = route(producer, consumer);
  c.ack_route = route(consumer, producer);
  c.route_epoch = route_epoch_;
}

TuplePtr Simulation::make_source_tuple(query::StreamId s, double now) {
  auto t = std::make_shared<Tuple>();
  t->born = now;
  t->constituents = {s};
  const auto n = catalog_->stream_count();
  t->keys.resize(n);
  for (query::StreamId other = 0; other < n; ++other) {
    if (other == s) {
      t->keys[other] = 0;
      continue;
    }
    t->keys[other] = static_cast<std::uint32_t>(
        prng_.uniform_int(0, static_cast<std::int64_t>(key_domain(s, other)) - 1));
  }
  t->width = composite_width(t->constituents);
  return t;
}

bool Simulation::matches(const Tuple& a, const Tuple& b) const {
  const auto n = catalog_->stream_count();
  for (std::size_t i = 0; i < a.constituents.size(); ++i) {
    for (std::size_t j = 0; j < b.constituents.size(); ++j) {
      const query::StreamId sa = a.constituents[i];
      const query::StreamId sb = b.constituents[j];
      if (a.keys[i * n + sb] != b.keys[j * n + sa]) return false;
    }
  }
  return true;
}

TuplePtr Simulation::join_tuples(const Tuple& a, const Tuple& b) const {
  const auto n = catalog_->stream_count();
  auto t = std::make_shared<Tuple>();
  t->born = std::max(a.born, b.born);
  // Merge the sorted constituent lists, carrying each one's key row.
  t->constituents.reserve(a.constituents.size() + b.constituents.size());
  t->keys.reserve(a.keys.size() + b.keys.size());
  std::size_t i = 0;
  std::size_t j = 0;
  while (i < a.constituents.size() || j < b.constituents.size()) {
    const bool take_a =
        j >= b.constituents.size() ||
        (i < a.constituents.size() && a.constituents[i] < b.constituents[j]);
    const Tuple& src = take_a ? a : b;
    const std::size_t idx = take_a ? i++ : j++;
    t->constituents.push_back(src.constituents[idx]);
    t->keys.insert(t->keys.end(), src.keys.begin() + static_cast<std::ptrdiff_t>(idx * n),
                   src.keys.begin() + static_cast<std::ptrdiff_t>((idx + 1) * n));
  }
  t->width = composite_width(t->constituents);
  return t;
}

void Simulation::send(double now, InstanceId producer, const TuplePtr& tuple) {
  Instance& inst = instances_[producer];
  for (const std::uint32_t ch : inst.outputs) {
    inst.tuples_sent += 1;
    inst.bytes_sent += tuple->width;
    channel_send(now, ch, tuple);
  }
}

// --- Channel data plane ----------------------------------------------------

void Simulation::channel_send(double now, std::uint32_t ch,
                              const TuplePtr& tuple) {
  Channel& c = channels_[ch];
  if (c.pending_live >= cfg_.reliability.window) {
    // Sliding window full: park the tuple in the ack-trimmed backlog. This
    // is how backpressure propagates upstream — the producer's output
    // simply waits until the consumer acks something.
    c.backlog.push_back(tuple);
    return;
  }
  const std::uint64_t seq = c.next_seq++;
  add_pending(c, seq, tuple, cfg_.checkpoint.enabled);
  transmit(now, ch, seq, /*is_retransmit=*/false);
}

Simulation::PendingTuple* Simulation::find_pending(Channel& c,
                                                   std::uint64_t seq) {
  if (seq < c.pending_lo || seq - c.pending_lo >= c.pending.size()) {
    return nullptr;
  }
  PendingTuple& p = c.pending[seq - c.pending_lo];
  return p.tuple ? &p : nullptr;
}

void Simulation::add_pending(Channel& c, std::uint64_t seq,
                             const TuplePtr& tuple, bool retain) {
  if (c.pending.empty()) c.pending_lo = seq;
  IFLOW_CHECK(seq == c.pending_lo + c.pending.size());
  c.pending.push_back(PendingTuple{tuple});
  ++c.pending_live;
  if (retain) {
    // Retention: keep everything sent at or past the last committed cut so
    // a downstream rollback can be replayed. Trimmed at epoch commit.
    if (c.retained.empty()) c.retained_lo = seq;
    IFLOW_CHECK(seq == c.retained_lo + c.retained.size());
    c.retained.push_back(tuple);
    c.retained_high_water = std::max(c.retained_high_water, c.retained.size());
  }
}

void Simulation::drop_pending(Channel& c, std::uint64_t seq) {
  c.pending[seq - c.pending_lo].tuple.reset();
  --c.pending_live;
  while (!c.pending.empty() && !c.pending.front().tuple) {
    c.pending.pop_front();
    ++c.pending_lo;
  }
}

void Simulation::hop_degradation(const net::Link& link, double now,
                                 double* extra_loss, double* slowdown) const {
  double keep = 1.0;
  double slow = 1.0;
  const net::Network& n = cur_net();
  const auto fold = [&](const net::Degradation& d) {
    if (!net::degraded_at(d, now)) return;
    keep *= 1.0 - d.loss;
    slow = std::max(slow, d.slowdown);
  };
  fold(link.degradation);
  fold(n.node_degradation(link.a));
  fold(n.node_degradation(link.b));
  *extra_loss = 1.0 - keep;
  *slowdown = slow;
}

void Simulation::transmit(double now, std::uint32_t ch, std::uint64_t seq,
                          bool is_retransmit) {
  Channel& c = channels_[ch];
  PendingTuple* const p = find_pending(c, seq);
  IFLOW_CHECK(p != nullptr);
  const TuplePtr& tuple = p->tuple;
  const net::NodeId dest = instances_[c.consumer].node;
  refresh_routes(c);
  double arrive = now;
  double expected_rtt = 0.0;  // clean-network data path + ack return
  bool lost = false;
  ++c.sent;
  if (fnet_ && !fnet_->node_alive(dest)) {
    // Nothing reaches a dead node; the timeout below will replay the tuple
    // once the node (or a route to it) comes back — or give up after the
    // retry budget.
    lost = true;
  } else if (c.data_route == kNoRoute) {
    lost = true;  // partitioned; replay after the route heals
  } else {
    for (const std::uint32_t li : route_links(c.data_route)) {
      const net::Link& link = cur_net().links()[li];
      // The lossy hop still carried the bytes: charge up to and including
      // the hop that drops the tuple.
      link_bytes_[li] += tuple->width;
      if (is_retransmit) {
        c.retransmit_bytes += tuple->width;
      } else {
        c.data_bytes += tuple->width;
      }
      const double hop_s =
          link.delay_ms / 1000.0 + tuple->width * 8.0 / link.bandwidth_bps;
      // Expected RTT uses the clean model: the data hop plus the ack's
      // delay-only return, no degradation, no jitter.
      expected_rtt += hop_s + link.delay_ms / 1000.0;
      double extra_loss = 0.0;
      double slowdown = 1.0;
      hop_degradation(link, now, &extra_loss, &slowdown);
      arrive += hop_s * slowdown;
      if (link.loss > 0.0 && net_prng_.chance(link.loss)) {
        lost = true;
        break;
      }
      if (extra_loss > 0.0 && net_prng_.chance(extra_loss)) {
        lost = true;  // gray hop dropped the tuple
        break;
      }
      if (link.jitter_ms > 0.0) {
        arrive += net_prng_.uniform(0.0, link.jitter_ms / 1000.0);
      }
    }
  }
  p->sent_at = now;
  p->expected_rtt_s = expected_rtt;
  if (!lost) {
    schedule(Event{arrive, next_seq_++, c.consumer, c.port, tuple,
                   c.data_route, ch, seq, c.incarnation});
  }
  // Always arm the retransmit timer; a timely ack disarms it by erasing the
  // pending entry before it fires.
  const ReliabilityConfig& r = cfg_.reliability;
  const double timeout = std::min(
      r.ack_timeout_s *
          std::pow(kBackoffFactor, static_cast<double>(p->retries)),
      r.max_backoff_s);
  if (p->retries == 0) {
    // First tries all wait ack_timeout_s, so the lane stays sorted.
    IFLOW_CHECK(timers_.empty() || timers_.back().time <= now + timeout);
    timers_.push_back(
        Timer{now + timeout, next_seq_++, ch, c.incarnation, seq});
  } else {
    schedule(Event{now + timeout, next_seq_++, c.producer, kTimeoutPort,
                   nullptr, 0, ch, seq, c.incarnation});
  }
}

void Simulation::send_ack(double now, std::uint32_t ch, std::uint64_t seq) {
  Channel& c = channels_[ch];
  const net::NodeId dest = instances_[c.producer].node;
  if (fnet_ && !fnet_->node_alive(dest)) return;  // sender is gone
  refresh_routes(c);
  if (c.ack_route == kNoRoute) return;
  double arrive = now;
  for (const std::uint32_t li : route_links(c.ack_route)) {
    // Acks are a few bytes — not charged to link totals.
    const net::Link& link = cur_net().links()[li];
    double extra_loss = 0.0;
    double slowdown = 1.0;
    hop_degradation(link, now, &extra_loss, &slowdown);
    arrive += link.delay_ms / 1000.0 * slowdown;
    if (link.loss > 0.0 && net_prng_.chance(link.loss)) return;  // ack lost
    if (extra_loss > 0.0 && net_prng_.chance(extra_loss)) return;
    if (link.jitter_ms > 0.0) {
      arrive += net_prng_.uniform(0.0, link.jitter_ms / 1000.0);
    }
  }
  schedule(Event{arrive, next_seq_++, c.producer, kAckPort, nullptr,
                 c.ack_route, ch, seq, c.incarnation});
}

void Simulation::handle_ack(double now, std::uint32_t ch, std::uint64_t seq) {
  Channel& c = channels_[ch];
  const PendingTuple* const p = find_pending(c, seq);
  if (p == nullptr) return;  // duplicate ack
  c.rtt_sum_ms += (now - p->sent_at) * 1000.0;
  c.expected_rtt_sum_ms += p->expected_rtt_s * 1000.0;
  ++c.rtt_samples;
  drop_pending(c, seq);
  pump_backlog(now, ch);
}

void Simulation::handle_timeout(double now, std::uint32_t ch,
                                std::uint64_t seq) {
  Channel& c = channels_[ch];
  PendingTuple* const p = find_pending(c, seq);
  if (p == nullptr) return;  // acked in time
  if (p->retries >= cfg_.reliability.max_retries) {
    ++c.lost;  // retry budget exhausted: lost-after-retries
    drop_pending(c, seq);
    pump_backlog(now, ch);
    return;
  }
  ++p->retries;
  ++c.retransmits;
  transmit(now, ch, seq, /*is_retransmit=*/true);
}

void Simulation::pump_backlog(double now, std::uint32_t ch) {
  Channel& c = channels_[ch];
  while (!c.backlog.empty() && c.pending_live < cfg_.reliability.window) {
    const TuplePtr tuple = std::move(c.backlog.front());
    c.backlog.pop_front();
    const std::uint64_t seq = c.next_seq++;
    add_pending(c, seq, tuple, cfg_.checkpoint.enabled);
    transmit(now, ch, seq, /*is_retransmit=*/false);
  }
}

void Simulation::mark_seen(Channel& c, std::uint64_t s) {
  IFLOW_CHECK(s >= c.seen_floor);
  const std::uint64_t i = s - c.seen_floor;
  if (i == 0) {
    // In-order arrival: advance the floor directly instead of bouncing the
    // sequence through the out-of-order set.
    ++c.seen_floor;
    if (!c.seen.empty()) c.seen.pop_front();
  } else {
    if (c.seen.size() <= i) c.seen.resize(i + 1, false);
    if (!c.seen[i]) {
      c.seen[i] = true;
      ++c.seen_count;
    }
    c.seen_high_water = std::max(c.seen_high_water, c.seen_count);
  }
  // Compact: fold any contiguous run above the (possibly advanced) floor.
  while (!c.seen.empty() && c.seen.front()) {
    c.seen.pop_front();
    --c.seen_count;
    ++c.seen_floor;
  }
}

void Simulation::receive(double now, std::uint32_t ch, std::uint64_t seq,
                         int port, const TuplePtr& tuple) {
  Channel& c = channels_[ch];
  if (seq < c.seen_floor ||
      (seq - c.seen_floor < c.seen.size() && c.seen[seq - c.seen_floor])) {
    // Retransmit of something already delivered (the ack was lost or slow):
    // suppress the duplicate but re-ack so the sender trims its buffer.
    ++c.duplicates;
    send_ack(now, ch, seq);
    return;
  }
  Instance& inst = instances_[c.consumer];
  if (epoch_open_ && c.cut != Channel::kNoCut && seq >= c.cut &&
      !inst.snapped) {
    // Barrier alignment: a post-cut arrival before the receiver has
    // snapshotted. Ack it (so the sender's window keeps moving) but park it
    // in the alignment buffer without touching the dedup state — the floor
    // must meet the cut exactly for the snapshot to reduce to the cut.
    c.align[seq] = tuple;
    send_ack(now, ch, seq);
    return;
  }
  const ReliabilityConfig& r = cfg_.reliability;
  const bool queued = r.queue_capacity > 0 && r.service_s > 0.0 &&
                      inst.kind != Kind::kSource;
  if (!queued) {
    mark_seen(c, seq);
    send_ack(now, ch, seq);
    arrive_at(now, c.consumer, port, tuple);
    if (epoch_open_) maybe_snap(now, c.consumer);
    return;
  }
  if (inst.inbox.size() >= r.queue_capacity) {
    switch (r.overflow) {
      case OverflowPolicy::kBackpressure:
        // Refuse: no ack, no dedup entry. The sender's timeout replays the
        // tuple; meanwhile service completions drain the queue, so the
        // retransmit eventually finds room — bounded depth, no drops, no
        // deadlock.
        return;
      case OverflowPolicy::kDropNewest:
        ++inst.shed;
        mark_seen(c, seq);
        send_ack(now, ch, seq);  // shed deliberately: ack so nobody replays
        if (epoch_open_) maybe_snap(now, c.consumer);
        return;
      case OverflowPolicy::kDropOldest:
        ++inst.shed;
        inst.inbox.pop_front();
        break;
    }
  }
  mark_seen(c, seq);
  send_ack(now, ch, seq);
  inst.inbox.emplace_back(port, tuple);
  inst.max_queue_depth = std::max(inst.max_queue_depth, inst.inbox.size());
  if (!inst.busy) {
    inst.busy = true;
    schedule(Event{now + r.service_s, next_seq_++, c.consumer, kServicePort,
                   nullptr});
  }
  if (epoch_open_) maybe_snap(now, c.consumer);
}

void Simulation::handle_service(double now, InstanceId id) {
  Instance& inst = instances_[id];
  if (inst.inbox.empty()) {
    inst.busy = false;
    return;
  }
  const auto [port, tuple] = inst.inbox.front();
  inst.inbox.pop_front();
  arrive_at(now, id, port, tuple);
  if (inst.inbox.empty()) {
    inst.busy = false;
  } else {
    schedule(Event{now + cfg_.reliability.service_s, next_seq_++, id,
                   kServicePort, nullptr});
  }
}

// --- Checkpoint/recovery plane ---------------------------------------------

void Simulation::schedule_barrier(double after) {
  const double iv = cfg_.checkpoint.interval_s;
  double next = (std::floor(after / iv) + 1.0) * iv;
  // floor(after / iv) can round down one whole step when `after` sits exactly
  // on a barrier instant (e.g. a commit at the barrier timestamp with
  // 19.6 / 4.9 -> 3.9999...), which would schedule a zero-advance barrier and
  // loop forever at a frozen clock. Force strictly-future scheduling.
  while (next <= after) next += iv;
  if (next >= cfg_.duration_s) return;
  schedule(Event{next, next_seq_++, 0, kBarrierPort, nullptr});
}

void Simulation::begin_epoch(double now) {
  IFLOW_CHECK(!epoch_open_);
  // A dead host cannot participate in a coordinated snapshot — and worse,
  // its volatile state has already been wiped, so snapping it would commit
  // the post-crash emptiness as ground truth and recovery would "restore"
  // the loss (a crash fault and a barrier landing on the same timestamp
  // process fault-first). Skip the barrier and re-arm for the next interval.
  if (fnet_ != nullptr) {
    for (const Instance& i : instances_) {
      if (!fnet_->node_alive(i.node)) {
        schedule_barrier(now);
        return;
      }
    }
  }
  epoch_open_ = true;
  building_ = EpochSnapshot{};
  building_.epoch = next_epoch_++;
  building_.barrier_time = now;
  building_.inst.resize(instances_.size());
  building_.cuts.assign(channels_.size(), Channel::kNoCut);
  for (Channel& c : channels_) c.cut = Channel::kNoCut;
  for (Instance& i : instances_) i.snapped = false;
  unsnapped_ = instances_.size();
  // Barriers are injected at the sources; cuts cascade downstream from
  // there as each consumer's dedup floor reaches the cut on every input.
  for (InstanceId id = 0; id < instances_.size(); ++id) {
    if (epoch_open_ && instances_[id].kind == Kind::kSource) {
      snap_instance(now, id);
    }
  }
}

void Simulation::maybe_snap(double now, InstanceId id) {
  if (!epoch_open_ || instances_[id].snapped) return;
  for (const Channel& c : channels_) {
    if (c.consumer != id) continue;
    if (c.cut == Channel::kNoCut || c.seen_floor < c.cut) return;
  }
  snap_instance(now, id);
}

void Simulation::snap_instance(double now, InstanceId id) {
  Instance& inst = instances_[id];
  IFLOW_CHECK(epoch_open_ && !inst.snapped);
  inst.snapped = true;
  --unsnapped_;
  InstState st;
  st.window[0] = inst.join[0].window;
  st.window[1] = inst.join[1].window;
  st.max_born = inst.max_born;
  st.agg_windows = inst.agg_windows;
  st.inbox = inst.inbox;
  st.delivered = inst.delivered;
  st.latency_sum_s = inst.latency_sum_s;
  building_.inst[id] = std::move(st);
  // Stamp the cut on every output channel before anything else can flow:
  // all sequences below it belong to this epoch, everything at or above it
  // to the next.
  for (const std::uint32_t ci : inst.outputs) {
    Channel& ch = channels_[ci];
    IFLOW_CHECK(ch.cut == Channel::kNoCut);
    ch.cut = ch.next_seq;
    building_.cuts[ci] = ch.cut;
  }
  // Drain the alignment buffers of this instance's inputs in sequence
  // order. Outputs produced by the drain carry post-cut sequences, so
  // downstream alignment stays correct.
  for (std::uint32_t ci = 0; ci < channels_.size(); ++ci) {
    if (channels_[ci].consumer != id || channels_[ci].align.empty()) continue;
    std::map<std::uint64_t, TuplePtr> drained;
    drained.swap(channels_[ci].align);
    for (const auto& [s, t] : drained) {
      mark_seen(channels_[ci], s);
      arrive_at(now, id, channels_[ci].port, t);
    }
  }
  // The freshly stamped cuts may already be met on idle channels.
  for (const std::uint32_t ci : inst.outputs) {
    if (!epoch_open_) break;
    maybe_snap(now, channels_[ci].consumer);
  }
  if (epoch_open_ && unsnapped_ == 0) commit_epoch(now);
}

double Simulation::instance_state_bytes(const InstState& s) const {
  double b = 64.0;  // descriptor: kind, node, watermark, counters
  for (const auto* w : {&s.window[0], &s.window[1]}) {
    for (const WindowEntry& e : *w) b += 16.0 + e.tuple->width;
  }
  for (const auto& [w, groups] : s.agg_windows) {
    b += 16.0 + 8.0 * static_cast<double>(groups.size());
  }
  for (const auto& [port, t] : s.inbox) b += 16.0 + t->width;
  return b;
}

void Simulation::commit_epoch(double now) {
  IFLOW_CHECK(epoch_open_ && unsnapped_ == 0);
  epoch_open_ = false;
  const double replicas = static_cast<double>(kSnapshotReplicas);
  double total = 0.0;
  for (InstanceId id = 0; id < instances_.size(); ++id) {
    const double b = instance_state_bytes(building_.inst[id]) * replicas;
    snapshot_bytes_by_query_[instances_[id].owner] += b;
    total += b;
  }
  for (const Channel& c : channels_) {
    const double b = 16.0 * replicas;  // cut + incarnation
    snapshot_bytes_by_query_[c.query] += b;
    total += b;
  }
  building_.bytes = total;
  committed_ = std::move(building_);
  building_ = EpochSnapshot{};
  // The committed cut releases retention below it on every channel.
  for (std::uint32_t ci = 0; ci < channels_.size(); ++ci) {
    Channel& c = channels_[ci];
    const std::uint64_t cut = committed_.cuts[ci];
    IFLOW_CHECK(cut != Channel::kNoCut);
    while (!c.retained.empty() && c.retained_lo < cut) {
      c.retained.pop_front();
      ++c.retained_lo;
    }
  }
  ++snap_stats_.epochs_committed;
  snap_stats_.bytes_last = committed_.bytes;
  snap_stats_.bytes_total += committed_.bytes;
  snap_stats_.bytes_max = std::max(snap_stats_.bytes_max, committed_.bytes);
  const double lat = now - committed_.barrier_time;
  snap_stats_.barrier_latency_sum_s += lat;
  snap_stats_.barrier_latency_max_s =
      std::max(snap_stats_.barrier_latency_max_s, lat);
  schedule_barrier(now);
}

void Simulation::abort_epoch(double now) {
  if (!epoch_open_) return;
  epoch_open_ = false;
  ++snap_stats_.epochs_aborted;
  // Release the alignment buffers: their tuples were acked, so nobody will
  // replay them — deliver them now or lose them.
  for (Channel& c : channels_) {
    c.cut = Channel::kNoCut;
    if (c.align.empty()) continue;
    std::map<std::uint64_t, TuplePtr> drained;
    drained.swap(c.align);
    for (const auto& [s, t] : drained) {
      mark_seen(c, s);
      arrive_at(now, c.consumer, c.port, t);
    }
  }
  building_ = EpochSnapshot{};
  schedule_barrier(now);
}

void Simulation::wipe_operator_state(Instance& inst) {
  if (inst.kind == Kind::kSource || inst.kind == Kind::kSink) return;
  for (JoinPort& jp : inst.join) {
    jp.window.clear();
    jp.rechain();
  }
  inst.max_born = -std::numeric_limits<double>::infinity();
  inst.agg_windows.clear();
  inst.inbox.clear();
}

void Simulation::recover_node(double now, net::NodeId n) {
  if (committed_.epoch < 0) return;  // nothing committed to roll back to
  abort_epoch(now);  // an in-flight barrier cannot survive a rollback
  // Rollback region: the restored node's instances plus their transitive
  // downstream closure. Partial rollback is unsound (see CheckpointConfig):
  // replay re-interleaves join inputs, so everything the restored state
  // feeds must rewind to the same cut — sinks included (their delivery
  // counters revert and re-earn the replayed results).
  std::vector<char> region(instances_.size(), 0);
  std::deque<InstanceId> work;
  for (InstanceId id = 0; id < instances_.size(); ++id) {
    if (instances_[id].node == n) {
      region[id] = 1;
      work.push_back(id);
    }
  }
  while (!work.empty()) {
    const InstanceId u = work.front();
    work.pop_front();
    for (const std::uint32_t ci : instances_[u].outputs) {
      const InstanceId v = channels_[ci].consumer;
      if (!region[v]) {
        region[v] = 1;
        work.push_back(v);
      }
    }
  }
  for (InstanceId id = 0; id < instances_.size(); ++id) {
    if (!region[id]) continue;
    Instance& inst = instances_[id];
    const InstState& st = committed_.inst[id];
    for (int port : {0, 1}) {
      inst.join[port].window = st.window[port];
      inst.join[port].rechain();
    }
    inst.max_born = st.max_born;
    inst.agg_windows = st.agg_windows;
    inst.inbox = st.inbox;
    inst.delivered = st.delivered;
    inst.latency_sum_s = st.latency_sum_s;
    inst.busy = false;
    if (!inst.inbox.empty() && cfg_.reliability.queue_capacity > 0 &&
        cfg_.reliability.service_s > 0.0) {
      inst.busy = true;
      schedule(Event{now + cfg_.reliability.service_s, next_seq_++, id,
                     kServicePort, nullptr});
    }
  }
  std::uint64_t replayed = 0;
  for (std::uint32_t ci = 0; ci < channels_.size(); ++ci) {
    Channel& c = channels_[ci];
    const bool s_in = region[c.producer] != 0;
    const bool r_in = region[c.consumer] != 0;
    if (!s_in && !r_in) continue;
    // Downstream closure: a region sender always has a region receiver.
    IFLOW_CHECK(r_in);
    const std::uint64_t cut = committed_.cuts[ci];
    IFLOW_CHECK(cut != Channel::kNoCut);
    // Invalidate everything in flight before restarting the sequence space.
    ++c.incarnation;
    c.align.clear();
    c.seen_floor = cut;
    c.seen.clear();
    c.seen_count = 0;
    c.pending.clear();
    c.pending_live = 0;
    if (s_in) {
      // Both ends rewound: the sender regenerates post-cut output from its
      // restored state, so drop the stale retention tail.
      c.next_seq = cut;
      c.backlog.clear();
      while (!c.retained.empty() &&
             c.retained_lo + c.retained.size() > cut) {
        c.retained.pop_back();
      }
    } else {
      // Boundary channel: the live sender replays its retention past the
      // cut. Pre-cut pending entries are known-delivered (the floor met the
      // cut when the epoch committed), so rebuild pending from retention.
      const std::uint64_t end = c.retained_lo + c.retained.size();
      for (std::uint64_t s = std::max(cut, c.retained_lo); s < end; ++s) {
        add_pending(c, s, c.retained[s - c.retained_lo], /*retain=*/false);
        ++c.retransmits;
        ++replayed;
        transmit(now, ci, s, /*is_retransmit=*/true);
      }
    }
  }
  ++snap_stats_.recoveries;
  snap_stats_.replayed_tuples += replayed;
  const double lat = now - committed_.barrier_time;
  snap_stats_.recovery_latency_sum_s += lat;
  snap_stats_.recovery_latency_max_s =
      std::max(snap_stats_.recovery_latency_max_s, lat);
}

void Simulation::migrate_ops(double now, net::NodeId from, net::NodeId to) {
  IFLOW_CHECK_MSG(!fnet_ || fnet_->node_alive(to),
                  "migration target node " << to << " is down");
  // Cuts stamped for the old placement stay valid (alignment is pure
  // sequence arithmetic), but an in-flight barrier would charge the moved
  // state to the wrong epoch boundary — abort and re-arm instead.
  abort_epoch(now);
  const bool warm = cfg_.checkpoint.enabled;
  for (Instance& inst : instances_) {
    if (inst.node != from) continue;
    if (inst.kind != Kind::kJoin && inst.kind != Kind::kFilter &&
        inst.kind != Kind::kAggregate) {
      continue;  // sources and sinks are pinned placements
    }
    inst.node = to;
    // Warm handoff ships the operator state with the move; a cold move
    // restarts the operator empty (mid-window join partners are lost).
    if (!warm) wipe_operator_state(inst);
  }
  invalidate_routes();  // the moved instances' channels route anew
}

bool Simulation::hash_pass(const Tuple& t, InstanceId id, double p) const {
  // FNV-1a over the tuple's content plus an instance salt. (h >> 11) spans
  // 53 uniform bits, so u is uniform in [0, 1) and P(u < p) = p.
  std::uint64_t h =
      1469598103934665603ULL ^ ((id + 1) * 0x9E3779B97F4A7C15ULL);
  for (std::uint32_t k : t.keys) h = (h ^ k) * 1099511628211ULL;
  std::uint64_t born_bits = 0;
  static_assert(sizeof(born_bits) == sizeof(t.born));
  std::memcpy(&born_bits, &t.born, sizeof(born_bits));
  h = (h ^ (born_bits >> 32)) * 1099511628211ULL;
  h = (h ^ (born_bits & 0xFFFFFFFFULL)) * 1099511628211ULL;
  const double u = static_cast<double>(h >> 11) * 0x1.0p-53;
  return u < p;
}

// ---------------------------------------------------------------------------

void Simulation::emit_from_source(double now, InstanceId id) {
  Instance& inst = instances_[id];
  // A crashed source node emits nothing but keeps its clock ticking, so it
  // resumes production as soon as the node is restored. The source also
  // goes quiet for the final drain window so in-flight and retransmitted
  // tuples settle before the horizon; the cutoff is a pure function of
  // time, so lossy and loss-free runs emit identically.
  const bool draining = now >= cfg_.duration_s - cfg_.reliability.drain_s;
  if ((!fnet_ || fnet_->node_alive(inst.node)) && !draining) {
    ++tuples_emitted_;
    send(now, id, make_source_tuple(inst.source_stream, now));
  }
  const double rate = source_rate(inst.source_stream, now);
  const double gap = cfg_.poisson ? prng_.exponential(rate) : 1.0 / rate;
  schedule(Event{now + gap, next_seq_++, id, -1, nullptr});
}

double Simulation::source_rate(query::StreamId s, double now) const {
  const double base = catalog_->stream(s).tuple_rate;
  if (!cfg_.rate_factor) return base;
  // The floor keeps the clock ticking through curve troughs (a stalled
  // source would never observe the factor rising again) and keeps the
  // exponential draw well-defined.
  return std::max(0.01 * base, base * cfg_.rate_factor(s, now));
}

void Simulation::arrive_at(double now, InstanceId id, int port,
                           const TuplePtr& tuple) {
  Instance& inst = instances_[id];
  ++inst.tuples_in;
  if (inst.kind == Kind::kSink) {
    ++inst.delivered;
    inst.latency_sum_s += now - tuple->born;
    send(now, id, tuple);
    return;
  }
  if (inst.kind == Kind::kFilter) {
    // Decided by content hash, so the decision is identical for a tuple
    // however (and however often) it arrives — a precondition for the
    // exactly-once contract.
    if (hash_pass(*tuple, id, inst.pass_probability)) send(now, id, tuple);
    return;
  }
  if (inst.kind == Kind::kAggregate) {
    // Group assignment: hash of the tuple's join keys.
    std::uint64_t h = 1469598103934665603ULL;
    for (std::uint32_t k : tuple->keys) {
      h = (h ^ k) * 1099511628211ULL;
    }
    const auto groups =
        std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                       std::llround(inst.aggregation.groups)));
    // Event-time tumbling windows with a lateness watermark: a window
    // flushes once max-born has moved `lateness_s` past its end, so
    // retransmit-delayed tuples still land in their window and both the
    // flush set and the per-window group sets are delivery-schedule
    // independent.
    inst.max_born = std::max(inst.max_born, tuple->born);
    const double win = inst.aggregation.window_s;
    const auto w = static_cast<std::int64_t>(std::floor(tuple->born / win));
    inst.agg_windows[w].insert(h % groups);
    const double watermark = inst.max_born - cfg_.reliability.lateness_s;
    while (!inst.agg_windows.empty()) {
      const auto first = inst.agg_windows.begin();
      const double end = static_cast<double>(first->first + 1) * win;
      if (end > watermark) break;
      for (std::uint64_t group : first->second) {
        auto out = std::make_shared<Tuple>();
        out->born = end;  // event time, not flush time
        out->constituents = inst.streams;
        out->keys.assign(inst.streams.size() * catalog_->stream_count(),
                         static_cast<std::uint32_t>(group));
        out->width = inst.aggregation.out_width;
        send(now, id, out);
      }
      inst.agg_windows.erase(first);
    }
    return;
  }
  IFLOW_CHECK(inst.kind == Kind::kJoin);
  IFLOW_CHECK(port == 0 || port == 1);
  const int other = 1 - port;
  // Event-time join: window entries are keyed by born, a pair matches iff
  // their borns lie within kJoinWindowS, and partners are retained an extra
  // lateness_s so a retransmit-delayed tuple still meets everything it would
  // have met loss-free. Each qualifying pair emits exactly once — when its
  // later-arriving member probes (channel dedup guarantees each member
  // arrives once).
  inst.max_born = std::max(inst.max_born, tuple->born);
  const double horizon =
      inst.max_born - kJoinWindowS - cfg_.reliability.lateness_s;
  inst.join[0].expire(horizon);
  inst.join[1].expire(horizon);
  // Probe the opposite window's chain of our key, emit matches, store self.
  const std::uint32_t key = join_key(inst, port, *tuple);
  JoinPort& opposite = inst.join[other];
  const auto chain = opposite.chains.find(key);
  if (chain != opposite.chains.end()) {
    for (std::uint64_t o = chain->second.head; o != JoinPort::kEnd;) {
      const WindowEntry& e = opposite.at(o);
      o = e.next;
      if (std::abs(e.time - tuple->born) > kJoinWindowS) continue;
      if (!matches(*tuple, *e.tuple)) continue;
      send(now, id, join_tuples(*tuple, *e.tuple));
    }
  }
  inst.join[port].push(tuple->born, tuple, key);
}

std::uint32_t Simulation::join_key(const Instance& inst, int port,
                                   const Tuple& t) const {
  // Among its pairwise checks, matches() requires this tuple's key for the
  // other port's leading stream to equal the partner's key for ours; the
  // chains index that one comparison.
  IFLOW_CHECK(t.constituents.front() == inst.lead[port]);
  return t.keys[inst.lead[1 - port]];
}

void Simulation::JoinPort::push(double time, const TuplePtr& tuple,
                                std::uint32_t key) {
  const std::uint64_t ordinal = front + window.size();
  window.push_back(WindowEntry{time, tuple, key, kEnd});
  const auto [it, fresh] = chains.try_emplace(key, Chain{ordinal, ordinal});
  if (!fresh) {
    at(it->second.tail).next = ordinal;
    it->second.tail = ordinal;
  }
}

void Simulation::JoinPort::expire(double bound) {
  while (!window.empty() && window.front().time < bound) {
    const WindowEntry& e = window.front();
    const auto chain = chains.find(e.key);
    if (e.next == kEnd) {
      chains.erase(chain);
    } else {
      chain->second.head = e.next;
    }
    window.pop_front();
    ++front;
  }
}

void Simulation::JoinPort::rechain() {
  std::deque<WindowEntry> entries;
  entries.swap(window);
  front = 0;
  chains.clear();
  for (const WindowEntry& e : entries) push(e.time, e.tuple, e.key);
}

void Simulation::run() {
  IFLOW_CHECK_MSG(!ran_, "run() may only be called once");
  ran_ = true;
  if (cfg_.checkpoint.enabled) schedule_barrier(0.0);
  while (!events_.empty() || !timers_.empty()) {
    // The next event in (time, seq) order heads the lane or the heap.
    if (!timers_.empty() &&
        (events_.empty() ||
         std::tie(timers_.front().time, timers_.front().seq) <
             std::tie(events_.front().time, events_.front().seq))) {
      const Timer t = timers_.front();
      timers_.pop_front();
      if (t.time >= cfg_.duration_s) break;
      // A stale incarnation's timer dies (see below).
      if (t.inc == channels_[t.channel].incarnation) {
        handle_timeout(t.time, t.channel, t.tseq);
      }
      continue;
    }
    std::pop_heap(events_.begin(), events_.end(), std::greater<>{});
    const Event e = std::move(events_.back());
    events_.pop_back();
    if (e.time >= cfg_.duration_s) break;
    if (e.port == kFaultPort) {
      apply_fault(e.time, faults_[e.instance]);
    } else if (e.channel != kNoChannel &&
               e.inc != channels_[e.channel].incarnation) {
      // Stale incarnation: the channel was rolled back while this event
      // (data, ack, or timer) was in flight; its sequence number belongs to
      // the restarted epoch now, so the event must die instead of colliding.
    } else if (e.port == kBarrierPort) {
      begin_epoch(e.time);
    } else if (e.port == kTimeoutPort) {
      // Timers are local to the sender and never dropped — they are what
      // drives recovery when everything else is.
      handle_timeout(e.time, e.channel, e.tseq);
    } else if (e.port == kServicePort) {
      // Operator state (queues included) survives short crashes: the
      // process restarts with its state, so service completions always run.
      handle_service(e.time, e.instance);
    } else if (e.port == kAckPort) {
      // In-flight acks die with the links/nodes they were crossing; the
      // sender will retransmit and the receiver re-ack.
      if (fnet_ && (!fnet_->node_alive(instances_[e.instance].node) ||
                    route_severed(e.route))) {
        continue;
      }
      handle_ack(e.time, e.channel, e.tseq);
    } else if (e.port < 0) {
      emit_from_source(e.time, e.instance);
    } else {
      // In-flight tuples die with the links/nodes they were crossing.
      if (fnet_ && (!fnet_->node_alive(instances_[e.instance].node) ||
                    route_severed(e.route))) {
        ++tuples_dropped_;
        continue;
      }
      receive(e.time, e.channel, e.tseq, e.port, e.tuple);
    }
  }
  // Close out open downtime intervals at the horizon.
  for (QueryWatch& w : watches_) {
    if (w.broken) {
      w.broken = false;
      w.downtime_s += cfg_.duration_s - w.broken_since;
    }
  }
}

double Simulation::measured_cost_per_second() const {
  double total = 0.0;
  for (std::size_t i = 0; i < link_bytes_.size(); ++i) {
    total += link_bytes_[i] * net_->links()[i].cost_per_byte;
  }
  return total / cfg_.duration_s;
}

double Simulation::link_bytes(std::size_t link_index) const {
  IFLOW_CHECK(link_index < link_bytes_.size());
  return link_bytes_[link_index];
}

std::vector<OperatorStats> Simulation::operator_stats() const {
  std::vector<OperatorStats> out;
  out.reserve(instances_.size());
  for (const Instance& inst : instances_) {
    OperatorStats st;
    switch (inst.kind) {
      case Kind::kSource: st.kind = "source"; break;
      case Kind::kJoin: st.kind = "join"; break;
      case Kind::kFilter: st.kind = "filter"; break;
      case Kind::kAggregate: st.kind = "aggregate"; break;
      case Kind::kSink: st.kind = "sink"; break;
    }
    st.node = inst.node;
    st.streams = inst.streams;
    st.tuples_in = inst.tuples_in;
    st.tuples_sent = inst.tuples_sent;
    st.bytes_sent = inst.bytes_sent;
    out.push_back(std::move(st));
  }
  return out;
}

double Simulation::mean_latency_ms(query::QueryId q) const {
  std::uint64_t delivered = 0;
  double latency = 0.0;
  for (const Instance& inst : instances_) {
    if (inst.kind == Kind::kSink && inst.query == q) {
      delivered += inst.delivered;
      latency += inst.latency_sum_s;
    }
  }
  if (delivered == 0) return 0.0;
  return 1000.0 * latency / static_cast<double>(delivered);
}

std::uint64_t Simulation::tuples_delivered(query::QueryId q) const {
  std::uint64_t total = 0;
  for (const Instance& inst : instances_) {
    if (inst.kind == Kind::kSink && inst.query == q) total += inst.delivered;
  }
  return total;
}

double Simulation::delivered_rate(query::QueryId q) const {
  return static_cast<double>(tuples_delivered(q)) / cfg_.duration_s;
}

double Simulation::availability(query::QueryId q) const {
  double expected = 0.0;
  for (const QueryWatch& w : watches_) {
    if (w.query == q) expected += w.expected_rate;
  }
  if (expected <= 0.0) return 0.0;
  return delivered_rate(q) / expected;
}

DeliveryStats Simulation::delivery_stats(query::QueryId q) const {
  DeliveryStats s;
  for (const Channel& c : channels_) {
    if (c.query != q) continue;
    s.retransmits += c.retransmits;
    s.duplicates += c.duplicates;
    s.lost += c.lost;
    s.data_bytes += c.data_bytes;
    s.retransmit_bytes += c.retransmit_bytes;
    s.seen_high_water = std::max(s.seen_high_water, c.seen_high_water);
    s.retained_high_water =
        std::max(s.retained_high_water, c.retained_high_water);
  }
  const auto sb = snapshot_bytes_by_query_.find(q);
  if (sb != snapshot_bytes_by_query_.end()) s.snapshot_bytes = sb->second;
  for (const Instance& inst : instances_) {
    if (inst.kind == Kind::kSink && inst.query == q) {
      s.delivered += inst.delivered;
    }
    if (inst.owner == q) {
      s.shed += inst.shed;
      s.max_queue_depth = std::max(s.max_queue_depth, inst.max_queue_depth);
    }
  }
  // Goodput over the emission window (sources go quiet during the drain);
  // the constructor guarantees the window is positive.
  s.goodput_tps = static_cast<double>(s.delivered) /
                  (cfg_.duration_s - cfg_.reliability.drain_s);
  return s;
}

SnapshotStats Simulation::snapshot_stats() const {
  SnapshotStats s = snap_stats_;
  for (const Channel& c : channels_) {
    s.retained_high_water = std::max(s.retained_high_water,
                                     c.retained_high_water);
  }
  return s;
}

std::vector<ChannelTelemetry> Simulation::channel_telemetry() const {
  std::vector<ChannelTelemetry> out;
  out.reserve(channels_.size());
  for (const Channel& c : channels_) {
    ChannelTelemetry t;
    t.from = instances_[c.producer].node;
    t.to = instances_[c.consumer].node;
    t.query = c.query;
    if (t.from != t.to) t.path = cur_rt().cost_path(t.from, t.to);
    t.sent = c.sent;
    t.retransmits = c.retransmits;
    t.lost = c.lost;
    t.rtt_samples = c.rtt_samples;
    t.rtt_sum_ms = c.rtt_sum_ms;
    t.expected_rtt_sum_ms = c.expected_rtt_sum_ms;
    t.max_queue_depth = instances_[c.consumer].max_queue_depth;
    out.push_back(std::move(t));
  }
  return out;
}

double Simulation::downtime_s(query::QueryId q) const {
  double total = 0.0;
  for (const QueryWatch& w : watches_) {
    if (w.query == q) total += w.downtime_s;
  }
  return total;
}

}  // namespace iflow::engine
