// Discrete-event stream-processing engine — the execution substrate standing
// in for the IFLOW prototype (see DESIGN.md, substitutions).
//
// A Simulation instantiates Deployments as operator graphs on the simulated
// network and executes them: sources emit tuples at their catalog rates,
// windowed symmetric-hash joins match tuples by synthetic join keys whose
// collision probability equals the catalog selectivity, and every tuple
// transfer is routed along the cost-optimal path, charging bytes to each
// physical link it crosses. Every data edge is a channel with acks,
// retransmission and receiver dedup (ReliabilityConfig). The measured
// per-unit-time cost (sum over links of bytes x link cost / duration) is
// directly comparable to the optimizer's analytic deployment cost;
// integration tests assert they agree.
//
// Join semantics: a new tuple probes the opposite input's window and emits
// one output per matching pair, so a pair matches iff its tuples were born
// within `window_s` of each other (partners are retained `lateness_s`
// longer for late arrivals). With window_s = 0.5 the expected output rate
// of A ⋈ B is rate_A x rate_B x selectivity — exactly the analytic
// RateModel.
//
// Operator sharing: a Deployment leaf unit marked `derived` binds to the
// operator of an earlier deployment producing the same stream set at the
// same node, so reused operators stream their output once per consumer and
// incur no upstream traffic — the engine-level realisation of the paper's
// stream advertisements. Containment reuse (LeafUnit::residual_filter < 1)
// interposes a selection at the provider. Limitation: producers are keyed
// by (stream set, node); two co-located operators over the same streams
// with different filters are not distinguished — the first deployment wins.
#pragma once

#include <deque>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <span>
#include <string>
#include <tuple>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/prng.h"
#include "net/routing.h"
#include "query/plan.h"
#include "query/rates.h"

namespace iflow::engine {

/// A mid-execution network fault, applied at `time` while the event loop
/// runs. Faults mutate a private copy of the network: in-flight tuples
/// whose route crosses a dead link (or whose destination died) are dropped,
/// transmissions into an outage are retried and then counted lost, and
/// sources on dead nodes pause until restored.
struct SimFault {
  enum class Kind : std::uint8_t {
    kFailLink,
    kRestoreLink,
    kCrashNode,
    kRestoreNode,
    kSetLinkLoss,    // sets the (a, b) loss probability to `value`
    kSetLinkJitter,  // sets the (a, b) jitter bound to `value` ms
    kMigrateOps,     // moves join/filter/aggregate instances from a to b
  };
  double time = 0.0;
  Kind kind = Kind::kCrashNode;
  net::NodeId a = net::kInvalidNode;  // the node, or the link's first end
  net::NodeId b = net::kInvalidNode;  // the link's second end (links only)
  double value = 0.0;                 // loss probability or jitter ms
};

/// Coordinated checkpoint/recovery plane (DESIGN.md §16): epoch barriers
/// are cuts in each channel's sequence space, and recovery replays the
/// channels' ack-trimmed retention buffers.
///
/// Protocol: at every `interval_s` boundary a barrier event snapshots all
/// sources, which stamps a cut (= next_seq) on their output channels; an
/// operator snapshots once every input channel has delivered exactly its
/// cut prefix (tuples at or past a cut are acked but buffered aside until
/// the operator snapshots, so the dedup floor meets the cut bit-exactly),
/// then stamps cuts on its own outputs — the barrier cascades to the sinks
/// and the epoch commits when every instance has snapshotted. At the cut
/// the receiver's out-of-order set is empty and the sender's next_seq
/// equals the floor, so the per-channel snapshot is the cut alone.
/// Channels retain every tuple sent at or past the last committed cut
/// (acked or not); commit trims the retention to the new cuts.
///
/// Recovery on kRestoreNode rolls the crashed node's instances plus all
/// transitive downstream consumers (through the sinks, whose delivery
/// counters revert) back to the committed epoch. Channels inside the
/// region restart their sequence space at the cut; boundary channels
/// (live sender, rolled-back receiver) replay their retention. Partial
/// rollback is unsound here: replay re-interleaves join inputs, so a
/// non-rolled-back consumer would dedup replayed sequence numbers whose
/// content differs from the original delivery.
struct CheckpointConfig {
  /// Coordinated snapshots + rollback recovery + warm migration state.
  bool enabled = false;
  /// Crashes wipe on-node operator state (join/aggregate windows, queues).
  /// Off by default: a short crash restarts the process with its state.
  bool volatile_state = false;
  /// Barrier period; one epoch is in flight at a time.
  double interval_s = 5.0;
  /// Replicas of the in-memory snapshot store (byte accounting only).
  int replicas = 2;
};

/// Checkpoint-plane accounting: committed epochs, snapshot bytes (replica
///-multiplied), barrier latency (commit minus barrier injection), and the
/// rollback/replay work done by recoveries.
struct SnapshotStats {
  std::int64_t epochs_committed = 0;
  std::int64_t epochs_aborted = 0;  // barrier in flight when a fault hit
  double bytes_last = 0.0;
  double bytes_total = 0.0;
  double bytes_max = 0.0;
  double barrier_latency_sum_s = 0.0;
  double barrier_latency_max_s = 0.0;
  std::int64_t recoveries = 0;
  std::uint64_t replayed_tuples = 0;  // retention re-transmissions
  /// Rollback depth: restore time minus the committed barrier time — the
  /// work a recovery has to redo.
  double recovery_latency_sum_s = 0.0;
  double recovery_latency_max_s = 0.0;
  std::size_t retained_high_water = 0;  // max retention entries, any channel
};

/// What a bounded operator input queue does when an admitted tuple would
/// exceed the capacity.
enum class OverflowPolicy : std::uint8_t {
  kBackpressure,  // refuse (no ack): the sender retries and slows down
  kDropOldest,    // shed the oldest queued tuple (freshest results win)
  kDropNewest,    // shed the arriving tuple (load shedding at the door)
};

/// Parameters of the channel data plane (ack/retransmit, bounded queues,
/// replay buffers) that carries every data edge.
///
/// Determinism contract: the data plane draws loss and jitter from a
/// dedicated Prng stream and operators decide by content (filter passes
/// hash the tuple), so two runs of the same seed that differ only in link
/// loss/jitter emit the same source tuples and — provided every delivery
/// delay stays under `lateness_s` and nothing exhausts the retry budget —
/// deliver the same per-query result counts (at-least-once + dedup =
/// exactly-once). Comparing measured with planned cost needs drain_s = 0
/// and, on GT-ITM worlds, a timeout above the path round trip (DESIGN.md
/// §11).
struct ReliabilityConfig {
  /// Must stay true (the constructor rejects false): every data edge is a
  /// channel. Kept only because benchmark sources still set it.
  bool enabled = true;
  /// Initial retransmit timeout; doubles (capped) on every retry.
  double ack_timeout_s = 0.05;
  double backoff_factor = 2.0;
  double max_backoff_s = 0.4;
  /// Retransmissions per tuple before it counts as lost-after-retries.
  int max_retries = 12;
  /// Max un-acked tuples in flight per producer->consumer channel; excess
  /// waits in the sender's replay buffer (ack-trimmed upstream buffering).
  std::size_t window = 64;
  /// Bounded input queue capacity per operator; 0 = unbounded. Only
  /// meaningful with service_s > 0 (instantaneous operators never queue).
  std::size_t queue_capacity = 0;
  OverflowPolicy overflow = OverflowPolicy::kBackpressure;
  /// Per-tuple processing time of non-source operators.
  double service_s = 0.0;
  /// Event-time slack: joins retain partners and aggregates hold windows
  /// open this much longer, so tuples delayed by retransmission still meet
  /// the partners they would have met loss-free.
  double lateness_s = 3.0;
  /// Sources stop emitting this long before the horizon so in-flight and
  /// retransmitted tuples settle; keep drain_s > lateness_s.
  double drain_s = 5.0;
};

/// Per-channel reliability telemetry — the health plane's raw signal. Every
/// counter is per producer→consumer data edge: ack round-trip samples
/// measured against the clean-network expectation (propagation +
/// serialisation + ack return with no degradation, no jitter, no
/// queueing), retransmission counts, and the cost-optimal path the
/// channel's tuples currently cross. In a clean run measured RTT equals the
/// expectation exactly, so every derived signal is zero — the foundation of
/// the detector's zero-false-positive contract.
struct ChannelTelemetry {
  net::NodeId from = net::kInvalidNode;
  net::NodeId to = net::kInvalidNode;
  query::QueryId query = 0;
  /// Cost-optimal from→to route, inclusive; empty for co-located edges.
  std::vector<net::NodeId> path;
  std::uint64_t sent = 0;         // transmissions (first + re)
  std::uint64_t retransmits = 0;  // retransmissions among `sent`
  std::uint64_t lost = 0;         // lost after exhausting the retry budget
  std::uint64_t rtt_samples = 0;  // acked transmissions
  double rtt_sum_ms = 0.0;
  double expected_rtt_sum_ms = 0.0;  // clean-network model of the same acks
  std::size_t max_queue_depth = 0;   // consumer's input-queue high-water
};

/// Per-query delivery-semantics accounting.
struct DeliveryStats {
  std::uint64_t delivered = 0;    // results accepted at the sink
  std::uint64_t shed = 0;         // dropped by queue overflow policy
  std::uint64_t lost = 0;         // lost after exhausting the retry budget
  std::uint64_t duplicates = 0;   // retransmit duplicates suppressed
  std::uint64_t retransmits = 0;  // retransmissions sent
  double goodput_tps = 0.0;       // delivered results per second
  double data_bytes = 0.0;        // link bytes of first transmissions
  double retransmit_bytes = 0.0;  // link bytes of retransmissions
  std::size_t max_queue_depth = 0;
  /// High-water of the receiver dedup out-of-order set (max over the
  /// query's channels) — bounded by the sliding window when compaction
  /// against the floor works.
  std::size_t seen_high_water = 0;
  /// Checkpoint overhead attributed to this query (zeros when disabled).
  std::size_t retained_high_water = 0;  // max retention entries per channel
  double snapshot_bytes = 0.0;          // replica-multiplied, all epochs
};

struct EngineConfig {
  double duration_s = 30.0;
  /// Sliding window of the symmetric hash joins. 0.5 s makes measured join
  /// rates match the analytic model (see file comment).
  double window_s = 0.5;
  /// Poisson arrivals when true; evenly spaced (with a random phase)
  /// otherwise — useful for low-variance model-validation runs.
  bool poisson = true;
  /// Must match the RateModel projection used when planning.
  double projection_factor = 1.0;
  /// Optional time-varying source rates (scenario rate curves): multiplier
  /// applied to a stream's catalog rate at simulation time t. Must be a
  /// pure function so runs stay deterministic; values are clamped to a
  /// small positive floor so source clocks keep ticking through troughs.
  /// Null = constant catalog rates.
  std::function<double(query::StreamId, double)> rate_factor;
  ReliabilityConfig reliability;
  CheckpointConfig checkpoint;
};

/// A tuple flowing through the system: the base streams it joins and, per
/// constituent, one synthetic join key per catalog stream.
struct Tuple {
  std::vector<query::StreamId> constituents;  // sorted
  std::vector<std::uint32_t> keys;  // constituents.size() × stream_count
  double width = 0.0;               // bytes
  /// Simulation time the freshest constituent was emitted; sink arrival
  /// minus this is the result's end-to-end latency.
  double born = 0.0;
};

/// Per-operator runtime counters (observability / load analysis).
struct OperatorStats {
  std::string kind;  // source | join | filter | aggregate | sink
  net::NodeId node = net::kInvalidNode;
  std::vector<query::StreamId> streams;
  std::uint64_t tuples_in = 0;
  std::uint64_t tuples_sent = 0;  // copies shipped to consumers
  double bytes_sent = 0.0;
};
using TuplePtr = std::shared_ptr<const Tuple>;

class Simulation {
 public:
  Simulation(const net::Network& net, const net::RoutingTables& rt,
             const query::Catalog& catalog, const EngineConfig& cfg,
             std::uint64_t seed);

  /// Instantiates a deployment. Derived leaf units bind to operators of
  /// earlier deployments (matched by stream set + node); deploying a plan
  /// whose derived units have no producer throws. Must be called before
  /// run().
  void deploy(const query::Deployment& d, const query::RateModel& rates);

  /// Registers a fault to inject mid-run. Must be called before run().
  void schedule_fault(const SimFault& f);

  /// Executes the event loop for the configured duration. Call once.
  void run();

  /// Sum over links of transferred bytes × link cost, per second.
  double measured_cost_per_second() const;

  /// Bytes carried by a specific link (diagnostics).
  double link_bytes(std::size_t link_index) const;

  std::uint64_t tuples_delivered(query::QueryId q) const;

  /// Delivered result tuples per second for a query.
  double delivered_rate(query::QueryId q) const;

  std::uint64_t tuples_emitted() const { return tuples_emitted_; }

  /// Runtime counters for every operator instance.
  std::vector<OperatorStats> operator_stats() const;

  /// Mean end-to-end result latency (freshest-input emission to sink
  /// arrival) in milliseconds; 0 when nothing was delivered.
  double mean_latency_ms(query::QueryId q) const;

  /// Delivered rate over the analytic no-fault output rate of the query
  /// (1.0 ± sampling noise when nothing failed; degrades under faults).
  double availability(query::QueryId q) const;

  /// Total time the query's deployment was broken — some element on a dead
  /// node or some data edge unroutable — during the run.
  double downtime_s(query::QueryId q) const;

  /// In-flight data arrivals that died with a link or node they were
  /// crossing. A transmission into a dead node or a partition never leaves;
  /// its channel retries it and counts it in DeliveryStats::lost if the
  /// retry budget runs out.
  std::uint64_t tuples_dropped() const { return tuples_dropped_; }

  /// Delivery-semantics accounting for a query. Shed counts and queue depths
  /// of operators shared between queries are attributed to the query that
  /// deployed them first.
  DeliveryStats delivery_stats(query::QueryId q) const;

  /// Per-channel reliability telemetry, one entry per data edge in channel
  /// creation order. Feed to HealthMonitor::observe.
  std::vector<ChannelTelemetry> channel_telemetry() const;

  /// Checkpoint-plane accounting (zeros when cfg.checkpoint disabled).
  SnapshotStats snapshot_stats() const;

 private:
  using InstanceId = std::uint32_t;

  static constexpr std::uint32_t kNoChannel =
      std::numeric_limits<std::uint32_t>::max();
  /// Route id of an unroutable (partitioned) pair; route 0 is the empty
  /// route of a co-located pair.
  static constexpr std::uint32_t kNoRoute =
      std::numeric_limits<std::uint32_t>::max();

  /// State of one producer->consumer data edge: sender-side sequence
  /// numbers, the un-acked in-flight set (which doubles as the ack-trimmed
  /// replay buffer), the sliding-window backlog, and the receiver-side
  /// dedup set. Sequence numbers are dense, so the in-flight set, the dedup
  /// set and the retention buffer are rings indexed by sequence number.
  struct PendingTuple {
    TuplePtr tuple;  // null once acked or given up
    int retries = 0;
    /// Departure time of the latest transmission and the clean-network RTT
    /// it should see (data path + ack return, no degradation/jitter) — the
    /// pair behind each ChannelTelemetry RTT sample.
    double sent_at = 0.0;
    double expected_rtt_s = 0.0;
  };
  struct Channel {
    InstanceId producer = 0;
    InstanceId consumer = 0;
    int port = 0;  // 0/1 for joins; 0 otherwise
    /// Query whose deployment created this data edge (stats attribution).
    query::QueryId query = 0;
    std::uint64_t next_seq = 0;
    // In flight: pending[i] holds sequence pending_lo + i; the front slot
    // is always live, and pending_live counts the live slots.
    std::deque<PendingTuple> pending;
    std::uint64_t pending_lo = 0;
    std::size_t pending_live = 0;
    std::deque<TuplePtr> backlog;  // waiting for window space
    // Receiver dedup: every seq < seen_floor was delivered, and seen[i]
    // marks seq seen_floor + i delivered out of order (compacted on every
    // floor advance; seen_count counts the marks and seen_high_water
    // tracks the worst burst).
    std::uint64_t seen_floor = 0;
    std::deque<bool> seen;
    std::size_t seen_count = 0;
    std::size_t seen_high_water = 0;
    // Checkpoint plane: this epoch's barrier cut (kNoCut until the sender
    // snapshots), the alignment buffer holding post-cut arrivals until the
    // receiver snapshots, and the retention buffer of everything sent at
    // or past the last committed cut. A rollback bumps the incarnation so
    // stale in-flight data/ack/timeout events die instead of colliding
    // with the restarted sequence space.
    static constexpr std::uint64_t kNoCut =
        std::numeric_limits<std::uint64_t>::max();
    std::uint64_t cut = kNoCut;
    std::map<std::uint64_t, TuplePtr> align;
    std::deque<TuplePtr> retained;  // retained[i] holds seq retained_lo + i
    std::uint64_t retained_lo = 0;
    std::size_t retained_high_water = 0;
    std::uint32_t incarnation = 0;
    // Interned routes of the current route epoch (see route()): producer
    // to consumer for data, consumer to producer for acks.
    std::uint32_t route_epoch = std::numeric_limits<std::uint32_t>::max();
    std::uint32_t data_route = 0;
    std::uint32_t ack_route = 0;
    // Counters.
    std::uint64_t sent = 0;  // transmissions, first and re alike
    std::uint64_t retransmits = 0;
    std::uint64_t duplicates = 0;
    std::uint64_t lost = 0;
    double data_bytes = 0.0;
    double retransmit_bytes = 0.0;
    // Ack RTT telemetry (see ChannelTelemetry).
    std::uint64_t rtt_samples = 0;
    double rtt_sum_ms = 0.0;
    double expected_rtt_sum_ms = 0.0;
  };

  enum class Kind : std::uint8_t {
    kSource,
    kJoin,
    kFilter,
    kAggregate,
    kSink,
  };

  /// One entry of a join input's window.
  struct WindowEntry {
    double time = 0.0;  // born
    TuplePtr tuple;
    std::uint32_t key = 0;  // pairwise join key against the other port
    std::uint64_t next = 0;  // ordinal of the next entry with this key
  };
  /// One join input: its window in arrival order, and the entries of each
  /// join key chained in arrival order. A tuple can only match partners
  /// whose chain key equals its own (see join_key), so a probe walks one
  /// chain and sees exactly the key-equal entries, in the order a scan of
  /// the window would.
  struct JoinPort {
    static constexpr std::uint64_t kEnd =
        std::numeric_limits<std::uint64_t>::max();
    struct Chain {
      std::uint64_t head = kEnd;
      std::uint64_t tail = kEnd;
    };
    std::deque<WindowEntry> window;
    std::uint64_t front = 0;  // ordinal of window.front()
    std::unordered_map<std::uint32_t, Chain> chains;
    WindowEntry& at(std::uint64_t ordinal) { return window[ordinal - front]; }
    void push(double time, const TuplePtr& tuple, std::uint32_t key);
    /// Drops the entries older than `bound` from the front.
    void expire(double bound);
    /// Re-chains the window after its entries were replaced wholesale.
    void rechain();
  };

  struct Instance {
    Kind kind;
    net::NodeId node = net::kInvalidNode;
    std::vector<query::StreamId> streams;  // output stream set, sorted
    std::vector<std::uint32_t> outputs;    // output channels, in deploy order
    // Join state: per input port, the window and the first stream of the
    // producer feeding it (every tuple on the port leads with it).
    JoinPort join[2];
    query::StreamId lead[2] = {query::kInvalidStream, query::kInvalidStream};
    // Source state.
    query::StreamId source_stream = query::kInvalidStream;
    // Filter state: selection operators pass tuples with this probability
    // (query filter predicates are on non-join attributes, so passing is
    // independent of the synthetic join keys).
    double pass_probability = 1.0;
    // Aggregate state: tumbling event-time windows (see agg_windows); groups
    // are derived by hashing the tuple's join keys. One output tuple per
    // non-empty group per window; windows still open at the horizon are not
    // flushed.
    query::Aggregation aggregation;
    // Sink state.
    query::QueryId query = 0;
    std::uint64_t delivered = 0;
    double latency_sum_s = 0.0;
    // Counters (all kinds).
    std::uint64_t tuples_in = 0;
    std::uint64_t tuples_sent = 0;
    double bytes_sent = 0.0;
    query::QueryId owner = 0;  // query whose deploy created this instance
    std::deque<std::pair<int, TuplePtr>> inbox;  // bounded input queue
    bool busy = false;          // a service completion event is scheduled
    std::size_t max_queue_depth = 0;
    std::uint64_t shed = 0;     // dropped by the overflow policy
    // Event-time watermark input: max born seen across all inputs.
    double max_born = -std::numeric_limits<double>::infinity();
    // Event-time aggregate windows: window index -> groups.
    std::map<std::int64_t, std::set<std::uint64_t>> agg_windows;
    // Checkpoint plane: snapshotted in the epoch currently in flight.
    bool snapped = false;
  };

  /// Serialized operator state of one instance at a barrier cut.
  struct InstState {
    std::deque<WindowEntry> window[2];
    double max_born = -std::numeric_limits<double>::infinity();
    std::map<std::int64_t, std::set<std::uint64_t>> agg_windows;
    std::deque<std::pair<int, TuplePtr>> inbox;
    std::uint64_t delivered = 0;
    double latency_sum_s = 0.0;
  };

  /// One epoch of the replicated in-memory snapshot store: per-instance
  /// operator state plus the per-channel cut (receiver floor == sender
  /// next_seq == cut at the snapshot instant, see CheckpointConfig).
  struct EpochSnapshot {
    std::int64_t epoch = -1;  // -1 = nothing committed yet
    double barrier_time = 0.0;
    std::vector<InstState> inst;
    std::vector<std::uint64_t> cuts;
    double bytes = 0.0;  // replica-multiplied serialized size
  };

  struct Event {
    double time;
    std::uint64_t seq;  // FIFO tie-break
    InstanceId instance;  // fault index when port == kFaultPort
    int port;        // -1 for source self-emission, -2 for a fault
    TuplePtr tuple;  // null for source self-emission
    /// Route the tuple or ack crosses (links charged at send time); the
    /// arrival is dropped if any of its links died while it was in flight.
    std::uint32_t route = 0;
    /// Which channel the event belongs to (data, ack, timeout; kNoChannel
    /// otherwise) and the channel sequence number it refers to.
    std::uint32_t channel = kNoChannel;
    std::uint64_t tseq = 0;
    /// Channel incarnation the event was stamped with; a rollback bumps
    /// the channel's incarnation, invalidating everything in flight.
    std::uint32_t inc = 0;
    bool operator>(const Event& o) const {
      return std::tie(time, seq) > std::tie(o.time, o.seq);
    }
  };

  /// A first-try retransmit timer (see timers_).
  struct Timer {
    double time;
    std::uint64_t seq;  // drawn from the same counter as Event::seq
    std::uint32_t channel;
    std::uint32_t inc;
    std::uint64_t tseq;
  };

  static constexpr int kFaultPort = -2;
  static constexpr int kAckPort = -3;      // ack arriving back at the sender
  static constexpr int kTimeoutPort = -4;  // retransmit timer firing
  static constexpr int kServicePort = -5;  // queued operator finishes a tuple
  static constexpr int kBarrierPort = -6;  // checkpoint barrier injection

  /// Per-deployment health watch for availability/downtime accounting.
  struct QueryWatch {
    query::QueryId query = 0;
    double expected_rate = 0.0;  // analytic no-fault result tuples/s
    std::vector<net::NodeId> nodes;
    std::vector<std::pair<net::NodeId, net::NodeId>> edges;
    bool broken = false;
    double broken_since = 0.0;
    double downtime_s = 0.0;
  };

  InstanceId source_for(query::StreamId s);
  InstanceId find_producer(const std::vector<query::StreamId>& streams,
                           net::NodeId node) const;
  void register_producer(const std::vector<query::StreamId>& streams,
                         net::NodeId node, InstanceId id);
  /// Ships a tuple from `producer` over each of its output channels.
  void send(double now, InstanceId producer, const TuplePtr& tuple);
  void schedule(Event e);
  /// Interned route from -> dest for the current route epoch: 0 when
  /// co-located, kNoRoute when partitioned. Hops resolve to link indices
  /// through link_index_.
  std::uint32_t route(net::NodeId from, net::NodeId dest);
  std::span<const std::uint32_t> route_links(std::uint32_t r) const;
  /// True when a link of route r is unusable (an in-flight arrival dies).
  bool route_severed(std::uint32_t r) const;
  /// Starts a new route epoch: routing or placement changed.
  void invalidate_routes();
  /// Re-interns the channel's data and ack routes if the epoch moved on.
  void refresh_routes(Channel& c);
  void emit_from_source(double now, InstanceId id);
  void arrive_at(double now, InstanceId id, int port, const TuplePtr& tuple);
  void apply_fault(double now, const SimFault& f);
  // Channel data plane.
  void channel_send(double now, std::uint32_t ch, const TuplePtr& tuple);
  void transmit(double now, std::uint32_t ch, std::uint64_t seq,
                bool is_retransmit);
  void send_ack(double now, std::uint32_t ch, std::uint64_t seq);
  void handle_ack(double now, std::uint32_t ch, std::uint64_t seq);
  void handle_timeout(double now, std::uint32_t ch, std::uint64_t seq);
  void handle_service(double now, InstanceId id);
  void receive(double now, std::uint32_t ch, std::uint64_t seq, int port,
               const TuplePtr& tuple);
  void pump_backlog(double now, std::uint32_t ch);
  /// In-flight entry of `seq`, or null when acked, given up or never sent.
  static PendingTuple* find_pending(Channel& c, std::uint64_t seq);
  /// Adds `seq`, the sequence right after every pending one, to the
  /// in-flight set and, when `retain`, to the retention buffer.
  static void add_pending(Channel& c, std::uint64_t seq,
                          const TuplePtr& tuple, bool retain);
  static void drop_pending(Channel& c, std::uint64_t seq);
  /// Records `s` in the receiver dedup state, compacting the out-of-order
  /// set against the floor on every advance.
  void mark_seen(Channel& c, std::uint64_t s);
  // Checkpoint plane (cfg_.checkpoint.enabled).
  void begin_epoch(double now);
  void snap_instance(double now, InstanceId id);
  void maybe_snap(double now, InstanceId id);
  void commit_epoch(double now);
  void abort_epoch(double now);
  void schedule_barrier(double after);
  void wipe_operator_state(Instance& inst);
  double instance_state_bytes(const InstState& s) const;
  void recover_node(double now, net::NodeId n);
  void migrate_ops(double now, net::NodeId from, net::NodeId to);
  /// Combined gray-failure state of one hop at time `now`: extra drop
  /// probability (link degradation and both endpoint nodes, multiplicative)
  /// and delay multiplier (max of the three), flap waves evaluated at
  /// `now`. Identity when nothing on the hop is degraded.
  void hop_degradation(const net::Link& link, double now, double* extra_loss,
                       double* slowdown) const;
  /// Filter decision by content hash: it depends only on the tuple and the
  /// filter instance, so it is identical across lossy and loss-free runs.
  bool hash_pass(const Tuple& t, InstanceId id, double p) const;
  void update_watches(double now);
  const net::Network& cur_net() const { return fnet_ ? *fnet_ : *net_; }
  const net::RoutingTables& cur_rt() const { return frt_ ? *frt_ : *rt_; }
  /// Instantaneous emission rate of stream s: catalog rate times the
  /// configured rate_factor (floored so the source clock never stalls).
  double source_rate(query::StreamId s, double now) const;
  TuplePtr make_source_tuple(query::StreamId s, double now);
  TuplePtr join_tuples(const Tuple& a, const Tuple& b) const;
  /// Chain key of a tuple arriving on a join port (see JoinPort).
  std::uint32_t join_key(const Instance& inst, int port,
                         const Tuple& t) const;
  bool matches(const Tuple& a, const Tuple& b) const;
  std::uint32_t key_domain(query::StreamId a, query::StreamId b) const;
  double composite_width(const std::vector<query::StreamId>& streams) const;

  const net::Network* net_;
  const net::RoutingTables* rt_;
  const query::Catalog* catalog_;
  EngineConfig cfg_;
  Prng prng_;
  /// Dedicated stream for link loss and jitter draws so the main stream —
  /// source schedules and key draws — is identical between a lossy run and
  /// its loss-free baseline.
  Prng net_prng_;
  std::vector<Channel> channels_;

  std::vector<Instance> instances_;
  std::unordered_map<query::StreamId, InstanceId> sources_;
  // (sorted stream set, node) -> producer instance.
  std::unordered_map<std::string, InstanceId> producers_;
  std::unordered_map<std::uint64_t, std::size_t> link_index_;  // (a,b) key
  std::vector<double> link_bytes_;
  // Interned routes, append-only so in-flight events keep theirs: route r
  // crosses route_links_[routes_[r].first, routes_[r].second). route_ids_
  // maps (from, dest) to its route in the current epoch; a fault starts a
  // new epoch.
  std::vector<std::uint32_t> route_links_;
  std::vector<std::pair<std::uint32_t, std::uint32_t>> routes_;
  std::unordered_map<std::uint64_t, std::uint32_t> route_ids_;
  std::uint32_t route_epoch_ = 0;
  // Pending events: a binary heap by (time, seq), plus a FIFO lane for
  // first-try retransmit timers. Those all wait ack_timeout_s and are armed
  // at a nondecreasing clock, so the lane is sorted by (time, seq) by
  // construction; run() merges the two. Backed-off retry timers use the
  // heap.
  std::vector<Event> events_;
  std::deque<Timer> timers_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t tuples_emitted_ = 0;
  bool ran_ = false;
  // Fault state: a private mutable copy of the network (created lazily by
  // the first schedule_fault) plus routing rebuilt at each fault time.
  std::vector<SimFault> faults_;
  std::unique_ptr<net::Network> fnet_;
  std::unique_ptr<net::RoutingTables> frt_;
  std::vector<QueryWatch> watches_;
  std::uint64_t tuples_dropped_ = 0;
  // Checkpoint plane: the last committed epoch (the rollback target), the
  // epoch being built (one in flight at a time), and the running stats.
  EpochSnapshot committed_;
  EpochSnapshot building_;
  bool epoch_open_ = false;
  std::int64_t next_epoch_ = 1;
  std::size_t unsnapped_ = 0;
  SnapshotStats snap_stats_;
  std::unordered_map<query::QueryId, double> snapshot_bytes_by_query_;
};

}  // namespace iflow::engine
