// Copyright 2026 The SPLASH Reproduction Authors.
//
// The serve-tier API (DESIGN.md §8): the types shared by every query
// backend — the single SplashService (serve/service.h) and the sharded
// router in front of N of them (serve/router.h) — and the ServeClient
// reader handle that talks to either through the QueryBackend interface.
//
//   ServeClient ──QueryBackend::ScoreQueries──▶ SplashService        (S=1)
//                                          └──▶ ShardedSplashService (S=2^k)
//                                                 │ node & (S-1)
//                                                 ▼
//                                               shard i: SplashService
//
// Everything here is backend-agnostic: responses, watermarks (scalar and
// composite), ingest admission results, counters, and the per-client
// scratch/histogram plumbing. The backends own the concurrency story.

#ifndef SPLASH_SERVE_SHARD_H_
#define SPLASH_SERVE_SHARD_H_

#include <cstdint>
#include <mutex>
#include <vector>

#include "core/splash.h"
#include "eval/timing.h"
#include "graph/edge_stream.h"

namespace splash {

/// Admission result of IngestEdge/SubmitTrain. Distinguishes retryable
/// rejection (backlog under kDropNewest — the item was valid, the queue
/// was full *now*) from permanent rejection (invalid at the boundary, or
/// the service stopped), so retry loops and routers need not consult
/// counters to decide.
class IngestResult {
 public:
  enum Code : uint8_t {
    kAccepted = 0,        // enqueued; will be applied and published
    kInvalid = 1,         // boundary rejection (bad id / non-finite time
                          //  / label out of range / labels disabled) —
                          //  retrying cannot help
    kBacklogDropped = 2,  // kDropNewest backlog drop — retryable
    kStopped = 3,         // service not running — permanent for this handle
  };

  constexpr IngestResult(Code code) : code_(code) {}  // NOLINT(runtime/explicit)

  constexpr Code code() const { return code_; }
  constexpr bool accepted() const { return code_ == kAccepted; }
  /// True when the same call may succeed later (backlog pressure).
  constexpr bool retryable() const { return code_ == kBacklogDropped; }

  constexpr bool operator==(IngestResult o) const { return code_ == o.code_; }
  constexpr bool operator!=(IngestResult o) const { return code_ != o.code_; }

 private:
  Code code_;
};

/// One shard's published watermark: `seq` edges of that shard's ingest log
/// (and every train batch at or before that boundary) are reflected;
/// `time` is the timestamp of the last reflected edge (0 when none).
struct ShardWatermark {
  uint32_t shard = 0;
  uint64_t seq = 0;
  double time = 0.0;
};

/// The sharded service's watermark: one (seq, time) per shard, each pair
/// read consistently under that shard's snapshot pin, plus scalar
/// summaries. Per-shard seq is monotone; there is NO cross-shard ordering
/// promise (see DESIGN.md §8 for what a composite watermark does and does
/// not mean).
struct CompositeWatermark {
  std::vector<ShardWatermark> shards;
  uint64_t min_seq = 0;    // min over shards (0 when no shards)
  uint64_t total_seq = 0;  // sum over shards: total edges published
  double max_time = 0.0;   // max over shards
};

/// One answered query batch. `watermark_seq` edges (and every train batch
/// at or before that boundary) are reflected in `scores`; `watermark_time`
/// is the timestamp of the last reflected edge (0 when none). On a routed
/// response those scalars summarize `shard_watermarks` (min seq / max time
/// over the shards that answered); on a single-service response
/// `shard_watermarks` stays empty.
struct ServeResponse {
  Matrix scores;               // B x out_dim class scores
  double score = 0.0;          // convenience margin (see PredictNode/ScoreEdge)
  uint64_t watermark_seq = 0;
  double watermark_time = 0.0;
  /// Routed responses only: the (shard, seq, time) of every shard that
  /// contributed rows, ascending by shard id. Empty on single-service
  /// responses (the scalar fields are that shard's watermark directly).
  std::vector<ShardWatermark> shard_watermarks;
  /// True while the snapshot trails what recovery knows is durable (WAL
  /// replay still catching up) or after a durability I/O error put the
  /// service into degraded (serving-but-not-logging) mode. On a routed
  /// response: OR over the shards that answered.
  bool degraded = false;
  /// Set when the caller passed a deadline to PredictNode/ScoreEdge/Predict
  /// and the call overran it (the answer is still returned — the flag lets
  /// the caller decide whether a late answer is a useful answer).
  bool deadline_exceeded = false;
};

/// Monotone counters of the service boundary (drift/quality signals).
struct ServeCounters {
  uint64_t ingest_accepted = 0;
  uint64_t ingest_dropped = 0;
  uint64_t train_accepted = 0;
  uint64_t train_dropped = 0;
  uint64_t batches_applied = 0;
  uint64_t train_steps = 0;
  // SLIM weight-pack rebuilds both replicas performed while serving (WAL
  // replay, apply, catch-up; not Prepare/Fit). Packs follow the weights,
  // so an edge-only batch adds 0 and a training batch adds 1: the
  // published replica's TrainStep packs, the catch-up copies its packs.
  uint64_t weight_packs = 0;
  uint64_t queries = 0;
  uint64_t unseen_node_queries = 0;  // queried node not in the train seen set
  // One-row reads answered from the published replica's cold-read memo
  // (SplashPredictor::PredictBatchConst): nodes no edge has touched.
  uint64_t cold_reads = 0;
  // Read-path coalescing (DESIGN.md §5b).
  uint64_t coalesced_groups = 0;    // leader rounds executed
  uint64_t coalesced_callers = 0;   // Predict* calls answered via a group
  uint64_t direct_calls = 0;        // bypass / fallback per-query calls
  uint64_t novel_ingest_nodes = 0;   // ids first observed by the service
  uint64_t time_regressions = 0;     // out-of-order timestamps clamped
  uint64_t published_seq = 0;        // merged: SUM over shards
  double published_time = 0.0;       // merged: max over shards
  size_t queue_depth = 0;            // merged: sum over shards
  size_t queue_high_watermark = 0;   // merged: max over shards
  // Durability counters (all zero when data_dir is unset).
  uint64_t wal_records = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_io_errors = 0;
  uint64_t checkpoints_written = 0;
  uint64_t recovered_seq = 0;             // watermark recovery restored to
  uint64_t recovery_replayed_batches = 0; // WAL records replayed at recovery
  bool degraded = false;                  // merged: OR over shards

  /// Folds `other` into this counter set so a sharded service's Stats()
  /// is an exact aggregate: monotone counts (and seq-like totals) add;
  /// high-watermark/latest-time fields take the max; degraded ORs. The
  /// drift signals the shards export individually (unseen queries, novel
  /// ids, time regressions) survive aggregation as exact sums, never
  /// averages.
  void MergeFrom(const ServeCounters& other);
};

struct ServeStats {
  ServeCounters counters;
  LatencySummary predict;  // per-query latency, merged over clients
  LatencySummary ingest;   // producer enqueue latency (incl. block time)
  LatencySummary apply;    // per-micro-batch apply latency
};

/// One client's predict-latency histogram, registered with a backend so
/// Stats() can merge it. The mutex serializes the client's RecordNs
/// against the backend's Stats() walk.
struct ClientHistogram {
  std::mutex mu;
  LatencyHistogram hist;
};

/// Caller-owned scratch threaded through QueryBackend::ScoreQueries. All
/// members are grow-only, so a client that reuses one scratch (ServeClient
/// owns one) keeps the steady-state read path allocation-free for both
/// backends (the counting-allocator gate in serve_coalesce_test pins the
/// single-service path).
struct ClientScratch {
  SplashQueryScratch predict;  // batch tensors + SLIM forward scratch
  // Router fan-out state (untouched by a single SplashService): per-shard
  // sub-batches, per-shard responses, and the caller-order row map.
  std::vector<std::vector<PropertyQuery>> shard_queries;
  std::vector<ServeResponse> shard_responses;
  std::vector<uint32_t> row_shard;  // row i's owning shard
  std::vector<uint32_t> row_index;  // row i's index within its sub-batch
};

/// The query/ingest surface both the single SplashService and the sharded
/// router implement. ONE canonical scoring form — out-param, batch,
/// scratch-threaded — behind every ServeClient call. The contract every
/// backend honors:
///
///  * ScoreQueries never blocks on ingest; responses carry the watermark
///    (scalar, plus per-shard entries on routed responses) of the
///    snapshot(s) that answered, and scores at watermark W are
///    bit-identical to a serial replay of the (per-shard) ingest log
///    truncated at W.
///  * IngestEdge/SubmitTrain classify every rejection (IngestResult) so
///    callers can distinguish retryable backlog from permanent rejection.
///  * Flush() blocks until everything accepted before the call is applied
///    AND published (on every shard); Stop() drains and halts apply, after
///    which queries remain valid against the final snapshots.
class QueryBackend {
 public:
  virtual ~QueryBackend();

  QueryBackend() = default;
  QueryBackend(const QueryBackend&) = delete;
  QueryBackend& operator=(const QueryBackend&) = delete;

  /// Scores `queries` against the current snapshot(s) into `resp`.
  /// `scratch` must outlive the call and be used by one thread at a time;
  /// `resp` and `scratch` are grow-only across calls.
  virtual void ScoreQueries(const std::vector<PropertyQuery>& queries,
                            ClientScratch* scratch, ServeResponse* resp) = 0;

  /// Enqueues one edge (routed by destination on a sharded backend).
  /// Out-of-order timestamps are clamped per shard at apply time.
  virtual IngestResult IngestEdge(const TemporalEdge& e) = 0;

  /// Enqueues one labeled training query, applied as part of a staged
  /// train step at the owning shard's next micro-batch boundary.
  virtual IngestResult SubmitTrain(const PropertyQuery& q) = 0;

  virtual void Flush() = 0;
  virtual void Stop() = 0;
  virtual bool running() const = 0;
  /// Total edges published across the backend (sum over shards).
  virtual uint64_t published_seq() const = 0;
  /// Per-shard (seq, time) pairs, each consistent under its shard's pin.
  virtual CompositeWatermark Watermark() const = 0;
  virtual ServeStats Stats() const = 0;

  // Client registry: ServeClient registers its histogram so the backend's
  // Stats() can merge per-client predict latency; a departed client's
  // samples are folded into the retired digest.
  void RegisterClient(ClientHistogram* client);
  void UnregisterClient(ClientHistogram* client);

  /// Live + retired predict histograms of THIS backend's registered
  /// clients, merged (exact). Backends call it from Stats(); the router
  /// also folds in each shard's digest (clients may attach to a shard
  /// directly).
  LatencyHistogram MergedClientHistogram() const;

 private:
  mutable std::mutex clients_mu_;
  std::vector<ClientHistogram*> clients_;
  LatencyHistogram retired_predict_hist_;
};

/// A reader handle: owns the per-thread query scratch and the per-client
/// predict latency histogram. One per reader thread; must not outlive the
/// backend. Queries are wait-free with respect to ingest. Works against
/// any QueryBackend — construct with `&service` or `&router` alike.
class ServeClient {
 public:
  explicit ServeClient(QueryBackend* backend);
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// The canonical call: scores a batch of property queries against the
  /// current snapshot(s) into a caller-owned response. `resp`'s score
  /// matrix is grow-only, so reusing one response across calls keeps the
  /// steady-state single-caller read path allocation-free (the
  /// counting-allocator gate in tests/serve_coalesce_test.cc pins this).
  /// `timeout_s` > 0 sets a per-call deadline: the answer is always
  /// computed (queries never block on ingest, so there is nothing to
  /// cancel), but `deadline_exceeded` is set when the call overran it.
  /// Under concurrency the call may be answered by a coalesced group
  /// (DESIGN.md §5b) — same scores bit-for-bit, one shared snapshot pin.
  void Predict(const std::vector<PropertyQuery>& queries, ServeResponse* resp,
               double timeout_s = 0.0);

  /// Scores one node; `score` = class-1 margin (scores(0,1) - scores(0,0)).
  /// On a sharded backend this routes to the owning shard alone.
  void PredictNode(NodeId node, double time, ServeResponse* resp,
                   double timeout_s = 0.0);

  /// Scores an edge as max of its endpoints' class-1 margins (the
  /// service-level anomaly score). On a single service both endpoints
  /// share one snapshot; on a sharded backend each endpoint is scored on
  /// its owning shard's snapshot (see the composite-watermark contract).
  void ScoreEdge(NodeId src, NodeId dst, double time, ServeResponse* resp,
                 double timeout_s = 0.0);

  /// Bounded retry-with-backoff around IngestEdge for kDropNewest-mode
  /// bursts: retries a RETRYABLE rejection (IngestResult::kBacklogDropped)
  /// up to `max_attempts` times, sleeping `initial_backoff_s` doubled per
  /// attempt (capped at 100ms). Permanent rejections (kInvalid, kStopped)
  /// return false immediately — they cannot succeed.
  bool IngestEdgeWithRetry(const TemporalEdge& e, int max_attempts = 4,
                           double initial_backoff_s = 0.0005);

 private:
  QueryBackend* backend_;
  ClientScratch scratch_;
  std::vector<PropertyQuery> query_scratch_;  // for the 1-2 row endpoints
  ClientHistogram hist_;
};

}  // namespace splash

#endif  // SPLASH_SERVE_SHARD_H_
