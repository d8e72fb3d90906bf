// Copyright 2026 The SPLASH Reproduction Authors.
//
// SplashService: the online serving front-end of the repo (DESIGN.md §5).
// It turns the offline replay substrate (core/ + eval/) into a concurrent
// ingest/query service:
//
//   producers ──IngestEdge/SubmitTrain──▶ bounded IngestQueue
//                                             │ micro-batch (size/time
//                                             ▼  watermark)
//                                        apply thread
//                          ObserveBulk + StageBatch/TrainStaged on the
//                          BACK replica, then Publish() ──▶ readers;
//                          the other replica observes + copies the model
//   readers  ──ServeClient::Predict*──▶ pinned FRONT replica
//                                        (const snapshot, watermarked)
//
// Snapshot isolation. The service owns TWO read-only SplashPredictor
// replicas behind a SnapshotGate — streaming state plus SLIM weights, what
// readers read — and ONE SLIM train state (Adam moments, step
// counters, gradient scratch), owned by the apply thread. At boot the
// apply thread takes the train state from replica 0 and replica 1 is an
// in-memory copy of replica 0. The apply thread applies each micro-batch
// to the back replica (observe its edges, run its staged train step with
// the service's train state), publishes it (one atomic store), then
// catches the other replica up on the runtime/ PipelineThread
// (overlapped with waiting for the next batch): it replays the same edges
// and, after a training batch, copies the SLIM weights and RNG position
// from the replica just published instead of training again.
// TrainStep is deterministic, so the copy holds the bytes a second
// training run would reach, and the front is read-only until the next
// cycle's barrier. Both replicas are thus bit-identical state machines
// one batch apart. Readers
// pin the front replica and run the const query path
// (SplashPredictor::PredictBatchConst) with per-client scratch — no lock,
// no copy, never blocking ingest — and every response carries the
// watermark (applied-edge count + last applied timestamp) of the snapshot
// that answered it. The observe/predict boundary therefore stays explicit
// end to end: a query at watermark W reflects exactly the edges [0, W).
//
// Consistency contract (serve_service_test pins it): a response at
// watermark W is bit-identical to a serial replay of the ingest log
// truncated at W and to re-applying the recorded micro-batch sequence,
// and queries can never observe a torn state (the gate drains readers
// before a buffer is rewritten). The service starts two threads: the
// apply thread and the catch-up PipelineThread.
//
// Drift counters. The service boundary exposes live shift signals:
// fraction of queried nodes unseen at training time, novel node ids in the
// ingest stream, and timestamp regressions — the quantities the
// robustness-under-shift literature tracks, surfaced where an operator
// would watch them.
//
// One service is the whole serving tier: one model fed by one edge
// stream, as the paper runs it. This header also holds its boundary
// types — admission results, responses, counters — and ServeClient, the
// per-reader handle every query goes through.

#ifndef SPLASH_SERVE_SERVICE_H_
#define SPLASH_SERVE_SERVICE_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/serialize.h"
#include "core/splash.h"
#include "core/status.h"
#include "datasets/dataset.h"
#include "eval/timing.h"
#include "eval/trainer.h"
#include "graph/edge_stream.h"
#include "runtime/pipeline.h"
#include "serve/ingest_queue.h"
#include "serve/snapshot.h"
#include "serve/wal.h"

namespace splash {

/// Admission result of IngestEdge/SubmitTrain. Distinguishes retryable
/// rejection (backlog under kDropNewest — the item was valid, the queue
/// was full *now*) from permanent rejection (invalid at the boundary, or
/// the service stopped), so retry loops need not consult counters to
/// decide.
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

/// One answered query batch. `watermark_seq` edges (and every train batch
/// at or before that boundary) are reflected in `scores`; `watermark_time`
/// is the timestamp of the last reflected edge (0 when none).
struct ServeResponse {
  Matrix scores;               // B x out_dim class scores
  double score = 0.0;          // convenience margin (see PredictNode/ScoreEdge)
  uint64_t watermark_seq = 0;
  double watermark_time = 0.0;
  /// True while the snapshot trails what recovery knows is durable (WAL
  /// replay still catching up) or after a durability I/O error put the
  /// service into degraded (serving-but-not-logging) mode.
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
  uint64_t queries = 0;
  uint64_t unseen_node_queries = 0;  // queried node not in the train seen set
  // One-row reads answered from the published replica's cold-read memo
  // (SplashPredictor::PredictBatchConst): nodes no edge has touched.
  uint64_t cold_reads = 0;
  // Always 0: every read is direct. Kept only because the system
  // benchmark's serve workload still reads them (its coalesced_frac and
  // group_size); the change that re-points that benchmark deletes them.
  uint64_t coalesced_groups = 0;
  uint64_t coalesced_callers = 0;
  uint64_t novel_ingest_nodes = 0;   // ids first observed by the service
  uint64_t time_regressions = 0;     // out-of-order timestamps clamped
  uint64_t published_seq = 0;        // edges in the published snapshot
  double published_time = 0.0;       // its last edge's timestamp
  size_t queue_depth = 0;
  size_t queue_high_watermark = 0;
  // Durability counters (all zero when data_dir is unset).
  uint64_t wal_records = 0;
  uint64_t wal_fsyncs = 0;
  uint64_t wal_io_errors = 0;
  uint64_t checkpoints_written = 0;
  uint64_t recovered_seq = 0;             // watermark recovery restored to
  uint64_t recovery_replayed_batches = 0; // WAL records replayed at recovery
  bool degraded = false;
};

struct ServeStats {
  ServeCounters counters;
  LatencySummary predict;  // per-query latency, merged over clients
  LatencySummary ingest;   // producer enqueue latency (incl. block time)
  LatencySummary apply;    // per-micro-batch apply latency
};

/// One client's predict-latency histogram, registered with the service so
/// Stats() can merge it. The mutex serializes the client's RecordNs
/// against the service's Stats() walk.
struct ClientHistogram {
  std::mutex mu;
  LatencyHistogram hist;
};

struct SplashServiceOptions {
  /// Micro-batch size watermark: the apply thread coalesces up to this
  /// many ingest items per apply cycle.
  size_t microbatch_max_items = 256;
  /// Micro-batch time watermark: once one item is pending, how long the
  /// apply thread waits for the batch to fill before applying anyway.
  double microbatch_max_delay_s = 0.002;
  /// Ingest queue capacity (items) and what happens when it is full.
  size_t queue_capacity = 8192;
  BackpressurePolicy backpressure = BackpressurePolicy::kBlock;
  /// Apply SubmitTrain feedback as staged train steps at micro-batch
  /// boundaries (online continual learning). Off = feedback is dropped.
  bool train_on_ingest_labels = true;

  // ---- Durability (DESIGN.md §7). Empty data_dir = no durability: the
  // service behaves exactly as before this layer existed.
  /// Directory for WAL segments and checkpoints. Non-empty enables the
  /// durability layer; use RecoverOrStart() instead of Start().
  std::string data_dir;
  /// Group-commit fsync policy for WAL appends.
  WalFsyncPolicy wal_fsync = WalFsyncPolicy::kBatch;
  /// kBatch: fsync once per this many appended records.
  size_t wal_group_records = 8;
  /// Take a checkpoint every N applied micro-batches (0 = only at Stop).
  /// Checkpoints run on the apply thread at a quiesced watermark; queries
  /// keep being served from the published snapshot throughout.
  uint64_t checkpoint_interval_batches = 256;
  /// Checkpoint once more when Stop() drains (fast restart: empty WAL tail).
  bool checkpoint_on_stop = true;
  /// Delete WAL segments made redundant by a successful checkpoint. Tests
  /// and the crash harness disable this to keep the full apply history
  /// available for the bit-exact recovery oracle.
  bool gc_wal_on_checkpoint = true;

  /// Field-named sanity check, run by Start/RecoverOrStart before any
  /// thread or file is touched: a misconfigured service refuses to start
  /// with an error naming the offending field instead of deadlocking or
  /// silently disabling a layer at runtime.
  Status Validate() const;
};

class SplashService {
 public:
  SplashService(const SplashOptions& model_opts,
                const SplashServiceOptions& opts);
  ~SplashService();

  SplashService(const SplashService&) = delete;
  SplashService& operator=(const SplashService&) = delete;

  /// Prepares replica 0 on `warmup` (feature fitting + selection and,
  /// when `fit` is non-null, a full StreamTrainer::Fit), resets streaming
  /// state, takes its SLIM train state, copies it into replica 1, and
  /// starts the apply thread. The
  /// ingest log starts empty: watermark 0 means "no edge beyond the fitted
  /// weights".
  Status Start(const Dataset& warmup, const ChronoSplit& split,
               const TrainerOptions* fit = nullptr);

  /// Durable start (requires Options::data_dir). Loads the newest valid
  /// checkpoint if one exists (otherwise runs the same deterministic
  /// Prepare/Fit as Start), replays the WAL tail past it — preserving the
  /// recorded micro-batch boundaries, so train-step composition and with
  /// it every weight bit is reproduced — publishes snapshots as replay
  /// advances (responses carry degraded=true until caught up), opens a
  /// fresh WAL segment at the recovered watermark, and starts the apply
  /// thread. With an empty data_dir this is exactly Start(): both run the
  /// one boot sequence (Boot).
  Status RecoverOrStart(const Dataset& warmup, const ChronoSplit& split,
                        const TrainerOptions* fit = nullptr);

  /// Enqueues one edge. kInvalid on boundary rejection (invalid endpoint /
  /// non-finite timestamp — counted as ingest_dropped), kBacklogDropped on
  /// a kDropNewest backlog drop, kStopped when not running. Out-of-order
  /// timestamps are clamped to the log's max at apply time (counted as
  /// time_regressions).
  IngestResult IngestEdge(const TemporalEdge& e);

  /// Enqueues one labeled training query, applied as part of a staged
  /// train step at the next micro-batch boundary (after that batch's
  /// edges). kInvalid on boundary rejection (invalid node, non-finite
  /// time, class_label outside [0, num_classes) — counted as
  /// train_dropped) and, uncounted, when train_on_ingest_labels is off.
  IngestResult SubmitTrain(const PropertyQuery& q);

  /// Blocks until everything accepted before the call is applied AND
  /// published. No-op when not running.
  void Flush();

  /// Drains the queue, applies the tail, stops the apply thread. Queries
  /// remain valid after Stop() (the final snapshot stays published).
  /// Idempotent and safe before Start(): a never-started service ignores
  /// the call (and its queue stays usable for a later Start).
  void Stop();

  bool running() const { return running_; }
  /// Counters plus the predict/ingest/apply latency summaries, each
  /// merged bucket-wise over its histograms and summarized once.
  ServeStats Stats() const;
  /// Counters only (no histogram merge).
  ServeCounters Counters() const;
  /// Edges reflected in the published snapshot.
  uint64_t published_seq() const;

  /// Sticky degraded flag: set on durability I/O errors and on WAL replay
  /// gaps at recovery — "serving, but not everything promised durable/
  /// recoverable held". Never set while data_dir is unset.
  bool degraded() const { return degraded_.load(std::memory_order_relaxed); }
  /// Watermark recovery restored to (checkpoint + replayed WAL tail).
  uint64_t recovered_seq() const { return recovered_seq_; }
  bool recovered_from_checkpoint() const {
    return recovered_from_checkpoint_;
  }

  /// Test hook — stable only while quiescent (after Flush() with no
  /// concurrent producers, or after Stop()). The applied micro-batch
  /// sequence itself is the WAL (ReadWalHistory).
  const EdgeStream& ingest_log() const { return log_; }
  /// Serializes the quiescent predictor state (the back replica — after
  /// Flush with no concurrent producers, or after Stop, both replicas are
  /// bit-identical — together with the service's train state: the bytes
  /// a predictor owning both would write). The byte-comparison handle of
  /// the recovery oracle.
  void SerializePredictorState(ByteWriter* w) const;

 private:
  // ServeClient is the one read handle: it registers its predict
  // histogram and reads through ScoreQueries.
  friend class ServeClient;

  /// The one read body behind every ServeClient call: pins the front
  /// replica once, scores `queries` with PredictBatchConst into
  /// `scratch`, counts, unpins, then copies the score rows, the watermark
  /// and the degraded flag into `resp`. Wait-free with respect to ingest.
  /// A call racing Start() returns an empty response rather than reading
  /// half-prepared state. `scratch` must be used by one thread at a time;
  /// it and `resp` are grow-only across calls.
  void ScoreQueries(const std::vector<PropertyQuery>& queries,
                    SplashQueryScratch* scratch, ServeResponse* resp);

  // Client registry: each ServeClient registers its histogram so Stats()
  // can merge per-client predict latency; a departed client's samples
  // are folded into the retired digest.
  void RegisterClient(ClientHistogram* client);
  void UnregisterClient(ClientHistogram* client);
  /// Folds the endpoint histograms into the given accumulators (exact
  /// bucket-wise merges).
  void MergeEndpointHistograms(LatencyHistogram* ingest,
                               LatencyHistogram* apply) const;
  /// The published (seq, time) pair, read consistently under one pin.
  void PublishedWatermark(uint64_t* seq, double* time) const;

  /// The one boot sequence behind Start (recover=false) and
  /// RecoverOrStart: validate, build the base state (checkpoint or
  /// deterministic Prepare/Fit), replay the WAL tail, start the apply
  /// thread.
  Status Boot(const Dataset& warmup, const ChronoSplit& split,
              const TrainerOptions* fit, bool recover);
  void ApplyLoop();
  /// Applies one micro-batch (its log range [seq_begin, seq_end) and train
  /// batch, already appended to log_) to the back replica — ObserveBulk,
  /// then the staged train step with train_state_ — stamps its watermark
  /// and publishes it:
  /// WAL replay and live apply alike. Returns the old front, which still
  /// has to catch up on the same batch.
  uint32_t ApplyAndPublish(const WalRecord& rec);
  /// Brings replica `idx` level with the front once its readers drained:
  /// replays `rec`'s edges, then, for a training batch, copies the front's
  /// SLIM weights and RNG position (SplashPredictor::CopyModelFrom) instead
  /// of training again.
  void CatchUp(uint32_t idx, const WalRecord& rec);
  /// Admission tail shared by IngestEdge/SubmitTrain: push, time, count.
  IngestResult Enqueue(const IngestItem& item,
                       std::atomic<uint64_t>* accepted,
                       std::atomic<uint64_t>* dropped);
  /// Deterministic prep (+fit) of replica 0 and warmup-derived
  /// log/seen-set initialization: the base state when no checkpoint
  /// exists. Boot takes replica 0's train state and copies replica 0
  /// into replica 1 either way.
  Status PrepareBaseState(const Dataset& warmup, const ChronoSplit& split,
                          const TrainerOptions* fit);
  /// Clamp + novel-id accounting + log append for one validated edge.
  /// Returns the post-clamp edge (what the WAL records).
  TemporalEdge AppendEdgeToLog(TemporalEdge e);
  /// Quiesced-state checkpoint + WAL rotation (apply thread / recovery
  /// path only; both replicas must be identical at the published W).
  void WriteServiceCheckpoint();
  void NoteWalError();
  void MirrorWalFsyncs();

  SplashOptions model_opts_;
  SplashServiceOptions opts_;

  // Read-only replicas: weights and streaming state. SLIM's one
  // train state (Adam moments, step counters, gradient scratch) is the
  // apply thread's: ApplyAndPublish trains the back replica with it, and
  // checkpoints serialize a replica together with it.
  std::unique_ptr<SplashPredictor> replicas_[2];
  std::unique_ptr<SlimTrainState> train_state_;
  size_t num_classes_ = 0;  // SubmitTrain's label bound, set at boot
  SnapshotGate gate_;
  // Per-buffer watermark, written by the apply thread while the buffer is
  // the (exclusive) back, published to readers by gate_.Publish().
  uint64_t wm_seq_[2] = {0, 0};
  double wm_time_[2] = {0.0, 0.0};

  IngestQueue queue_;
  EdgeStream log_;  // apply-thread-owned append; snapshot reads via bounds
  std::thread apply_thread_;
  PipelineThread pipe_;  // runs the old front's catch-up (CatchUp)
  std::atomic<bool> running_{false};
  // Set (release) once Start() finished initializing both replicas and
  // never cleared: the query path's acquire load is its happens-before
  // edge to the replica pointers, so a Predict racing Start() returns an
  // empty response instead of reading half-prepared state. Queries stay
  // valid after Stop() (running_ false, started_ true).
  std::atomic<bool> started_{false};

  // Flush accounting: items accepted vs applied (mu_flush_ guards applied).
  std::atomic<uint64_t> accepted_items_{0};
  mutable std::mutex flush_mu_;
  std::condition_variable flush_cv_;
  uint64_t applied_items_ = 0;

  // Counters (relaxed; read by Stats()).
  std::atomic<uint64_t> ingest_accepted_{0}, ingest_dropped_{0};
  std::atomic<uint64_t> train_accepted_{0}, train_dropped_{0};
  std::atomic<uint64_t> batches_applied_{0}, train_steps_{0};
  std::atomic<uint64_t> queries_{0}, unseen_node_queries_{0};
  std::atomic<uint64_t> cold_reads_{0};
  std::atomic<uint64_t> novel_ingest_nodes_{0}, time_regressions_{0};

  // Endpoint histograms. Ingest-enqueue latency is striped by producer
  // thread (hash of thread id) so concurrent producers do not serialize
  // on one mutex just to bump a bucket; the apply histogram has a single
  // writer and shares the stats lock. Per-client predict histograms live
  // with the clients and are merged via the client registry.
  static constexpr size_t kIngestHistStripes = 8;
  struct HistStripe {
    std::mutex mu;
    LatencyHistogram hist;
  };
  mutable HistStripe ingest_hist_[kIngestHistStripes];
  void RecordIngestNs(uint64_t ns);
  mutable std::mutex hist_mu_;
  LatencyHistogram apply_hist_;
  mutable std::mutex clients_mu_;
  std::vector<ClientHistogram*> clients_;
  LatencyHistogram retired_predict_hist_;

  // Apply-thread state.
  std::vector<IngestItem> batch_scratch_;
  WalRecord batch_rec_;                        // micro-batch being applied
  uint32_t catchup_idx_ = 0;                   // in-flight catch-up replica
  std::vector<uint8_t> node_seen_;             // novel-id tracking

  // Durability state (apply-thread-owned except the atomics).
  bool durable_ = false;
  WalWriter wal_;
  ByteWriter ckpt_state_scratch_;      // predictor blob for checkpoints
  uint64_t wal_batch_index_ = 0;       // next record's batch_index
  uint64_t wal_fsyncs_base_ = 0;       // per-segment fsync count mirrored
  uint64_t batches_since_checkpoint_ = 0;
  uint64_t recovered_seq_ = 0;
  bool recovered_from_checkpoint_ = false;
  std::atomic<bool> degraded_{false};
  // Replay target during recovery: snapshots below it answer degraded.
  std::atomic<uint64_t> recovery_target_seq_{0};
  std::atomic<uint64_t> wal_records_{0}, wal_fsyncs_{0}, wal_io_errors_{0};
  std::atomic<uint64_t> checkpoints_written_{0}, recovery_replayed_{0};
};

/// A reader handle: owns the per-thread query scratch and the per-client
/// predict latency histogram. One per reader thread; must not outlive the
/// service. Queries are wait-free with respect to ingest.
class ServeClient {
 public:
  explicit ServeClient(SplashService* service);
  ~ServeClient();

  ServeClient(const ServeClient&) = delete;
  ServeClient& operator=(const ServeClient&) = delete;

  /// The canonical call: scores a batch of property queries against the
  /// current snapshot into a caller-owned response. `resp`'s score
  /// matrix is grow-only, so reusing one response across calls keeps the
  /// steady-state read path allocation-free (the counting-allocator gate
  /// in tests/allocation_steady_state_test.cc pins this).
  /// `timeout_s` > 0 sets a per-call deadline: the answer is always
  /// computed (queries never block on ingest, so there is nothing to
  /// cancel), but `deadline_exceeded` is set when the call overran it.
  void Predict(const std::vector<PropertyQuery>& queries, ServeResponse* resp,
               double timeout_s = 0.0);

  /// Scores one node; `score` = class-1 margin (scores(0,1) - scores(0,0)).
  void PredictNode(NodeId node, double time, ServeResponse* resp,
                   double timeout_s = 0.0);

  /// Scores an edge as max of its endpoints' class-1 margins (the
  /// service-level anomaly score); both endpoints share one snapshot.
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
  SplashService* service_;
  SplashQueryScratch scratch_;
  std::vector<PropertyQuery> query_scratch_;  // for the 1-2 row endpoints
  ClientHistogram hist_;
};

}  // namespace splash

#endif  // SPLASH_SERVE_SERVICE_H_
