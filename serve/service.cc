// Copyright 2026 The SPLASH Reproduction Authors.

#include "serve/service.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <functional>
#include <utility>

#include "serve/checkpoint.h"
#include "serve/fault_injection.h"

namespace splash {

namespace {

bool FiniteNonNegative(double v) { return std::isfinite(v) && v >= 0.0; }

/// Class-1 margin of score row `r`.
double Margin(const Matrix& scores, size_t r) {
  return static_cast<double>(scores(r, 1)) - scores(r, 0);
}

}  // namespace

Status SplashServiceOptions::Validate() const {
  if (microbatch_max_items < 1) {
    return Status::Error(
        "SplashServiceOptions.microbatch_max_items: must be >= 1");
  }
  if (!FiniteNonNegative(microbatch_max_delay_s)) {
    return Status::Error(
        "SplashServiceOptions.microbatch_max_delay_s: must be finite and "
        ">= 0");
  }
  if (queue_capacity < 1) {
    return Status::Error("SplashServiceOptions.queue_capacity: must be >= 1");
  }
  if (microbatch_max_items > queue_capacity) {
    return Status::Error(
        "SplashServiceOptions.microbatch_max_items: must be <= "
        "queue_capacity (a batch larger than the queue never fills, so "
        "every micro-batch would wait out microbatch_max_delay_s)");
  }
  if (!data_dir.empty() && wal_fsync == WalFsyncPolicy::kBatch &&
      wal_group_records < 1) {
    return Status::Error(
        "SplashServiceOptions.wal_group_records: must be >= 1 under "
        "WalFsyncPolicy::kBatch");
  }
  return Status::Ok();
}

SplashService::SplashService(const SplashOptions& model_opts,
                             const SplashServiceOptions& opts)
    : model_opts_(model_opts),
      opts_(opts),
      queue_(opts.queue_capacity, opts.backpressure) {}

SplashService::~SplashService() { Stop(); }

Status SplashService::PrepareBaseState(const Dataset& warmup,
                                       const ChronoSplit& split,
                                       const TrainerOptions* fit) {
  // One deterministic Prepare (+Fit) builds replica 0; Boot copies it
  // into replica 1.
  replicas_[0] = std::make_unique<SplashPredictor>(model_opts_);
  Status st = replicas_[0]->Prepare(warmup, split);
  if (!st.ok()) return st;
  if (fit != nullptr) {
    StreamTrainer trainer(*fit);
    trainer.Fit(replicas_[0].get(), warmup, split);
  }
  replicas_[0]->SetTraining(false);
  replicas_[0]->ResetState();
  // Serving starts from an empty ingest log: watermark 0 == "weights only,
  // no streamed edge". Nodes touched by the warmup stream are "known";
  // everything else counts toward the novel-id drift signal.
  log_ = EdgeStream();
  log_.EnsureNodeCapacity(warmup.stream.num_nodes());
  node_seen_.assign(warmup.stream.num_nodes(), 0);
  const NodeId* wsrc = warmup.stream.src_data();
  const NodeId* wdst = warmup.stream.dst_data();
  for (size_t i = 0; i < warmup.stream.size(); ++i) {
    node_seen_[wsrc[i]] = 1;
    node_seen_[wdst[i]] = 1;
  }
  return Status::Ok();
}

Status SplashService::Start(const Dataset& warmup, const ChronoSplit& split,
                            const TrainerOptions* fit) {
  return Boot(warmup, split, fit, /*recover=*/false);
}

Status SplashService::RecoverOrStart(const Dataset& warmup,
                                     const ChronoSplit& split,
                                     const TrainerOptions* fit) {
  return Boot(warmup, split, fit, /*recover=*/true);
}

Status SplashService::Boot(const Dataset& warmup, const ChronoSplit& split,
                           const TrainerOptions* fit, bool recover) {
  const std::string who =
      recover ? "SplashService::RecoverOrStart" : "SplashService::Start";
  Status st = opts_.Validate();
  if (!st.ok()) return st;
  if (!recover && !opts_.data_dir.empty()) {
    return Status::Error(who + ": data_dir is set — use RecoverOrStart()");
  }
  if (running_.load()) return Status::Error(who + ": already running");
  if (apply_thread_.joinable()) {
    return Status::Error(who + ": service cannot restart");
  }
  durable_ = !opts_.data_dir.empty();
  if (durable_ && ::mkdir(opts_.data_dir.c_str(), 0755) != 0 &&
      errno != EEXIST) {
    return Status::Error(who + ": cannot create " + opts_.data_dir + ": " +
                         std::strerror(errno));
  }

  // Base state: the newest valid checkpoint, else the deterministic
  // Prepare/Fit pipeline (recovery without a checkpoint rebuilds the
  // fitted weights bit-identically and replays from zero).
  CheckpointData ckpt;
  bool have_ckpt = false;
  if (durable_) {
    st = LoadLatestCheckpoint(opts_.data_dir, &ckpt, &have_ckpt);
    if (!st.ok()) return st;
  }
  if (have_ckpt) {
    replicas_[0] = std::make_unique<SplashPredictor>(model_opts_);
    ByteReader rd(ckpt.predictor_state);
    st = replicas_[0]->DeserializeState(&rd);
    if (!st.ok()) return st;
    log_ = std::move(ckpt.log);
    node_seen_ = std::move(ckpt.node_seen);
    wal_batch_index_ = ckpt.batches_applied;
    recovered_from_checkpoint_ = true;
  } else {
    st = PrepareBaseState(warmup, split, fit);
    if (!st.ok()) return st;
  }
  // The apply thread owns SLIM's one train state; replica 0 keeps its
  // read state. Replica 1 is then an in-memory, read-only copy of replica
  // 0 — the invariant the whole snapshot scheme rests on: two identical
  // state machines one batch apart. The boot state is published like any
  // other, before the copy: replica 1 copies replica 0's cold-read memo.
  train_state_ = replicas_[0]->ReleaseTrainState();
  replicas_[0]->PrepareForPublish();
  replicas_[1] = std::make_unique<SplashPredictor>(*replicas_[0]);
  num_classes_ = replicas_[0]->out_dim();
  wm_seq_[0] = wm_seq_[1] = log_.size();
  wm_time_[0] = wm_time_[1] = log_.empty() ? 0.0 : log_.max_time();

  // The WAL tail past the checkpoint cursor. A gap before records that
  // should exist means history was lost: recovery still proceeds, but the
  // service is degraded.
  std::vector<WalRecord> tail;
  bool gap = false;
  if (durable_) {
    st = ReadWalHistory(opts_.data_dir, wal_batch_index_, log_.size(), &tail,
                        &gap);
    if (!st.ok()) return st;
  }
  recovery_target_seq_.store(tail.empty() ? log_.size() : tail.back().seq_end,
                             std::memory_order_relaxed);
  if (gap) degraded_.store(true, std::memory_order_relaxed);

  // Queries may run during replay; they see the advancing snapshots and
  // answer degraded=true until the watermark reaches the replay target.
  started_.store(true, std::memory_order_release);

  // Replay preserving the recorded micro-batch boundaries: train-batch
  // composition feeds SLIM's update order, so re-batching would change
  // bits. Publication follows the same gate protocol as live apply.
  for (const WalRecord& rec : tail) {
    for (const TemporalEdge& e : rec.edges) AppendEdgeToLog(e);
    const uint32_t other = ApplyAndPublish(rec);
    CatchUp(other, rec);
    wm_seq_[other] = wm_seq_[1 - other];
    wm_time_[other] = wm_time_[1 - other];
    ++wal_batch_index_;
  }
  recovered_seq_ = log_.size();
  recovery_replayed_.store(tail.size(), std::memory_order_relaxed);

  // Checkpoint-on-recovery: makes the replayed tail durable again before
  // the rotation below truncates/GCs anything, and gives a fresh durable
  // start an immediate base checkpoint. Also opens the new active WAL
  // segment. On failure the service comes up degraded (serving, not
  // logging) rather than refusing to serve.
  if (durable_) WriteServiceCheckpoint();

  running_.store(true, std::memory_order_release);
  apply_thread_ = std::thread(&SplashService::ApplyLoop, this);
  return Status::Ok();
}

void SplashService::RecordIngestNs(uint64_t ns) {
  HistStripe& stripe =
      ingest_hist_[std::hash<std::thread::id>{}(std::this_thread::get_id()) &
                   (kIngestHistStripes - 1)];
  std::lock_guard<std::mutex> lk(stripe.mu);
  stripe.hist.RecordNs(ns);
}

IngestResult SplashService::Enqueue(const IngestItem& item,
                                    std::atomic<uint64_t>* accepted,
                                    std::atomic<uint64_t>* dropped) {
  WallTimer timer;
  const bool ok = queue_.Push(item);
  const uint64_t ns = timer.Nanos();
  (ok ? accepted : dropped)->fetch_add(1, std::memory_order_relaxed);
  if (ok) accepted_items_.fetch_add(1, std::memory_order_relaxed);
  RecordIngestNs(ns);
  if (ok) return IngestResult::kAccepted;
  // Push fails either because Stop() raced us or the kDropNewest ring was
  // full; only the latter is retryable.
  return queue_.stopped() ? IngestResult::kStopped
                          : IngestResult::kBacklogDropped;
}

IngestResult SplashService::IngestEdge(const TemporalEdge& e) {
  if (!running_.load(std::memory_order_acquire)) {
    return IngestResult::kStopped;
  }
  // Boundary validation: an invalid endpoint or non-finite timestamp is
  // rejected here (counted as a drop) so the apply thread can treat every
  // queued edge as appendable — and so a sentinel id can never size the
  // node tables to the full 2^32 id space.
  if (e.src == kInvalidNode || e.dst == kInvalidNode ||
      !std::isfinite(e.time)) {
    ingest_dropped_.fetch_add(1, std::memory_order_relaxed);
    return IngestResult::kInvalid;
  }
  IngestItem item;
  item.kind = IngestItem::Kind::kEdge;
  item.edge = e;
  return Enqueue(item, &ingest_accepted_, &ingest_dropped_);
}

IngestResult SplashService::SubmitTrain(const PropertyQuery& q) {
  if (!opts_.train_on_ingest_labels) {
    // Feedback is administratively off: not counted as a drop (nothing
    // was promised), and never retryable.
    return IngestResult::kInvalid;
  }
  if (!running_.load(std::memory_order_acquire)) {
    train_dropped_.fetch_add(1, std::memory_order_relaxed);
    return IngestResult::kStopped;
  }
  // Boundary validation, as IngestEdge does for edges: an invalid node, a
  // non-finite time (it would turn every time delta of the row into NaN)
  // or a label outside [0, num_classes) is rejected here and counted as a
  // drop, instead of being trained on under a clamped label.
  if (q.node == kInvalidNode || !std::isfinite(q.time) ||
      q.class_label < 0 ||
      static_cast<size_t>(q.class_label) >= num_classes_) {
    train_dropped_.fetch_add(1, std::memory_order_relaxed);
    return IngestResult::kInvalid;
  }
  IngestItem item;
  item.kind = IngestItem::Kind::kTrain;
  item.train = q;
  return Enqueue(item, &train_accepted_, &train_dropped_);
}

TemporalEdge SplashService::AppendEdgeToLog(TemporalEdge e) {
  if (!log_.empty() && e.time < log_.max_time()) {
    // The log is a *stream*: monotonize stragglers instead of rejecting
    // them, and surface the count as a drift signal.
    time_regressions_.fetch_add(1, std::memory_order_relaxed);
    e.time = log_.max_time();
  }
  const size_t prev_nodes = node_seen_.size();
  const size_t hi = static_cast<size_t>(std::max(e.src, e.dst)) + 1;
  if (hi > prev_nodes) node_seen_.resize(hi, 0);
  uint64_t novel = 0;
  novel += node_seen_[e.src] == 0 ? 1 : 0;
  node_seen_[e.src] = 1;
  novel += node_seen_[e.dst] == 0 ? 1 : 0;
  node_seen_[e.dst] = 1;
  if (novel > 0) {
    novel_ingest_nodes_.fetch_add(novel, std::memory_order_relaxed);
  }
  log_.Append(e).ok();  // cannot fail: endpoints valid, time monotone
  return e;
}

void SplashService::NoteWalError() {
  wal_io_errors_.fetch_add(1, std::memory_order_relaxed);
  degraded_.store(true, std::memory_order_relaxed);
  wal_.Close();
}

void SplashService::MirrorWalFsyncs() {
  const uint64_t fs = wal_.fsyncs();
  if (fs > wal_fsyncs_base_) {
    wal_fsyncs_.fetch_add(fs - wal_fsyncs_base_, std::memory_order_relaxed);
    wal_fsyncs_base_ = fs;
  }
}

void SplashService::WriteServiceCheckpoint() {
  const uint64_t seq = log_.size();
  const double wm_time = log_.empty() ? 0.0 : log_.max_time();
  ckpt_state_scratch_.Clear();
  replicas_[gate_.back()]->SerializeState(&ckpt_state_scratch_,
                                          train_state_.get());
  Status st = WriteCheckpoint(opts_.data_dir, seq, wal_batch_index_, wm_time,
                              log_, node_seen_, ckpt_state_scratch_.buffer());
  if (!st.ok()) {
    // A failed checkpoint is a durability I/O error like any other: keep
    // serving, keep the WAL (if open) appending, flag degraded.
    wal_io_errors_.fetch_add(1, std::memory_order_relaxed);
    degraded_.store(true, std::memory_order_relaxed);
    return;
  }
  checkpoints_written_.fetch_add(1, std::memory_order_relaxed);
  batches_since_checkpoint_ = 0;
  SPLASH_CRASH_POINT(CrashPoint::kCheckpointAfterRename);

  // Rotate: everything before wal_batch_index_ is inside the checkpoint,
  // so the new active segment starts exactly at the cursor. Old segments
  // are GC'd unless tests keep them for the full-history oracle.
  wal_.Close();
  MirrorWalFsyncs();
  Status wst = wal_.Open(WalSegmentPath(opts_.data_dir, wal_batch_index_),
                         seq, opts_.wal_fsync, opts_.wal_group_records);
  wal_fsyncs_base_ = 0;
  if (!wst.ok()) {
    NoteWalError();
    return;
  }
  if (opts_.gc_wal_on_checkpoint) {
    for (const WalSegmentInfo& seg : ListWalSegments(opts_.data_dir)) {
      if (seg.start_index != wal_batch_index_) ::unlink(seg.path.c_str());
    }
  }
}

void SplashService::SerializePredictorState(ByteWriter* w) const {
  replicas_[gate_.back()]->SerializeState(w, train_state_.get());
}

uint32_t SplashService::ApplyAndPublish(const WalRecord& rec) {
  const uint32_t back = gate_.back();
  SplashPredictor* rep = replicas_[back].get();
  if (rec.seq_end > rec.seq_begin) {
    rep->ObserveBulk(log_, rec.seq_begin, rec.seq_end);
  }
  if (!rec.train.empty()) {
    // The staged split-phase path (core/predictor.h): assemble from the
    // just-advanced state, then pure compute on the staged tensors.
    // The replica is read-only; the step runs with the service's train
    // state.
    rep->SetTraining(true);
    rep->StageBatch(rec.train);
    rep->TrainStaged(train_state_.get());
    rep->SetTraining(false);
  }
  // By the time this replica is pinned by a reader its cold-read memo is
  // current. The memo follows the weights version, so this recomputes it
  // after a training batch and only verifies after an edge-only one.
  rep->PrepareForPublish();
  wm_seq_[back] = rec.seq_end;
  wm_time_[back] = rec.seq_end > 0 ? log_.max_time() : 0.0;
  gate_.Publish();
  return gate_.back();
}

void SplashService::CatchUp(uint32_t idx, const WalRecord& rec) {
  gate_.WaitReadersDrained(idx);
  SplashPredictor* rep = replicas_[idx].get();
  if (rec.seq_end > rec.seq_begin) {
    rep->ObserveBulk(log_, rec.seq_begin, rec.seq_end);
  }
  if (!rec.train.empty()) {
    // The front trained on this batch from the state this replica now
    // holds, and TrainStep is deterministic: copy its weights and RNG
    // position instead of assembling and training again (the
    // optimizer state is the service's, not a replica's). The front stays
    // read-only until the next cycle's pipe_.Wait(), and readers only
    // read it, so the copy races nothing. Same architecture by
    // construction, so the copy cannot fail.
    rep->CopyModelFrom(*replicas_[1 - idx]).ok();
  }
  // The copy brought the front's current memo along: this only verifies.
  rep->PrepareForPublish();
}

void SplashService::ApplyLoop() {
  for (;;) {
    const size_t n =
        queue_.PopBatch(&batch_scratch_, opts_.microbatch_max_items,
                        opts_.microbatch_max_delay_s);
    if (n == 0) break;  // stopped and drained
    WallTimer apply_timer;

    // Barrier: the previous catch-up retired, so the back replica is
    // current and batch_rec_ / log_ are exclusively ours again.
    pipe_.Wait();

    // Quiesced point: both replicas identical at watermark log_.size().
    if (durable_ && opts_.checkpoint_interval_batches > 0 &&
        batches_since_checkpoint_ >= opts_.checkpoint_interval_batches) {
      WriteServiceCheckpoint();
    }

    // The micro-batch in its WAL form: what is logged is what is applied.
    batch_rec_.Clear();
    batch_rec_.seq_begin = log_.size();
    for (const IngestItem& item : batch_scratch_) {
      if (item.kind == IngestItem::Kind::kTrain) {
        batch_rec_.train.push_back(item.train);
        continue;
      }
      // Endpoints/time were validated at ingest; record the post-clamp
      // edge so WAL replay reproduces the log byte-for-byte.
      batch_rec_.edges.push_back(AppendEdgeToLog(item.edge));
    }
    batch_rec_.seq_end = log_.size();

    // Write-ahead: the batch is durable (per the fsync policy) before any
    // replica state or watermark reflects it. An append failure flips the
    // service to degraded (serving, not logging) instead of stalling it.
    if (durable_ && wal_.is_open()) {
      batch_rec_.batch_index = wal_batch_index_;
      batch_rec_.wm_time = log_.empty() ? 0.0 : log_.max_time();
      const Status wst = wal_.Append(batch_rec_);
      if (wst.ok()) {
        ++wal_batch_index_;
        wal_records_.fetch_add(1, std::memory_order_relaxed);
        MirrorWalFsyncs();
      } else {
        NoteWalError();
      }
    }
    ++batches_since_checkpoint_;

    catchup_idx_ = ApplyAndPublish(batch_rec_);
    batches_applied_.fetch_add(1, std::memory_order_relaxed);
    if (!batch_rec_.train.empty()) {
      train_steps_.fetch_add(1, std::memory_order_relaxed);
    }

    // Catch-up: the old front (now back) replays the batch's edges and
    // copies the published model on the pipeline thread, overlapped with
    // waiting for the next batch. batch_rec_ and the published replica
    // stay untouched until the next cycle's pipe_.Wait().
    pipe_.Submit(
        [](void* p) {
          auto* self = static_cast<SplashService*>(p);
          self->CatchUp(self->catchup_idx_, self->batch_rec_);
        },
        this);

    {
      std::lock_guard<std::mutex> lk(flush_mu_);
      applied_items_ += n;
    }
    flush_cv_.notify_all();
    {
      std::lock_guard<std::mutex> lk(hist_mu_);
      apply_hist_.RecordNs(apply_timer.Nanos());
    }
  }
  pipe_.Wait();  // no ingest outlives the service
  if (durable_) {
    if (opts_.checkpoint_on_stop && batches_since_checkpoint_ > 0) {
      WriteServiceCheckpoint();
    }
    wal_.Close();
    MirrorWalFsyncs();
  }
  flush_cv_.notify_all();
}

void SplashService::Flush() {
  if (!running_.load(std::memory_order_acquire)) return;
  const uint64_t target = accepted_items_.load(std::memory_order_acquire);
  std::unique_lock<std::mutex> lk(flush_mu_);
  flush_cv_.wait(lk, [&] {
    return applied_items_ >= target ||
           !running_.load(std::memory_order_acquire);
  });
}

void SplashService::Stop() {
  const bool was = running_.exchange(false);
  if (!was) {
    // Never started, or a previous Stop() already drained and joined.
    // Crucially the queue is left untouched: Stop() before Start() must
    // not poison it for a later Start (IngestQueue::Stop is terminal).
    return;
  }
  queue_.Stop();
  flush_cv_.notify_all();
  if (apply_thread_.joinable()) apply_thread_.join();
}

uint64_t SplashService::published_seq() const {
  const uint32_t idx = gate_.Pin();
  const uint64_t seq = wm_seq_[idx];
  gate_.Unpin(idx);
  return seq;
}

void SplashService::PublishedWatermark(uint64_t* seq, double* time) const {
  const uint32_t idx = gate_.Pin();
  *seq = wm_seq_[idx];
  *time = wm_time_[idx];
  gate_.Unpin(idx);
}

ServeCounters SplashService::Counters() const {
  ServeCounters c;
  c.ingest_accepted = ingest_accepted_.load(std::memory_order_relaxed);
  c.ingest_dropped = ingest_dropped_.load(std::memory_order_relaxed);
  c.train_accepted = train_accepted_.load(std::memory_order_relaxed);
  c.train_dropped = train_dropped_.load(std::memory_order_relaxed);
  c.batches_applied = batches_applied_.load(std::memory_order_relaxed);
  c.train_steps = train_steps_.load(std::memory_order_relaxed);
  c.queries = queries_.load(std::memory_order_relaxed);
  c.unseen_node_queries =
      unseen_node_queries_.load(std::memory_order_relaxed);
  c.cold_reads = cold_reads_.load(std::memory_order_relaxed);
  c.novel_ingest_nodes = novel_ingest_nodes_.load(std::memory_order_relaxed);
  c.time_regressions = time_regressions_.load(std::memory_order_relaxed);
  c.queue_depth = queue_.size();
  c.queue_high_watermark = queue_.high_watermark();
  c.wal_records = wal_records_.load(std::memory_order_relaxed);
  c.wal_fsyncs = wal_fsyncs_.load(std::memory_order_relaxed);
  c.wal_io_errors = wal_io_errors_.load(std::memory_order_relaxed);
  c.checkpoints_written =
      checkpoints_written_.load(std::memory_order_relaxed);
  c.recovered_seq = recovered_seq_;
  c.recovery_replayed_batches =
      recovery_replayed_.load(std::memory_order_relaxed);
  c.degraded = degraded_.load(std::memory_order_relaxed);
  PublishedWatermark(&c.published_seq, &c.published_time);
  return c;
}

void SplashService::MergeEndpointHistograms(LatencyHistogram* ingest,
                                            LatencyHistogram* apply) const {
  for (HistStripe& stripe : ingest_hist_) {
    std::lock_guard<std::mutex> lk(stripe.mu);
    ingest->Merge(stripe.hist);
  }
  std::lock_guard<std::mutex> lk(hist_mu_);
  apply->Merge(apply_hist_);
}

ServeStats SplashService::Stats() const {
  ServeStats st;
  st.counters = Counters();
  LatencyHistogram ingest_merged, apply_merged;
  MergeEndpointHistograms(&ingest_merged, &apply_merged);
  st.ingest = ingest_merged.Summarize();
  st.apply = apply_merged.Summarize();
  LatencyHistogram predict_merged;
  {
    std::lock_guard<std::mutex> lk(clients_mu_);
    predict_merged.Merge(retired_predict_hist_);
    for (ClientHistogram* c : clients_) {
      std::lock_guard<std::mutex> ck(c->mu);
      predict_merged.Merge(c->hist);
    }
  }
  st.predict = predict_merged.Summarize();
  return st;
}

void SplashService::RegisterClient(ClientHistogram* client) {
  std::lock_guard<std::mutex> lk(clients_mu_);
  clients_.push_back(client);
}

void SplashService::UnregisterClient(ClientHistogram* client) {
  std::lock_guard<std::mutex> lk(clients_mu_);
  clients_.erase(std::remove(clients_.begin(), clients_.end(), client),
                 clients_.end());
  // A departed client's samples stay in the service-level digest.
  std::lock_guard<std::mutex> ck(client->mu);
  retired_predict_hist_.Merge(client->hist);
}

// ---------------------------------------------------------------------------
// Read path (DESIGN.md §5). Every ServeClient::Predict* call funnels into
// ScoreQueries. The snapshot critical section holds only replica reads —
// the score copy-out happens after Unpin, and the client's deadline/
// latency epilogue runs after ScoreQueries returns.
// ---------------------------------------------------------------------------

void SplashService::ScoreQueries(const std::vector<PropertyQuery>& queries,
                                 SplashQueryScratch* scratch,
                                 ServeResponse* resp) {
  // Acquire on started_ is the happens-before edge to the replica
  // pointers: a call racing Start() sees false and returns empty rather
  // than reading half-prepared state.
  if (!started_.load(std::memory_order_acquire)) {
    *resp = ServeResponse();
    return;
  }
  const uint32_t idx = gate_.Pin();
  const SplashPredictor* rep = replicas_[idx].get();
  const uint64_t wm_seq = wm_seq_[idx];
  const double wm_time = wm_time_[idx];
  const Matrix& out = rep->PredictBatchConst(queries, scratch);
  uint64_t unseen = 0;
  for (const PropertyQuery& q : queries) {
    if (!rep->augmenter().seen(q.node)) ++unseen;
  }
  gate_.Unpin(idx);
  queries_.fetch_add(queries.size(), std::memory_order_relaxed);
  if (unseen > 0) {
    unseen_node_queries_.fetch_add(unseen, std::memory_order_relaxed);
  }
  if (scratch->cold_read) cold_reads_.fetch_add(1, std::memory_order_relaxed);
  // `out` lives in the client's scratch, so it outlives the pin.
  resp->scores.Resize(queries.size(), out.cols());
  for (size_t r = 0; r < queries.size(); ++r) {
    std::memcpy(resp->scores.Row(r), out.Row(r), out.cols() * sizeof(float));
  }
  resp->score = 0.0;
  resp->watermark_seq = wm_seq;
  resp->watermark_time = wm_time;
  // Degraded: a durability error happened, or recovery replay is still
  // ahead of the snapshot that answered (the answer is honest about its
  // watermark either way — this flags that a fresher state is known).
  resp->degraded =
      degraded_.load(std::memory_order_relaxed) ||
      wm_seq < recovery_target_seq_.load(std::memory_order_relaxed);
  resp->deadline_exceeded = false;
}

// ---------------------------------------------------------------------------
// ServeClient: every call goes through ScoreQueries. The timer/deadline/
// histogram epilogue lives here, outside any snapshot pin.
// ---------------------------------------------------------------------------

ServeClient::ServeClient(SplashService* service) : service_(service) {
  service_->RegisterClient(&hist_);
}

ServeClient::~ServeClient() { service_->UnregisterClient(&hist_); }

void ServeClient::Predict(const std::vector<PropertyQuery>& queries,
                          ServeResponse* resp, double timeout_s) {
  WallTimer timer;
  service_->ScoreQueries(queries, &scratch_, resp);
  // Per-caller epilogue, outside any pin: a call that overran its
  // deadline is answered late-but-flagged, never dropped, and the latency
  // sample covers the whole call.
  const uint64_t ns = timer.Nanos();
  if (timeout_s > 0.0 && static_cast<double>(ns) > timeout_s * 1e9) {
    resp->deadline_exceeded = true;
  }
  {
    std::lock_guard<std::mutex> lk(hist_.mu);
    hist_.hist.RecordNs(ns);
  }
}

void ServeClient::PredictNode(NodeId node, double time, ServeResponse* resp,
                              double timeout_s) {
  query_scratch_.resize(1);
  query_scratch_[0] = PropertyQuery{node, time, 0};
  Predict(query_scratch_, resp, timeout_s);
  if (resp->scores.rows() == 1 && resp->scores.cols() >= 2) {
    resp->score = Margin(resp->scores, 0);
  }
}

void ServeClient::ScoreEdge(NodeId src, NodeId dst, double time,
                            ServeResponse* resp, double timeout_s) {
  query_scratch_.resize(2);
  query_scratch_[0] = PropertyQuery{src, time, 0};
  query_scratch_[1] = PropertyQuery{dst, time, 0};
  Predict(query_scratch_, resp, timeout_s);
  if (resp->scores.rows() == 2 && resp->scores.cols() >= 2) {
    const double ms = Margin(resp->scores, 0);
    const double md = Margin(resp->scores, 1);
    resp->score = ms > md ? ms : md;
  }
}

bool ServeClient::IngestEdgeWithRetry(const TemporalEdge& e, int max_attempts,
                                      double initial_backoff_s) {
  double backoff = initial_backoff_s > 0.0 ? initial_backoff_s : 0.0005;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    const IngestResult r = service_->IngestEdge(e);
    if (r.accepted()) return true;
    if (!r.retryable()) return false;  // kInvalid / kStopped cannot succeed
    if (attempt + 1 == max_attempts) break;
    std::this_thread::sleep_for(
        std::chrono::duration<double>(std::min(backoff, 0.1)));
    backoff *= 2.0;
  }
  return false;
}

}  // namespace splash
