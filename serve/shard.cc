// Copyright 2026 The SPLASH Reproduction Authors.

#include "serve/shard.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <thread>

namespace splash {

namespace {

/// Class-1 margin of score row `r`.
double Margin(const Matrix& scores, size_t r) {
  return static_cast<double>(scores(r, 1)) - scores(r, 0);
}

}  // namespace

void ServeCounters::MergeFrom(const ServeCounters& other) {
  ingest_accepted += other.ingest_accepted;
  ingest_dropped += other.ingest_dropped;
  train_accepted += other.train_accepted;
  train_dropped += other.train_dropped;
  batches_applied += other.batches_applied;
  train_steps += other.train_steps;
  weight_packs += other.weight_packs;
  queries += other.queries;
  unseen_node_queries += other.unseen_node_queries;
  cold_reads += other.cold_reads;
  coalesced_groups += other.coalesced_groups;
  coalesced_callers += other.coalesced_callers;
  direct_calls += other.direct_calls;
  novel_ingest_nodes += other.novel_ingest_nodes;
  time_regressions += other.time_regressions;
  published_seq += other.published_seq;
  published_time = std::max(published_time, other.published_time);
  queue_depth += other.queue_depth;
  queue_high_watermark =
      std::max(queue_high_watermark, other.queue_high_watermark);
  wal_records += other.wal_records;
  wal_fsyncs += other.wal_fsyncs;
  wal_io_errors += other.wal_io_errors;
  checkpoints_written += other.checkpoints_written;
  recovered_seq += other.recovered_seq;
  recovery_replayed_batches += other.recovery_replayed_batches;
  degraded = degraded || other.degraded;
}

QueryBackend::~QueryBackend() = default;

void QueryBackend::RegisterClient(ClientHistogram* client) {
  std::lock_guard<std::mutex> lk(clients_mu_);
  clients_.push_back(client);
}

void QueryBackend::UnregisterClient(ClientHistogram* client) {
  std::lock_guard<std::mutex> lk(clients_mu_);
  clients_.erase(std::remove(clients_.begin(), clients_.end(), client),
                 clients_.end());
  // A departed client's samples stay in the backend-level digest.
  std::lock_guard<std::mutex> ck(client->mu);
  retired_predict_hist_.Merge(client->hist);
}

LatencyHistogram QueryBackend::MergedClientHistogram() const {
  LatencyHistogram merged;
  std::lock_guard<std::mutex> lk(clients_mu_);
  merged.Merge(retired_predict_hist_);
  for (ClientHistogram* c : clients_) {
    std::lock_guard<std::mutex> ck(c->mu);
    merged.Merge(c->hist);
  }
  return merged;
}

// ---------------------------------------------------------------------------
// ServeClient: every call goes through the one canonical backend call. The
// timer/deadline/histogram epilogue lives here — outside any snapshot pin
// and identical for every backend.
// ---------------------------------------------------------------------------

ServeClient::ServeClient(QueryBackend* backend) : backend_(backend) {
  backend_->RegisterClient(&hist_);
}

ServeClient::~ServeClient() { backend_->UnregisterClient(&hist_); }

void ServeClient::Predict(const std::vector<PropertyQuery>& queries,
                          ServeResponse* resp, double timeout_s) {
  WallTimer timer;
  backend_->ScoreQueries(queries, &scratch_, resp);
  // Per-caller epilogue, outside any pin: the deadline is re-checked
  // against this caller's own wall clock (a coalesced caller that lingered
  // past its deadline is answered late-but-flagged, never dropped), and
  // the latency sample includes the full wait.
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
    const IngestResult r = backend_->IngestEdge(e);
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
