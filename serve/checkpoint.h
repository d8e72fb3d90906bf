// Copyright 2026 The SPLASH Reproduction Authors.
//
// Atomic checkpoints of the serving state (DESIGN.md §7). A checkpoint is
// the complete service state at a quiesced watermark W: the ingest log
// prefix [0, W), the novel-id seen set, and the predictor state blob
// (SplashPredictor::SerializeState — augmenter, rings, SLIM, RNG). The
// apply thread takes one between micro-batches, after the last catch-up,
// when both replicas are bit-identical, by serializing the
// exclusively-owned back replica.
//
// Atomicity: write checkpoint-<W>.ckpt.tmp, fsync, rename() into place,
// fsync the directory (serve/data_dir.h). A crash at any point leaves
// either the previous checkpoint or the new one fully intact — never a
// half checkpoint that parses. The loader walks candidates newest-first
// and takes the first one whose CRC validates, so a corrupt or torn latest
// falls back to its predecessor. The data dir's one retention step then
// keeps the newest kCheckpointsToKeep and every WAL segment the smallest
// of their cursors replays (read from the files left, so a same-named
// replacement is covered; capped by the cursor just written, so a corrupt
// one only keeps more).
//
// File format: magic[8]="SPLCKP1\n"  u64 payload_len  u32 crc32c(payload)
// payload, where payload = u64 seq, u64 batches_applied, f64 wm_time, edge
// log (count, num_nodes, src/dst/time arrays), node_seen, predictor blob
// (each of the last two behind its u64 length). `batches_applied` is the
// WAL batch-index cursor the checkpoint covers: recovery replays exactly
// the records with batch_index >= it.
//
// The writer never assembles the payload. Its length is summed from the
// pieces, the CRC is chained over them in file order, and two writev()
// calls send the header and every piece straight from the caller's arrays:
// the first ends exactly payload_len / 2 payload bytes in, where the
// checkpoint-mid-write crash point sits. A write allocates only its paths
// and listings, whatever the log's length; it still costs O(history) in
// write() and CRC bytes while the checkpoint carries the log. The loader
// decodes the edge columns from its read buffer straight into the log.

#ifndef SPLASH_SERVE_CHECKPOINT_H_
#define SPLASH_SERVE_CHECKPOINT_H_

#include <cstdint>
#include <string>
#include <vector>

#include "core/status.h"
#include "graph/edge_stream.h"

namespace splash {

/// How many checkpoints retention keeps (the live one + fallback).
constexpr size_t kCheckpointsToKeep = 2;

struct CheckpointData {
  uint64_t seq = 0;
  uint64_t batches_applied = 0;  // WAL batch-index cursor (replay from here)
  double wm_time = 0.0;
  EdgeStream log;
  std::vector<uint8_t> node_seen;
  std::vector<uint8_t> predictor_state;
};

std::string CheckpointPath(const std::string& dir, uint64_t seq);

/// Writes a checkpoint atomically (see file header), then runs the
/// retention step: deletes all but the newest kCheckpointsToKeep and, when
/// `gc_wal`, the WAL segments no retained checkpoint replays. Hosts the
/// checkpoint-mid-write / checkpoint-before-rename crash points.
Status WriteCheckpoint(const std::string& dir, uint64_t seq,
                       uint64_t batches_applied, double wm_time,
                       const EdgeStream& log,
                       const std::vector<uint8_t>& node_seen,
                       const std::vector<uint8_t>& predictor_state,
                       bool gc_wal = false);

/// Loads the newest CRC-valid, self-consistent checkpoint: seq equal to
/// the log size, wm_time equal to the last edge's time (0 for an empty
/// log), num_nodes above every endpoint id. `*found` is false (with an OK
/// status) when no usable checkpoint exists — including when every
/// candidate is torn/corrupt, which recovery treats as "start fresh and
/// replay the WAL from zero".
Status LoadLatestCheckpoint(const std::string& dir, CheckpointData* out,
                            bool* found);

}  // namespace splash

#endif  // SPLASH_SERVE_CHECKPOINT_H_
