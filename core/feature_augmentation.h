// Copyright 2026 The SPLASH Reproduction Authors.
//
// SPLASH feature augmentation (paper Sec. IV-B): three processes that give
// every node — including nodes unseen during training — an informative
// feature vector at O(feature_dim) per edge:
//
//   R (random):     reproducible per-node Gaussian features. Seen nodes use
//                   a stateless hash; unseen nodes receive the running mean
//                   of their observed neighbors' features (Eq. (4)-(5)).
//   P (positional): a community-revealing embedding fit on train edges by
//                   Laplacian smoothing (a cheap node2vec stand-in), with
//                   the same Eq. (4)-(5) propagation to unseen nodes.
//   S (structural): sinusoidal encoding of the node's log temporal degree,
//                   computable for any node at any time from DegreeTracker.
//
// Split of responsibilities:
//   FitSeen(stream, t)  — one-time static fit on edges with time <= t
//                         (seen set, positional embedding), then Reset().
//   Reset()             — clears *dynamic* state (degrees, propagated rows)
//                         so a replay can start from the beginning.
//   ObserveEdge(e)      — per-edge dynamic update: degree counts + Eq.
//                         (4)-(5) propagation. Touches only the two
//                         incident rows; O(feature_dim), allocation-free.
//   Retain(r, p)        — the kept set: the propagated processes whose
//                         per-node rows are held. SPLASH reads one process,
//                         so its predictor keeps only that one (nothing
//                         for S, which reads only the degree counter); a
//                         dropped process is never grown, fitted, folded
//                         or serialized, and reads as zeros.

#ifndef SPLASH_CORE_FEATURE_AUGMENTATION_H_
#define SPLASH_CORE_FEATURE_AUGMENTATION_H_

#include <cstddef>
#include <memory>
#include <vector>

#include "core/serialize.h"
#include "core/types.h"
#include "graph/degree_tracker.h"
#include "graph/edge_stream.h"
#include "tensor/matrix.h"
#include "tensor/rng.h"

namespace splash {

struct FeatureAugmenterOptions {
  size_t feature_dim = 32;
  /// Laplacian smoothing passes for the positional fit.
  size_t positional_rounds = 3;
  float positional_step = 0.35f;
  uint64_t seed = 1234;
};

class FeatureAugmenter {
 public:
  /// Keeps R and P: feature selection (SelectFeatureProcess) reads all
  /// three processes.
  explicit FeatureAugmenter(const FeatureAugmenterOptions& opts);

  /// Sets the kept set. A dropped process's rows are freed at once. A
  /// process added back gets zero rows sized to the node tables, and holds
  /// real features only after the next FitSeen, so widen before FitSeen
  /// (or before Deserialize). With nothing kept, ObserveEdge and
  /// ObserveBulk only count degrees.
  void Retain(bool random, bool positional);
  /// True if `process`'s rows are kept (never for kStructural, which has
  /// none).
  bool keeps(AugmentationProcess process) const;
  /// Bytes held in the kept processes' fitted and propagated rows and
  /// the Eq. (5) denominators; 0 when nothing is kept.
  size_t feature_row_bytes() const;

  /// Fits static state on the train period (time <= fit_time) and resets
  /// dynamic state. Nodes touched by a train-period edge form the "seen"
  /// set; everything else is unseen and relies on propagation / structural
  /// encoding at replay time. Only kept processes are fitted.
  void FitSeen(const EdgeStream& stream, double fit_time);

  /// Clears dynamic state (degree counts, propagated unseen-node rows) while
  /// keeping the fitted seen set and positional embedding.
  void Reset();

  /// Per-edge dynamic update; see file header. Call once per edge of a
  /// replay, in stream order, including train-period edges.
  void ObserveEdge(const TemporalEdge& e);

  /// Replays edges [begin, end): ObserveEdge on each edge in order.
  void ObserveBulk(const EdgeStream& stream, size_t begin, size_t end);

  /// Writes the current `process` feature of `node` into out[0..dim);
  /// zeros if `process` is not kept.
  void WriteFeature(AugmentationProcess process, NodeId node,
                    float* out) const;

  /// Plain (non-propagated) random feature: every node, seen or not, gets
  /// its hash Gaussian. This is the "+RF" baseline input, not a SPLASH
  /// process.
  void WritePlainRandom(NodeId node, float* out) const;

  /// Sinusoidal encoding of a degree value into out[0..dim):
  /// SincosEncode(log1p(degree), 0.6, out, dim). Degrees below
  /// kCodedDegrees are a row copy from a table computed once per process
  /// with the same kernel on the same inputs, so the bits equal the
  /// computed code; larger degrees, and reads after the kernel backend was
  /// switched (SetKernelBackendForTesting), compute it. Exposed for
  /// benchmarking and tests; WriteFeature(kStructural) composes this with
  /// the live degree counter. Never locks or allocates.
  void EncodeDegree(size_t degree, float* out) const;
  /// Degrees [0, kCodedDegrees) read a precomputed code (DESIGN.md §2).
  static constexpr size_t kCodedDegrees = 1024;

  size_t feature_dim() const { return opts_.feature_dim; }
  bool seen(NodeId node) const {
    return node < seen_.size() && seen_[node] != 0;
  }
  const DegreeTracker& degrees() const { return degrees_; }

  /// Checkpoint hooks: BOTH the fitted state (seen set, and for each kept
  /// process its fitted rows) and the dynamic state (degree counts, kept
  /// propagated rows, Eq. (5) denominators) — restore needs no FitSeen and
  /// no replay. Deserialize validates the options fingerprint (dim / seed)
  /// and requires the blob's kept set to equal this augmenter's (apply
  /// Retain first) and every row table to match the seen-set size, so a
  /// checkpoint can never be applied to a differently-configured augmenter
  /// nor leave a row shorter than a read.
  void Serialize(ByteWriter* w) const;
  bool Deserialize(ByteReader* r);

 private:
  // Kept-set bits; the mask is also the serialized form.
  static constexpr uint8_t kKeepRandom = 1;
  static constexpr uint8_t kKeepPositional = 2;

  // The codes of degrees [0, kCodedDegrees) under one sincos kernel;
  // immutable, shared by every augmenter of this feature_dim.
  struct DegreeCodes;
  /// The process's table for `dim` under the active sincos kernel, built
  /// on first request.
  static std::shared_ptr<const DegreeCodes> SharedDegreeCodes(size_t dim);

  void EnsureNodeCapacity(size_t n);
  /// Writes `node`'s current feature of one kept process into out: its
  /// `fitted` row if seen, else its `prop` (propagated) row.
  void WriteCurrent(const Matrix& fitted, const Matrix& prop, NodeId node,
                    float* out) const;
  /// Eq. (4)-(5): fold `src_feat` into unseen `node`'s running-mean row of
  /// matrix `m`.
  void PropagateInto(Matrix* m, NodeId node, const float* src_feat);
  /// Folds `source`'s current feature of every kept process into unseen
  /// `node` via PropagateInto, staging it in scratch_. Does NOT bump
  /// prop_count_ — callers pair it with the increment.
  void FoldInto(NodeId node, NodeId source);

  FeatureAugmenterOptions opts_;
  DegreeTracker degrees_;
  uint8_t kept_ = 0;  // kKeep* bits
  std::shared_ptr<const DegreeCodes> codes_;  // set at construction

  // Row tables of the kept processes have seen_.size() rows; a dropped
  // process's are empty, and so is prop_count_ when nothing is kept.
  std::vector<uint8_t> seen_;       // fitted: 1 if node has a train edge
  Matrix positional_;               // fitted rows for seen nodes
  Matrix random_seen_;              // fitted: cached hash rows, seen nodes
  Matrix random_prop_;              // dynamic: propagated rows, unseen nodes
  Matrix positional_prop_;          // dynamic: propagated rows, unseen nodes
  std::vector<uint32_t> prop_count_;  // dynamic: Eq. (5) denominators

  // Preallocated per-edge scratch (feature_dim, empty when nothing is
  // kept); ObserveEdge must not allocate.
  std::vector<float> scratch_;
};

}  // namespace splash

#endif  // SPLASH_CORE_FEATURE_AUGMENTATION_H_
