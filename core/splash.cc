// Copyright 2026 The SPLASH Reproduction Authors.

#include "core/splash.h"

#include <algorithm>
#include <cstring>

namespace splash {

std::string SplashModeName(SplashMode mode) {
  switch (mode) {
    case SplashMode::kAuto: return "SPLASH";
    case SplashMode::kZeroFeatures: return "SLIM+ZF";
    case SplashMode::kPlainRandom: return "SLIM+RF";
    case SplashMode::kForceRandom: return "SPLASH-R";
    case SplashMode::kForcePositional: return "SPLASH-P";
    case SplashMode::kForceStructural: return "SPLASH-S";
    case SplashMode::kJoint: return "SPLASH-RPS";
  }
  return "?";
}

SplashPredictor::SplashPredictor(const SplashOptions& opts)
    : opts_(opts),
      rng_(opts.seed),
      augmenter_([&] {
        FeatureAugmenterOptions a = opts.augment;
        a.seed = opts.seed;
        return a;
      }()),
      memory_(opts.slim.k_recent == 0 ? 1 : opts.slim.k_recent) {
  RetainReadableProcesses(/*selecting=*/true);
}

SplashPredictor::SplashPredictor(const SplashPredictor& src)
    : opts_(src.opts_),
      rng_(src.rng_),
      augmenter_(src.augmenter_),
      memory_(src.memory_),
      slim_(src.slim_ ? std::make_unique<SlimModel>(*src.slim_, &rng_)
                      : nullptr),
      train_(src.train_ ? std::make_unique<SlimTrainState>(*src.train_)
                        : nullptr),
      selected_(src.selected_),
      input_dim_(src.input_dim_),
      cold_(src.cold_) {}

Status SplashPredictor::Prepare(const Dataset& ds, const ChronoSplit& split) {
  if (ds.stream.empty()) {
    return Status::Error("SplashPredictor::Prepare: empty stream");
  }
  // A repeated kAuto Prepare widens the kept set back to R and P before
  // the fit: selection reads all three processes.
  RetainReadableProcesses(/*selecting=*/true);
  augmenter_.FitSeen(ds.stream, split.train_end_time);

  switch (opts_.mode) {
    case SplashMode::kAuto: {
      FeatureSelectionOptions sel = opts_.select;
      sel.k_recent = opts_.slim.k_recent;
      selected_ = SelectFeatureProcess(ds, split, &augmenter_, sel).selected;
      augmenter_.Reset();
      RetainReadableProcesses(/*selecting=*/false);
      break;
    }
    case SplashMode::kForceRandom:
      selected_ = AugmentationProcess::kRandom;
      break;
    case SplashMode::kForcePositional:
      selected_ = AugmentationProcess::kPositional;
      break;
    case SplashMode::kForceStructural:
    case SplashMode::kZeroFeatures:
    case SplashMode::kPlainRandom:
    case SplashMode::kJoint:
      selected_ = AugmentationProcess::kStructural;
      break;
  }

  const size_t dv = augmenter_.feature_dim();
  input_dim_ = opts_.mode == SplashMode::kJoint ? 3 * dv : dv;

  SlimOptions slim_opts = opts_.slim;
  slim_opts.feature_dim = input_dim_;
  slim_opts.k_recent = memory_.k();  // same clamp as the ring buffer
  slim_opts.out_dim = std::max<size_t>(2, ds.num_classes);
  slim_ = std::make_unique<SlimModel>(slim_opts, &rng_);
  train_ = std::make_unique<SlimTrainState>(slim_opts);
  cold_.version = 0;

  memory_.EnsureNodeCapacity(ds.stream.num_nodes());
  ResetState();
  return Status::Ok();
}

void SplashPredictor::RetainReadableProcesses(bool selecting) {
  bool random = false, positional = false;
  switch (opts_.mode) {
    case SplashMode::kAuto:
      random = selecting || selected_ == AugmentationProcess::kRandom;
      positional = selecting || selected_ == AugmentationProcess::kPositional;
      break;
    case SplashMode::kForceRandom:
      random = true;
      break;
    case SplashMode::kForcePositional:
      positional = true;
      break;
    case SplashMode::kJoint:
      random = positional = true;
      break;
    case SplashMode::kForceStructural:
    case SplashMode::kZeroFeatures:
    case SplashMode::kPlainRandom:
      break;
  }
  augmenter_.Retain(random, positional);
}

void SplashPredictor::ResetState() {
  augmenter_.Reset();
  memory_.Clear();
}

void SplashPredictor::ObserveEdge(const TemporalEdge& e,
                                  size_t /*edge_index*/) {
  augmenter_.ObserveEdge(e);
  memory_.Observe(e);
}

void SplashPredictor::ObserveBulk(const EdgeStream& stream, size_t begin,
                                  size_t end) {
  augmenter_.ObserveBulk(stream, begin, end);
  memory_.ObserveBulk(stream, begin, end);
}

void SplashPredictor::SetTraining(bool training) {
  if (slim_) slim_->SetTraining(training);
}

void SplashPredictor::PrepareForPublish() {
  if (!slim_) return;
  if (cold_.version == slim_->weights_version()) return;
  // The cold row is assembled exactly as a query for an untouched node
  // is; kInvalidNode has no ring, so the gather writes nothing.
  const PropertyQuery cold{kInvalidNode, 0.0, 0};
  AssembleRows(&cold, 1, &cold_.input, &nbr_ids_, &nbr_times_);
  cold_.out = slim_->ReadOwnScratch(&cold_.input);
  cold_.version = slim_->weights_version();
}

Status SplashPredictor::CopyModelFrom(const SplashPredictor& src) {
  if (!slim_ || !src.slim_) {
    return Status::Error("SplashPredictor::CopyModelFrom: not prepared");
  }
  if (train_ && !src.train_) {
    return Status::Error(
        "SplashPredictor::CopyModelFrom: source holds no train state");
  }
  // CopyLearnedStateFrom checks the architecture before any write; equal
  // architectures give the train states equal shapes.
  if (!slim_->CopyLearnedStateFrom(*src.slim_)) {
    return Status::Error(
        "SplashPredictor::CopyModelFrom: SLIM architecture mismatch");
  }
  if (train_) train_->CopyFrom(*src.train_);
  cold_ = src.cold_;
  rng_ = src.rng_;
  return Status::Ok();
}

size_t SplashPredictor::ParamCount() const {
  return slim_ ? slim_->ParamCount() : 0;
}

void SplashPredictor::WriteNodeFeature(NodeId node, float* out) const {
  const size_t dv = augmenter_.feature_dim();
  switch (opts_.mode) {
    case SplashMode::kZeroFeatures:
      std::memset(out, 0, dv * sizeof(float));
      return;
    case SplashMode::kPlainRandom:
      augmenter_.WritePlainRandom(node, out);
      return;
    case SplashMode::kJoint:
      augmenter_.WriteFeature(AugmentationProcess::kRandom, node, out);
      augmenter_.WriteFeature(AugmentationProcess::kPositional, node,
                              out + dv);
      augmenter_.WriteFeature(AugmentationProcess::kStructural, node,
                              out + 2 * dv);
      return;
    default:
      augmenter_.WriteFeature(selected_, node, out);
      return;
  }
}

void SplashPredictor::AssembleRows(const PropertyQuery* queries, size_t b,
                                   SlimBatchInput* out,
                                   std::vector<NodeId>* nbr_ids,
                                   std::vector<double>* nbr_times) const {
  AssembleSlimBatch(
      slim_->options(), /*weighted=*/false, memory_, queries, b,
      [this](NodeId node, float* row) { WriteNodeFeature(node, row); },
      nbr_ids, nbr_times, out);
}

bool SplashPredictor::IsColdRead(const SlimBatchInput& in) const {
  return cold_.version == slim_->weights_version() && in.valid[0] == 0 &&
         std::memcmp(in.node_feats.Row(0), cold_.input.node_feats.Row(0),
                     input_dim_ * sizeof(float)) == 0;
}

const Matrix& SplashPredictor::PredictBatchConst(
    const std::vector<PropertyQuery>& queries,
    SplashQueryScratch* scratch) const {
  const size_t b = queries.size();
  scratch->cold_read = false;
  if (!slim_ || b == 0) {
    scratch->fwd.out.Resize(b, slim_ ? slim_->options().out_dim : 2);
    scratch->fwd.out.SetZero();
    return scratch->fwd.out;
  }
  SlimBatchInput* batch = &scratch->batch;
  AssembleRows(queries.data(), b, batch, &scratch->nbr_ids,
               &scratch->nbr_times);
  // With no valid slot a one-row read reads only its feature row
  // (SlimModel::ForwardInto), so the memo's read of an equal row at the
  // same weights is this read's answer.
  if (b == 1 && IsColdRead(*batch)) {
    scratch->cold_read = true;
    scratch->fwd.out = cold_.out;
    return scratch->fwd.out;
  }
  return slim_->PredictConst(batch, &scratch->fwd);
}

void SplashPredictor::StageBatch(const std::vector<PropertyQuery>& queries) {
  staged_rows_ = queries.size();
  if (!slim_ || queries.empty()) return;
  AssembleRows(queries.data(), queries.size(), &batch_, &nbr_ids_,
               &nbr_times_);
  const int max_label = static_cast<int>(slim_->options().out_dim) - 1;
  labels_.resize(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    labels_[i] = std::clamp(queries[i].class_label, 0, max_label);
  }
}

double SplashPredictor::TrainStaged() { return TrainStaged(train_.get()); }

double SplashPredictor::TrainStaged(SlimTrainState* train) {
  if (!slim_ || staged_rows_ == 0) return 0.0;
  return slim_->TrainStep(&batch_, labels_, train);
}

Matrix SplashPredictor::PredictStaged() {
  if (!slim_ || staged_rows_ == 0) {
    return Matrix(staged_rows_, slim_ ? slim_->options().out_dim : 2);
  }
  return slim_->Forward(&batch_);
}

namespace {
constexpr uint32_t kSplashStateMagic = 0x53504c53u;  // "SPLS"
}  // namespace

uint32_t SplashPredictor::ReadStateVersion(const std::vector<uint8_t>& blob) {
  ByteReader r(blob);
  if (r.U32() != kSplashStateMagic) return 0;
  const uint32_t version = r.U32();
  return r.ok() ? version : 0;
}

void SplashPredictor::SerializeState(ByteWriter* w) const {
  SerializeState(w, train_.get());
}

void SplashPredictor::SerializeState(ByteWriter* w,
                                     const SlimTrainState* train) const {
  w->U32(kSplashStateMagic);
  w->U32(kStateVersion);
  // Config fingerprint: a checkpoint only ever restores into a predictor
  // constructed with the same identity-defining options.
  w->U64(opts_.seed);
  w->U32(static_cast<uint32_t>(opts_.mode));
  w->U64(opts_.augment.feature_dim);
  w->U32(static_cast<uint32_t>(selected_));
  w->U64(input_dim_);
  // SLIM architecture before RNG state: DeserializeState must reconstruct
  // the model (whose init consumes RNG draws) BEFORE restoring the stream.
  w->U8(slim_ ? 1 : 0);
  if (slim_) {
    const SlimOptions& so = slim_->options();
    w->U64(so.feature_dim);
    w->U64(so.time_dim);
    w->U64(so.hidden_dim);
    w->U64(so.out_dim);
    w->U64(so.k_recent);
    w->F32(so.dropout);
    w->F32(so.lr);
  }
  const Rng::State rs = rng_.SaveState();
  for (int i = 0; i < 4; ++i) w->U64(rs.s[i]);
  w->F32(rs.cached);
  w->U8(rs.has_cached ? 1 : 0);
  augmenter_.Serialize(w);
  memory_.Serialize(w);
  if (slim_) slim_->Serialize(w, *train);
}

Status SplashPredictor::DeserializeState(ByteReader* r) {
  if (r->U32() != kSplashStateMagic) {
    return Status::Error("SplashPredictor: bad state magic");
  }
  const uint32_t version = r->U32();
  if (version != kStateVersion) {
    return Status::Error("SplashPredictor: unsupported state version " +
                         std::to_string(version) + " (expected " +
                         std::to_string(kStateVersion) + ")");
  }
  if (r->U64() != opts_.seed ||
      r->U32() != static_cast<uint32_t>(opts_.mode) ||
      r->U64() != opts_.augment.feature_dim) {
    return Status::Error(
        "SplashPredictor: checkpoint config fingerprint mismatch");
  }
  const uint32_t selected = r->U32();
  if (selected > static_cast<uint32_t>(AugmentationProcess::kStructural)) {
    return Status::Error("SplashPredictor: bad selected process");
  }
  const size_t input_dim = static_cast<size_t>(r->U64());
  const bool has_slim = r->U8() != 0;
  // Prepare's input width; an unprepared predictor has none.
  const size_t dv = augmenter_.feature_dim();
  const size_t want_dim = opts_.mode == SplashMode::kJoint ? 3 * dv : dv;
  if (input_dim != (has_slim ? want_dim : 0)) {
    return Status::Error("SplashPredictor: checkpoint input_dim " +
                         std::to_string(input_dim) + " does not fit the mode");
  }
  selected_ = static_cast<AugmentationProcess>(selected);
  input_dim_ = input_dim;
  cold_.version = 0;  // the new model's versions restart
  if (has_slim) {
    SlimOptions so;
    so.feature_dim = static_cast<size_t>(r->U64());
    so.time_dim = static_cast<size_t>(r->U64());
    so.hidden_dim = static_cast<size_t>(r->U64());
    so.out_dim = static_cast<size_t>(r->U64());
    so.k_recent = static_cast<size_t>(r->U64());
    so.dropout = r->F32();
    so.lr = r->F32();
    if (!r->ok()) {
      return Status::Error("SplashPredictor: truncated SLIM architecture");
    }
    // Every width is checked before the model is allocated: a hostile
    // width must be refused, not built. All but out_dim are configured;
    // out_dim follows the dataset, so it is bounded by the blob's size.
    const char* field = nullptr;
    if (so.feature_dim != input_dim_) {
      field = "feature_dim";
    } else if (so.time_dim != opts_.slim.time_dim) {
      field = "time_dim";
    } else if (so.hidden_dim != opts_.slim.hidden_dim) {
      field = "hidden_dim";
    } else if (so.k_recent != memory_.k()) {
      field = "k_recent";
    } else if (so.dropout != opts_.slim.dropout) {
      field = "dropout";
    } else if (so.lr != opts_.slim.lr) {
      field = "lr";
    }
    if (field != nullptr) {
      return Status::Error(std::string("SplashPredictor: checkpoint SLIM ") +
                           field + " differs from the configured value");
    }
    // Each parameter float is stored three times (value, m, v). The first
    // bound on out_dim keeps ParamCount's products from overflowing.
    const size_t blob_floats = r->remaining() / (3 * sizeof(float));
    if (so.out_dim < 2 || so.out_dim > blob_floats / (so.hidden_dim + 1) ||
        SlimModel::ParamCount(so) > blob_floats) {
      return Status::Error("SplashPredictor: checkpoint SLIM out_dim " +
                           std::to_string(so.out_dim) +
                           " is below 2 or larger than the blob holds");
    }
    // Construction He-initializes from rng_ (consuming draws); the stream
    // position and every parameter are overwritten below.
    slim_ = std::make_unique<SlimModel>(so, &rng_);
    train_ = std::make_unique<SlimTrainState>(so);
  } else {
    slim_.reset();
    train_.reset();
  }
  Rng::State rs;
  for (int i = 0; i < 4; ++i) rs.s[i] = r->U64();
  rs.cached = r->F32();
  rs.has_cached = r->U8() != 0;
  rng_.LoadState(rs);
  // The blob's kept set follows from its selected process; the augmenter
  // requires its own to match.
  RetainReadableProcesses(/*selecting=*/false);
  if (!augmenter_.Deserialize(r)) {
    return Status::Error("SplashPredictor: augmenter state mismatch");
  }
  if (!memory_.Deserialize(r)) {
    return Status::Error("SplashPredictor: neighbor memory state mismatch");
  }
  if (has_slim) {
    const Status slim = slim_->Deserialize(r, train_.get());
    if (!slim.ok()) {
      return Status::Error("SplashPredictor: checkpoint " + slim.message());
    }
  }
  if (!r->ok()) {
    return Status::Error("SplashPredictor: truncated state stream");
  }
  if (slim_) slim_->SetTraining(false);
  PrepareForPublish();
  return Status::Ok();
}

}  // namespace splash
