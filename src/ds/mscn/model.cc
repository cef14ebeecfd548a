#include "ds/mscn/model.h"

namespace ds::mscn {

void ModelConfig::Write(util::BinaryWriter* w) const {
  w->WriteU64(table_dim);
  w->WriteU64(join_dim);
  w->WriteU64(pred_dim);
  w->WriteU64(hidden_units);
}

Result<ModelConfig> ModelConfig::Read(util::BinaryReader* r) {
  ModelConfig c;
  uint64_t v = 0;
  DS_RETURN_NOT_OK(r->ReadU64(&v));
  c.table_dim = v;
  DS_RETURN_NOT_OK(r->ReadU64(&v));
  c.join_dim = v;
  DS_RETURN_NOT_OK(r->ReadU64(&v));
  c.pred_dim = v;
  DS_RETURN_NOT_OK(r->ReadU64(&v));
  c.hidden_units = v;
  if (c.table_dim == 0 || c.join_dim == 0 || c.pred_dim == 0 ||
      c.hidden_units == 0) {
    return Status::ParseError("invalid model config");
  }
  // Plausibility caps: MscnModel's constructor sizes its weight tensors
  // straight from these dims, so a bit-flipped file must fail here as a
  // ParseError rather than as a multi-GiB allocation (or bad_alloc abort)
  // inside the constructor. Real sketches are orders of magnitude smaller
  // (dims in the tens to hundreds, hidden units <= a few hundred).
  constexpr uint64_t kMaxDim = uint64_t{1} << 20;
  constexpr uint64_t kMaxWeightCells = uint64_t{1} << 26;
  const uint64_t dims[] = {c.table_dim, c.join_dim, c.pred_dim};
  for (uint64_t d : dims) {
    if (d > kMaxDim || c.hidden_units > kMaxDim ||
        d * c.hidden_units > kMaxWeightCells ||
        c.hidden_units * c.hidden_units > kMaxWeightCells) {
      return Status::ParseError("implausible model dimensions in sketch file");
    }
  }
  return c;
}

MscnModel::MscnModel(const ModelConfig& config)
    : config_(config),
      table_mlp_("table", {config.table_dim, config.hidden_units,
                           config.hidden_units},
                 /*final_activation=*/true),
      join_mlp_("join",
                {config.join_dim, config.hidden_units, config.hidden_units},
                /*final_activation=*/true),
      pred_mlp_("pred",
                {config.pred_dim, config.hidden_units, config.hidden_units},
                /*final_activation=*/true),
      out_mlp_("out", {3 * config.hidden_units, config.hidden_units, 1},
               /*final_activation=*/false) {
  DS_CHECK_GT(config.table_dim, 0u);
  DS_CHECK_GT(config.join_dim, 0u);
  DS_CHECK_GT(config.pred_dim, 0u);
  DS_CHECK_GT(config.hidden_units, 0u);
}

void MscnModel::Initialize(util::Pcg32* rng) {
  table_mlp_.Initialize(rng);
  join_mlp_.Initialize(rng);
  pred_mlp_.Initialize(rng);
  out_mlp_.Initialize(rng);
}

nn::Tensor MscnModel::Forward(const SparseBatch& batch) {
  const size_t h = config_.hidden_units;
  const size_t b = batch.batch_size();

  // Per-element shared MLPs on each set's real rows, then set averages.
  nn::Tensor t = table_pool_.Forward(
      table_mlp_.ForwardSparse(batch.tables.rows), batch.tables.offsets);
  nn::Tensor j = join_pool_.Forward(join_mlp_.ForwardSparse(batch.joins.rows),
                                    batch.joins.offsets);
  nn::Tensor p = pred_pool_.Forward(
      pred_mlp_.ForwardSparse(batch.predicates.rows),
      batch.predicates.offsets);

  // Concatenate the three pooled representations.
  nn::Tensor concat({b, 3 * h});
  for (size_t i = 0; i < b; ++i) {
    float* row = concat.data() + i * 3 * h;
    std::copy(t.data() + i * h, t.data() + (i + 1) * h, row);
    std::copy(j.data() + i * h, j.data() + (i + 1) * h, row + h);
    std::copy(p.data() + i * h, p.data() + (i + 1) * h, row + 2 * h);
  }

  return out_sigmoid_.Forward(out_mlp_.Forward(concat));
}

const nn::Tensor* MscnModel::InferSparse(const SparseBatch& batch,
                                         nn::Workspace* ws) const {
  const size_t h = config_.hidden_units;
  const size_t b = batch.batch_size();

  // Per-element shared MLPs on each set's real rows, then set averages.
  nn::Tensor* t = ws->Acquire();
  nn::Tensor* j = ws->Acquire();
  nn::Tensor* p = ws->Acquire();
  nn::MaskedMean::PoolInto(*table_mlp_.InferSparseInto(batch.tables.rows, ws),
                           batch.tables.offsets, t);
  nn::MaskedMean::PoolInto(*join_mlp_.InferSparseInto(batch.joins.rows, ws),
                           batch.joins.offsets, j);
  nn::MaskedMean::PoolInto(
      *pred_mlp_.InferSparseInto(batch.predicates.rows, ws),
      batch.predicates.offsets, p);

  nn::Tensor* concat = ws->Acquire();
  concat->ResizeInPlace({b, 3 * h});
  for (size_t i = 0; i < b; ++i) {
    float* row = concat->data() + i * 3 * h;
    std::copy(t->data() + i * h, t->data() + (i + 1) * h, row);
    std::copy(j->data() + i * h, j->data() + (i + 1) * h, row + h);
    std::copy(p->data() + i * h, p->data() + (i + 1) * h, row + 2 * h);
  }

  nn::Tensor* y = out_mlp_.InferDenseFrom(0, concat, ws);
  nn::Sigmoid::ApplyInPlace(y);
  return y;
}

void MscnModel::Backward(const nn::Tensor& dy) {
  const size_t h = config_.hidden_units;
  nn::Tensor dconcat = out_mlp_.Backward(out_sigmoid_.Backward(dy));
  const size_t b = dconcat.dim(0);

  nn::Tensor dt({b, h}), dj({b, h}), dp({b, h});
  for (size_t i = 0; i < b; ++i) {
    const float* row = dconcat.data() + i * 3 * h;
    std::copy(row, row + h, dt.data() + i * h);
    std::copy(row + h, row + 2 * h, dj.data() + i * h);
    std::copy(row + 2 * h, row + 3 * h, dp.data() + i * h);
  }

  // The set MLPs are fed CSR feature rows, which take no gradient; out_mlp_
  // above needs its input gradient (dconcat).
  table_mlp_.BackwardParams(table_pool_.Backward(dt));
  join_mlp_.BackwardParams(join_pool_.Backward(dj));
  pred_mlp_.BackwardParams(pred_pool_.Backward(dp));
}

std::vector<nn::Parameter*> MscnModel::Parameters() {
  std::vector<nn::Parameter*> out;
  for (nn::Mlp* mlp : {&table_mlp_, &join_mlp_, &pred_mlp_, &out_mlp_}) {
    for (nn::Parameter* p : mlp->Parameters()) out.push_back(p);
  }
  return out;
}

size_t MscnModel::NumParameters() const {
  size_t n = 0;
  for (const nn::Mlp* mlp : {&table_mlp_, &join_mlp_, &pred_mlp_, &out_mlp_}) {
    for (nn::Parameter* p : const_cast<nn::Mlp*>(mlp)->Parameters()) {
      n += p->value.size();
    }
  }
  return n;
}

void MscnModel::Write(util::BinaryWriter* w) {
  config_.Write(w);
  nn::WriteParameters(Parameters(), w);
}

Result<MscnModel> MscnModel::Read(util::BinaryReader* r) {
  DS_ASSIGN_OR_RETURN(ModelConfig config, ModelConfig::Read(r));
  MscnModel model(config);
  DS_RETURN_NOT_OK(nn::ReadParameters(r, model.Parameters()));
  return model;
}

}  // namespace ds::mscn
