#include "ds/nn/layers.h"

#include <cmath>
#include <utility>

namespace ds::nn {

// ---- Linear --------------------------------------------------------------------

Linear::Linear(std::string name, size_t in, size_t out)
    : weight_(name + ".weight", {in, out}), bias_(name + ".bias", {out}) {}

void Linear::Initialize(util::Pcg32* rng) {
  const size_t in = weight_.value.dim(0);
  const float bound = std::sqrt(6.0f / static_cast<float>(in));
  for (float& w : weight_.value.vec()) {
    w = static_cast<float>(rng->UniformDouble(-bound, bound));
  }
  bias_.value.Zero();
}

Tensor Linear::Forward(const Tensor& x) {
  DS_CHECK_EQ(x.rank(), 2u);
  cached_x_ = x;
  sparse_fed_ = false;
  Tensor y;
  LinearBiasActInto(x, weight_.value, bias_.value, /*fuse_relu=*/false, &y);
  return y;
}

Tensor Linear::ForwardSparse(const SparseRows& x) {
  cached_sparse_x_ = x;
  sparse_fed_ = true;
  Tensor y;
  SparseLinearBiasActInto(x, weight_.value, bias_.value, /*fuse_relu=*/false,
                          &y);
  return y;
}

void Linear::InferInto(const Tensor& x, bool fuse_relu, Tensor* y) const {
  LinearBiasActInto(x, weight_.value, bias_.value, fuse_relu, y);
}

void Linear::InferSparseInto(const SparseRows& x, bool fuse_relu,
                             Tensor* y) const {
  SparseLinearBiasActInto(x, weight_.value, bias_.value, fuse_relu, y);
}

Tensor Linear::Backward(const Tensor& dy) {
  DS_REQUIRE(!sparse_fed_,
             "%s was fed CSR rows, which have no input gradient; use "
             "BackwardParams",
             weight_.name.c_str());
  BackwardParams(dy);
  // dx = dy W^T.
  Tensor dx;
  MatMulTransposedBInto(dy, weight_.value, &dx);
  return dx;
}

void Linear::BackwardParams(const Tensor& dy) {
  // dW += x^T dy ; db += column sums of dy.
  if (sparse_fed_) {
    SparseMatMulTransposedAAccumulate(cached_sparse_x_, dy, &weight_.grad);
  } else {
    // Rank 2 once a Forward ran; a batch may have no rows (a set that no
    // query in the batch has).
    DS_CHECK_EQ(cached_x_.rank(), 2u);
    MatMulTransposedAAccumulate(cached_x_, dy, &weight_.grad);
  }
  SumRowsInto(dy, &bias_.grad);
}

// ---- Activations ------------------------------------------------------------------

Tensor ReLU::Forward(Tensor x) {
  // In place; the output doubles as the backward cache (y == 0 iff x <= 0,
  // so the gradient mask is recoverable from y alone).
  for (float& v : x.vec()) v = v > 0.0f ? v : 0.0f;
  cached_y_ = x;
  return x;
}

Tensor ReLU::Backward(const Tensor& dy) {
  DS_CHECK(dy.SameShape(cached_y_));
  Tensor dx(dy.shape());
  const float* y = cached_y_.data();
  const float* g = dy.data();
  float* d = dx.data();
  // A select the compiler vectorizes: y is never negative or NaN (Forward
  // maps both to 0), so y == 0 exactly when !(y > 0). g[i] is loaded
  // unconditionally, or the select would guard the load and stay scalar.
  for (size_t i = 0; i < dx.size(); ++i) {
    const float gi = g[i];
    d[i] = y[i] > 0.0f ? gi : 0.0f;
  }
  return dx;
}

Tensor Sigmoid::Forward(Tensor x) {
  for (float& v : x.vec()) v = 1.0f / (1.0f + std::exp(-v));
  cached_y_ = x;
  return x;
}

Tensor Sigmoid::Backward(const Tensor& dy) {
  DS_CHECK(dy.SameShape(cached_y_));
  Tensor dx = dy;
  const float* y = cached_y_.data();
  float* d = dx.data();
  for (size_t i = 0; i < dx.size(); ++i) d[i] *= y[i] * (1.0f - y[i]);
  return dx;
}

void Sigmoid::ApplyInPlace(Tensor* x) {
  for (float& v : x->vec()) v = 1.0f / (1.0f + std::exp(-v));
}

// ---- Mlp ---------------------------------------------------------------------------

Mlp::Mlp(std::string name, const std::vector<size_t>& sizes,
         bool final_activation)
    : final_activation_(final_activation) {
  DS_CHECK_GE(sizes.size(), 2u);
  for (size_t i = 0; i + 1 < sizes.size(); ++i) {
    layers_.emplace_back(name + ".fc" + std::to_string(i), sizes[i],
                         sizes[i + 1]);
  }
  relus_.resize(final_activation_ ? layers_.size() : layers_.size() - 1);
}

void Mlp::Initialize(util::Pcg32* rng) {
  for (auto& l : layers_) l.Initialize(rng);
}

Tensor Mlp::Forward(const Tensor& x) {
  return ForwardFromFirstLayer(layers_[0].Forward(x));
}

Tensor Mlp::ForwardSparse(const SparseRows& x) {
  return ForwardFromFirstLayer(layers_[0].ForwardSparse(x));
}

Tensor Mlp::ForwardFromFirstLayer(Tensor h) {
  if (!relus_.empty()) h = relus_[0].Forward(std::move(h));
  for (size_t i = 1; i < layers_.size(); ++i) {
    h = layers_[i].Forward(h);
    if (i < relus_.size()) h = relus_[i].Forward(std::move(h));
  }
  return h;
}

Tensor* Mlp::InferSparseInto(const SparseRows& x, Workspace* ws) const {
  Tensor* h = ws->Acquire();
  layers_[0].InferSparseInto(x, /*fuse_relu=*/!relus_.empty(), h);
  return InferDenseFrom(1, h, ws);
}

Tensor* Mlp::InferDenseFrom(size_t first, Tensor* h, Workspace* ws) const {
  // The fused kernel handles the bias add and (when a ReLU follows) the
  // activation; each layer writes the slot the previous one did not.
  Tensor* other = ws->Acquire();
  for (size_t i = first; i < layers_.size(); ++i) {
    layers_[i].InferInto(*h, /*fuse_relu=*/i < relus_.size(), other);
    std::swap(h, other);
  }
  return h;
}

Tensor Mlp::Backward(const Tensor& dy) {
  return layers_[0].Backward(BackwardToFirstLayer(dy));
}

void Mlp::BackwardParams(const Tensor& dy) {
  layers_[0].BackwardParams(BackwardToFirstLayer(dy));
}

Tensor Mlp::BackwardToFirstLayer(const Tensor& dy) {
  Tensor d = dy;
  for (size_t i = layers_.size(); i-- > 1;) {
    if (i < relus_.size()) d = relus_[i].Backward(d);
    d = layers_[i].Backward(d);
  }
  if (!relus_.empty()) d = relus_[0].Backward(d);
  return d;
}

std::vector<Parameter*> Mlp::Parameters() {
  std::vector<Parameter*> out;
  for (auto& l : layers_) {
    for (Parameter* p : l.Parameters()) out.push_back(p);
  }
  return out;
}

// ---- MaskedMean -----------------------------------------------------------------------

namespace {

// Set i's average over rows [offsets[i], offsets[i+1]) of `flat` into row i
// of `out`, which must be zeroed.
void SegmentMeans(const Tensor& flat, std::span<const uint32_t> offsets,
                  Tensor* out) {
  const size_t h = flat.dim(1);
  for (size_t i = 0; i + 1 < offsets.size(); ++i) {
    float* orow = out->data() + i * h;
    for (uint32_t r = offsets[i]; r < offsets[i + 1]; ++r) {
      const float* frow = flat.data() + static_cast<size_t>(r) * h;
      for (size_t k = 0; k < h; ++k) orow[k] += frow[k];
    }
    const uint32_t count = offsets[i + 1] - offsets[i];
    if (count > 0) {
      const float inv = 1.0f / static_cast<float>(count);
      for (size_t k = 0; k < h; ++k) orow[k] *= inv;
    }
  }
}

void CheckSegments(const Tensor& flat, std::span<const uint32_t> offsets) {
  DS_CHECK_EQ(flat.rank(), 2u);
  DS_CHECK_GE(offsets.size(), 1u);
  DS_CHECK_EQ(offsets.front(), 0u);
  DS_CHECK_EQ(static_cast<size_t>(offsets.back()), flat.dim(0));
}

}  // namespace

Tensor MaskedMean::Forward(const Tensor& flat,
                           std::span<const uint32_t> offsets) {
  CheckSegments(flat, offsets);
  cached_offsets_.assign(offsets.begin(), offsets.end());
  cached_h_ = flat.dim(1);
  Tensor out({offsets.size() - 1, cached_h_});
  SegmentMeans(flat, offsets, &out);
  return out;
}

void MaskedMean::PoolInto(const Tensor& flat, std::span<const uint32_t> offsets,
                          Tensor* out) {
  CheckSegments(flat, offsets);
  out->ResizeInPlace({offsets.size() - 1, flat.dim(1)});
  out->Zero();
  SegmentMeans(flat, offsets, out);
}

Tensor MaskedMean::Backward(const Tensor& dy) {
  const size_t b = cached_offsets_.size() - 1, h = cached_h_;
  DS_CHECK_EQ(dy.dim(0), b);
  DS_CHECK_EQ(dy.dim(1), h);
  Tensor dflat({cached_offsets_.back(), h});
  for (size_t i = 0; i < b; ++i) {
    const uint32_t count = cached_offsets_[i + 1] - cached_offsets_[i];
    if (count == 0) continue;
    const float inv = 1.0f / static_cast<float>(count);
    const float* drow = dy.data() + i * h;
    for (uint32_t r = cached_offsets_[i]; r < cached_offsets_[i + 1]; ++r) {
      float* frow = dflat.data() + static_cast<size_t>(r) * h;
      for (size_t k = 0; k < h; ++k) frow[k] = inv * drow[k];
    }
  }
  return dflat;
}

// ---- Persistence -------------------------------------------------------------------------

void WriteParameters(const std::vector<Parameter*>& params,
                     util::BinaryWriter* writer) {
  writer->WriteU64(params.size());
  for (const Parameter* p : params) {
    writer->WriteString(p->name);
    std::vector<uint64_t> shape(p->value.shape().begin(),
                                p->value.shape().end());
    writer->WritePodVector(shape);
    writer->WritePodSpan(p->value.data(), p->value.size());
  }
}

Status ReadParameters(util::BinaryReader* reader,
                      const std::vector<Parameter*>& params) {
  uint64_t n = 0;
  DS_RETURN_NOT_OK(reader->ReadU64(&n));
  if (n != params.size()) {
    return Status::ParseError("parameter count mismatch: file has " +
                              std::to_string(n) + ", model has " +
                              std::to_string(params.size()));
  }
  for (Parameter* p : params) {
    std::string name;
    DS_RETURN_NOT_OK(reader->ReadString(&name));
    if (name != p->name) {
      return Status::ParseError("parameter name mismatch: file has '" + name +
                                "', model expects '" + p->name + "'");
    }
    std::vector<uint64_t> shape;
    DS_RETURN_NOT_OK(reader->ReadPodVector(&shape));
    std::vector<size_t> want(p->value.shape().begin(),
                             p->value.shape().end());
    if (std::vector<size_t>(shape.begin(), shape.end()) != want) {
      return Status::ParseError("parameter shape mismatch for '" + name + "'");
    }
    Status read = reader->ReadPodSpan(p->value.data(), p->value.size());
    if (!read.ok()) {
      return Status::ParseError("parameter data mismatch for '" + name +
                                "': " + read.message());
    }
  }
  return Status::OK();
}

}  // namespace ds::nn
