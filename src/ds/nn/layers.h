// Neural-network layers with explicit forward/backward passes.
//
// Each layer caches what its backward pass needs. Gradients accumulate into
// Parameter::grad until the optimizer consumes them (call ZeroGrad between
// steps). All layers operate on 2D activations [batch, features]; the MSCN
// model flattens set dimensions into the batch dimension before calling
// into them. The first layer of an MSCN set MLP is fed its featurized rows
// in CSR form (ForwardSparse) in training as in inference; such a layer
// caches the rows and accumulates only parameter gradients.
//
// Linear and Mlp additionally provide const, workspace-backed `Infer*`
// paths that compute the same outputs as Forward through the fused kernels
// without touching the backward caches. They read only the (immutable after
// training) weights, so any number of threads may run them on a shared
// model concurrently — the property the serving layer (ds::serve) relies
// on. `Forward` remains the training path and is not thread-safe.

#ifndef DS_NN_LAYERS_H_
#define DS_NN_LAYERS_H_

#include <span>
#include <string>
#include <vector>

#include "ds/nn/kernels.h"
#include "ds/nn/tensor.h"
#include "ds/nn/workspace.h"
#include "ds/util/random.h"
#include "ds/util/serialize.h"
#include "ds/util/status.h"

namespace ds::nn {

/// A trainable tensor with its gradient accumulator.
struct Parameter {
  std::string name;
  Tensor value;
  Tensor grad;

  explicit Parameter(std::string n, std::vector<size_t> shape)
      : name(std::move(n)), value(shape), grad(shape) {}
};

/// Fully connected layer: y = x W + b, x [N,in] -> y [N,out].
class Linear {
 public:
  Linear(std::string name, size_t in, size_t out);

  /// He-uniform initialization (suits the ReLU nets the MSCN uses).
  void Initialize(util::Pcg32* rng);

  Tensor Forward(const Tensor& x);
  /// Forward with the input in CSR form; caches a copy of the rows for
  /// BackwardParams. Bit-for-bit equal to Forward(x.ToDense()).
  Tensor ForwardSparse(const SparseRows& x);
  /// Returns dL/dx; accumulates dL/dW and dL/db. Must follow a dense
  /// Forward: a layer fed CSR rows has no input gradient (DS_REQUIRE).
  Tensor Backward(const Tensor& dy);
  /// Backward without dL/dx: accumulates dL/dW and dL/db only, from the
  /// input the last Forward or ForwardSparse cached.
  void BackwardParams(const Tensor& dy);

  /// Fused allocation-free inference: *y = x W + b, then ReLU when
  /// `fuse_relu`. `y` is resized in place (zero-allocation once warm) and
  /// must not alias `x`. Bit-for-bit identical to Forward (+ ReLU).
  void InferInto(const Tensor& x, bool fuse_relu, Tensor* y) const;

  /// Same, with the input in CSR form (the featurized one-hot rows).
  void InferSparseInto(const SparseRows& x, bool fuse_relu, Tensor* y) const;

  std::vector<Parameter*> Parameters() { return {&weight_, &bias_}; }
  size_t in_features() const { return weight_.value.dim(0); }
  size_t out_features() const { return weight_.value.dim(1); }

 private:
  Parameter weight_;  // [in, out]
  Parameter bias_;    // [out]
  Tensor cached_x_;
  SparseRows cached_sparse_x_;
  bool sparse_fed_ = false;  // the last forward was ForwardSparse
};

/// Elementwise max(0, x). Takes its input by value so callers holding an
/// rvalue activation move it in; the activation is applied in place and one
/// copy is kept for Backward (the output doubles as the cache — the ReLU
/// gradient mask is recoverable from the output alone).
class ReLU {
 public:
  Tensor Forward(Tensor x);
  Tensor Backward(const Tensor& dy);

 private:
  Tensor cached_y_;
};

/// Elementwise logistic sigmoid (by-value input for the same reason as
/// ReLU; the backward pass needs only the output).
class Sigmoid {
 public:
  Tensor Forward(Tensor x);
  Tensor Backward(const Tensor& dy);

  /// In-place sigmoid with no caching (inference path).
  static void ApplyInPlace(Tensor* x);

 private:
  Tensor cached_y_;
};

/// A stack of Linear+ReLU blocks: sizes = {in, h1, ..., out}. The final
/// layer's ReLU is optional (the MSCN set modules use ReLU everywhere; the
/// output head ends in a bare Linear followed by an external Sigmoid).
class Mlp {
 public:
  Mlp(std::string name, const std::vector<size_t>& sizes,
      bool final_activation);

  void Initialize(util::Pcg32* rng);
  Tensor Forward(const Tensor& x);
  /// Forward with layer 0 fed CSR rows (an MSCN set MLP's featurized
  /// input). Bit-for-bit equal to Forward(x.ToDense()); only
  /// BackwardParams may follow it.
  Tensor ForwardSparse(const SparseRows& x);
  Tensor Backward(const Tensor& dy);
  /// Backward for an MLP whose input needs no gradient (the MSCN set MLPs
  /// fed featurized rows): accumulates the same parameter gradients, bit
  /// for bit, but skips layer 0's dL/dx = dy W^T, a product as large as
  /// that layer's forward.
  void BackwardParams(const Tensor& dy);

  /// Workspace-backed inference through the fused kernels, with the first
  /// layer fed from CSR rows (the MSCN's sparse featurized inputs): returns
  /// a pointer to the workspace slot holding the output (valid until
  /// ws->Reset()). Bit-for-bit identical to ForwardSparse. Concurrent calls
  /// are safe with distinct workspaces.
  Tensor* InferSparseInto(const SparseRows& x, Workspace* ws) const;

  /// Runs layers [first, end) on the dense activations in `h`, ping-ponging
  /// between `h` and one more workspace slot (so `h` is overwritten), and
  /// returns the slot holding the output. `first` is 1 after
  /// InferSparseInto's sparse first layer, and 0 for an MLP whose input is
  /// dense (the MSCN output MLP, fed the pooled set vectors).
  Tensor* InferDenseFrom(size_t first, Tensor* h, Workspace* ws) const;

  std::vector<Parameter*> Parameters();

  size_t in_features() const { return layers_.front().in_features(); }
  size_t out_features() const { return layers_.back().out_features(); }

 private:
  /// The forward pass above layer 0, given layer 0's output.
  Tensor ForwardFromFirstLayer(Tensor h);
  /// Backward through every layer above layer 0 and through layer 0's
  /// ReLU; returns the gradient at layer 0's output.
  Tensor BackwardToFirstLayer(const Tensor& dy);

  std::vector<Linear> layers_;
  std::vector<ReLU> relus_;  // relus_[i] follows layers_[i] where applicable
  bool final_activation_;
};

/// Masked mean over a set dimension — the Deep Sets style pooling at the
/// heart of the MSCN (§2 of the paper) — with the mask implicit in the
/// layout: a batch stores only real elements. `flat` [R, H] holds every
/// set's element rows back to back, and set i owns rows
/// [offsets[i], offsets[i+1]); `offsets` has B+1 entries, starts at 0 and
/// ends at R. The result [B, H] is each set's average, accumulated over its
/// rows in order; a set with no rows yields a zero vector and no gradient.
class MaskedMean {
 public:
  Tensor Forward(const Tensor& flat, std::span<const uint32_t> offsets);
  /// dy is [B, H]; returns the gradient for `flat` [R, H].
  Tensor Backward(const Tensor& dy);

  /// Stateless, allocation-free pooling (inference path): `out` is resized
  /// in place to [B, H]. Bit-for-bit identical to Forward, no caches.
  static void PoolInto(const Tensor& flat, std::span<const uint32_t> offsets,
                       Tensor* out);

 private:
  std::vector<uint32_t> cached_offsets_;
  size_t cached_h_ = 0;
};

// ---- Parameter persistence -----------------------------------------------------

/// Writes all parameters (shape + data) in order.
void WriteParameters(const std::vector<Parameter*>& params,
                     util::BinaryWriter* writer);

/// Restores parameters written by WriteParameters into an identically
/// structured parameter list; fails on shape or name mismatch.
Status ReadParameters(util::BinaryReader* reader,
                      const std::vector<Parameter*>& params);

}  // namespace ds::nn

#endif  // DS_NN_LAYERS_H_
