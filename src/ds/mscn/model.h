// The multi-set convolutional network (MSCN).
//
// Architecture (paper §2): "For each set, it has a separate module,
// comprised of one fully-connected multi-layer perceptron per set element
// with shared parameters. We average module outputs, concatenate them, and
// feed them into a final output MLP, which captures correlations between
// sets and outputs a cardinality estimate."
//
//   table set  -> MLP_t (shared over elements) -> set mean ┐
//   join set   -> MLP_j                        -> set mean ┼ concat -> MLP_out -> sigmoid
//   pred set   -> MLP_p                        -> set mean ┘
//
// The sigmoid output is a normalized log-cardinality (see nn::LogNormalizer).

#ifndef DS_MSCN_MODEL_H_
#define DS_MSCN_MODEL_H_

#include <vector>

#include "ds/mscn/dataset.h"
#include "ds/nn/layers.h"
#include "ds/util/random.h"
#include "ds/util/serialize.h"

namespace ds::mscn {

struct ModelConfig {
  size_t table_dim = 0;  // from FeatureSpace
  size_t join_dim = 0;
  size_t pred_dim = 0;
  /// Width of every hidden layer and of each set's pooled representation.
  size_t hidden_units = 64;

  void Write(util::BinaryWriter* writer) const;
  static Result<ModelConfig> Read(util::BinaryReader* reader);
};

class MscnModel {
 public:
  explicit MscnModel(const ModelConfig& config);

  void Initialize(util::Pcg32* rng);

  /// Forward pass over a batch; returns sigmoid outputs [B, 1]. The
  /// CSR rows feed the first layer of each set-MLP, as in InferSparse.
  /// Caches activations for Backward — training only, not thread-safe.
  nn::Tensor Forward(const SparseBatch& batch);

  /// Backpropagates dLoss/dOutput [B, 1]; gradients accumulate in the
  /// parameters. Must follow a Forward on the same batch.
  void Backward(const nn::Tensor& dy);

  /// Inference: sigmoid outputs [B, 1] through the fused kernels, with CSR
  /// feature rows feeding the first layer of each set-MLP (featurized
  /// one-hot/bitmap rows are overwhelmingly zero). Bit-for-bit identical to
  /// the training Forward on the same batch, but touches no mutable state,
  /// so concurrent calls on a shared model are safe once training is done. All intermediates live
  /// in `ws`, so a warm workspace makes the pass allocation-free; the
  /// returned tensor points into `ws` and is valid until ws->Reset(). One
  /// workspace per thread. This is the only inference path (ds::serve and
  /// every DeepSketch estimate run through it).
  const nn::Tensor* InferSparse(const SparseBatch& batch,
                                nn::Workspace* ws) const;

  std::vector<nn::Parameter*> Parameters();
  size_t NumParameters() const;

  const ModelConfig& config() const { return config_; }

  /// Serializes config + weights.
  void Write(util::BinaryWriter* writer);
  static Result<MscnModel> Read(util::BinaryReader* reader);

 private:
  ModelConfig config_;
  nn::Mlp table_mlp_;
  nn::Mlp join_mlp_;
  nn::Mlp pred_mlp_;
  nn::MaskedMean table_pool_;
  nn::MaskedMean join_pool_;
  nn::MaskedMean pred_pool_;
  nn::Mlp out_mlp_;
  nn::Sigmoid out_sigmoid_;
};

}  // namespace ds::mscn

#endif  // DS_MSCN_MODEL_H_
