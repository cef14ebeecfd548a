#include "ds/nn/optimizer.h"

#include <cmath>

namespace ds::nn {

Sgd::Sgd(std::vector<Parameter*> params, float lr, float momentum)
    : Optimizer(std::move(params)), lr_(lr), momentum_(momentum) {
  velocity_.reserve(params_.size());
  for (Parameter* p : params_) {
    velocity_.emplace_back(p->value.shape());
  }
}

void Sgd::Step() {
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    float* w = p->value.data();
    const float* g = p->grad.data();
    float* v = velocity_[i].data();
    const size_t n = p->value.size();
    for (size_t j = 0; j < n; ++j) {
      v[j] = momentum_ * v[j] - lr_ * g[j];
      w[j] += v[j];
    }
  }
}

Adam::Adam(std::vector<Parameter*> params, float lr, float beta1, float beta2,
           float eps)
    : Optimizer(std::move(params)),
      lr_(lr),
      beta1_(beta1),
      beta2_(beta2),
      eps_(eps) {
  m_.reserve(params_.size());
  v_.reserve(params_.size());
  for (Parameter* p : params_) {
    m_.emplace_back(p->value.shape());
    v_.emplace_back(p->value.shape());
  }
}

void Adam::Step() {
  ++t_;
  const float bias1 = 1.0f - std::pow(beta1_, static_cast<float>(t_));
  const float bias2 = 1.0f - std::pow(beta2_, static_cast<float>(t_));
  // The loop vectorizes to sqrtps only because src/CMakeLists.txt builds
  // this file with -fno-math-errno; sqrtps and divps round exactly as sqrtf
  // and a scalar divide do, so the update is bit-identical either way.
  for (size_t i = 0; i < params_.size(); ++i) {
    Parameter* p = params_[i];
    float* w = p->value.data();
    const float* g = p->grad.data();
    float* m = m_[i].data();
    float* v = v_[i].data();
    const size_t n = p->value.size();
    for (size_t j = 0; j < n; ++j) {
      m[j] = beta1_ * m[j] + (1.0f - beta1_) * g[j];
      v[j] = beta2_ * v[j] + (1.0f - beta2_) * g[j] * g[j];
      const float mhat = m[j] / bias1;
      const float vhat = v[j] / bias2;
      w[j] -= lr_ * mhat / (std::sqrt(vhat) + eps_);
    }
  }
}

}  // namespace ds::nn
