#include "ds/nn/tensor.h"

#include <cstdint>
#include <sstream>

namespace ds::nn {

void FloatBuffer::Grow(size_t n) {
  // Geometric growth; 16 floats (one cache line) minimum keeps tiny
  // tensors from reallocating per element.
  size_t cap = cap_ < 16 ? 16 : cap_;
  while (cap < n) cap *= 2;

  // Over-allocate through the counted plain operator new (the aligned
  // overloads bypass util/alloc's counters) and align by hand.
  void* fresh_base = ::operator new(cap * sizeof(float) + 64);
  float* fresh = reinterpret_cast<float*>(
      (reinterpret_cast<uintptr_t>(fresh_base) + 63) & ~uintptr_t{63});
  if (size_ > 0) std::memcpy(fresh, data_, size_ * sizeof(float));
  FreeSelf();
  data_ = fresh;
  heap_base_ = fresh_base;
  cap_ = cap;
}

std::string Tensor::ShapeString() const {
  std::ostringstream os;
  os << "[";
  for (size_t i = 0; i < shape_.size(); ++i) {
    if (i > 0) os << ", ";
    os << shape_[i];
  }
  os << "]";
  return os.str();
}

Tensor MatMul(const Tensor& a, const Tensor& b) {
  DS_CHECK_EQ(a.rank(), 2u);
  DS_CHECK_EQ(b.rank(), 2u);
  const size_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  DS_CHECK_EQ(k, b.dim(0));
  Tensor c({n, m});
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c.data();
  // i-k-j order: unit-stride inner loop over both B and C rows.
  for (size_t i = 0; i < n; ++i) {
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = ad[i * k + kk];
      if (av == 0.0f) continue;  // one-hot/bitmap inputs are mostly zero
      const float* brow = bd + kk * m;
      float* crow = cd + i * m;
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

Tensor MatMulTransposedB(const Tensor& a, const Tensor& b) {
  DS_CHECK_EQ(a.rank(), 2u);
  DS_CHECK_EQ(b.rank(), 2u);
  const size_t n = a.dim(0), k = a.dim(1), m = b.dim(0);
  DS_CHECK_EQ(k, b.dim(1));
  Tensor c({n, m});
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c.data();
  for (size_t i = 0; i < n; ++i) {
    const float* arow = ad + i * k;
    float* crow = cd + i * m;
    for (size_t j = 0; j < m; ++j) {
      const float* brow = bd + j * k;
      float acc = 0.0f;
      for (size_t kk = 0; kk < k; ++kk) acc += arow[kk] * brow[kk];
      crow[j] = acc;
    }
  }
  return c;
}

Tensor MatMulTransposedA(const Tensor& a, const Tensor& b) {
  DS_CHECK_EQ(a.rank(), 2u);
  DS_CHECK_EQ(b.rank(), 2u);
  const size_t n = a.dim(0), k = a.dim(1), m = b.dim(1);
  DS_CHECK_EQ(n, b.dim(0));
  Tensor c({k, m});
  const float* ad = a.data();
  const float* bd = b.data();
  float* cd = c.data();
  for (size_t i = 0; i < n; ++i) {
    const float* arow = ad + i * k;
    const float* brow = bd + i * m;
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = arow[kk];
      if (av == 0.0f) continue;
      float* crow = cd + kk * m;
      for (size_t j = 0; j < m; ++j) crow[j] += av * brow[j];
    }
  }
  return c;
}

void AddBiasRows(Tensor* x, const Tensor& bias) {
  DS_CHECK_EQ(x->rank(), 2u);
  DS_CHECK_EQ(bias.rank(), 1u);
  const size_t n = x->dim(0), m = x->dim(1);
  DS_CHECK_EQ(bias.dim(0), m);
  float* xd = x->data();
  const float* bd = bias.data();
  for (size_t i = 0; i < n; ++i) {
    float* row = xd + i * m;
    for (size_t j = 0; j < m; ++j) row[j] += bd[j];
  }
}

void SumRowsInto(const Tensor& x, Tensor* out) {
  DS_CHECK_EQ(x.rank(), 2u);
  DS_CHECK_EQ(out->rank(), 1u);
  const size_t n = x.dim(0), m = x.dim(1);
  DS_CHECK_EQ(out->dim(0), m);
  const float* xd = x.data();
  float* od = out->data();
  for (size_t i = 0; i < n; ++i) {
    const float* row = xd + i * m;
    for (size_t j = 0; j < m; ++j) od[j] += row[j];
  }
}

void Axpy(float a, const Tensor& x, Tensor* out) {
  DS_CHECK(x.SameShape(*out));
  const float* xd = x.data();
  float* od = out->data();
  const size_t n = x.size();
  for (size_t i = 0; i < n; ++i) od[i] += a * xd[i];
}

}  // namespace ds::nn
