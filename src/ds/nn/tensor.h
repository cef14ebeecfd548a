// A minimal dense float32 tensor for the from-scratch neural network.
//
// This replaces the paper's PyTorch dependency. Tensors are row-major and
// CPU-only; the library implements exactly the operations the MSCN model
// needs (matmul, bias, elementwise ops, masked set pooling) with explicit
// backward passes — no general autograd, the model wires gradients by hand
// and verifies them against numerical differentiation in tests.

#ifndef DS_NN_TENSOR_H_
#define DS_NN_TENSOR_H_

#include <algorithm>
#include <cstddef>
#include <cstring>
#include <initializer_list>
#include <string>
#include <utility>
#include <vector>

#include "ds/util/contract.h"
#include "ds/util/logging.h"

namespace ds::nn {

/// The float storage behind Tensor: a 64-byte-aligned growable buffer on
/// the heap, allocated through the counted global operator new (so
/// util::AllocCount sees every growth). Workspace slots warm up once and
/// then never allocate again.
///
/// Grow-only semantics match std::vector: resize() preserves existing
/// elements and zero-fills the extension; capacity never shrinks.
class FloatBuffer {
 public:
  FloatBuffer() = default;
  ~FloatBuffer() { FreeSelf(); }

  FloatBuffer(const FloatBuffer& o) { assign(o.data_, o.size_); }
  FloatBuffer& operator=(const FloatBuffer& o) {
    if (this != &o) assign(o.data_, o.size_);
    return *this;
  }
  FloatBuffer(FloatBuffer&& o) noexcept { MoveFrom(&o); }
  FloatBuffer& operator=(FloatBuffer&& o) noexcept {
    if (this != &o) {
      FreeSelf();
      MoveFrom(&o);
    }
    return *this;
  }

  float* data() { return data_; }
  const float* data() const { return data_; }
  size_t size() const { return size_; }
  size_t capacity() const { return cap_; }
  bool empty() const { return size_ == 0; }

  float* begin() { return data_; }
  float* end() { return data_ + size_; }
  const float* begin() const { return data_; }
  const float* end() const { return data_ + size_; }
  float& operator[](size_t i) { return data_[i]; }
  float operator[](size_t i) const { return data_[i]; }

  void resize(size_t n) {
    if (n > cap_) Grow(n);
    if (n > size_) std::memset(data_ + size_, 0, (n - size_) * sizeof(float));
    size_ = n;
  }

  void assign(size_t n, float v) {
    if (n > cap_) Grow(n);
    size_ = n;
    std::fill(data_, data_ + n, v);
  }

  void assign(const float* p, size_t n) {
    if (n > cap_) Grow(n);
    size_ = n;
    if (n > 0) std::memmove(data_, p, n * sizeof(float));
  }

 private:
  void Grow(size_t n);   // tensor.cc
  void FreeSelf() {
    if (heap_base_ != nullptr) ::operator delete(heap_base_);
    heap_base_ = nullptr;
  }
  void MoveFrom(FloatBuffer* o) {
    data_ = std::exchange(o->data_, nullptr);
    heap_base_ = std::exchange(o->heap_base_, nullptr);
    size_ = std::exchange(o->size_, 0);
    cap_ = std::exchange(o->cap_, 0);
  }

  float* data_ = nullptr;
  void* heap_base_ = nullptr;  // unaligned heap block behind data_
  size_t size_ = 0;
  size_t cap_ = 0;
};

class Tensor {
 public:
  Tensor() = default;

  explicit Tensor(std::vector<size_t> shape) : shape_(std::move(shape)) {
    size_t n = 1;
    for (size_t d : shape_) n *= d;
    data_.assign(n, 0.0f);
  }

  static Tensor Zeros(std::vector<size_t> shape) {
    return Tensor(std::move(shape));
  }

  static Tensor FromData(std::vector<size_t> shape, std::vector<float> data) {
    Tensor t;
    t.shape_ = std::move(shape);
    size_t n = 1;
    for (size_t d : t.shape_) n *= d;
    DS_REQUIRE(n == data.size(),
               "FromData: shape wants %zu elements, data has %zu", n,
               data.size());
    t.data_.assign(data.data(), data.size());
    return t;
  }

  const std::vector<size_t>& shape() const { return shape_; }
  size_t rank() const { return shape_.size(); }
  size_t dim(size_t i) const { return shape_[i]; }
  size_t size() const { return data_.size(); }
  bool empty() const { return data_.empty(); }

  float* data() { return data_.data(); }
  const float* data() const { return data_.data(); }
  FloatBuffer& vec() { return data_; }
  const FloatBuffer& vec() const { return data_; }

  float& at(size_t i) { return data_[i]; }
  float at(size_t i) const { return data_[i]; }

  // Element access sits on inference inner loops, so the rank agreement is
  // a DS_DCHECK: free in Release, enforced in Debug/sanitizer builds.
  float& at(size_t i, size_t j) {
    DS_DCHECK(rank() == 2, "2D at() on rank-%zu tensor", rank());
    return data_[i * shape_[1] + j];
  }
  float at(size_t i, size_t j) const {
    DS_DCHECK(rank() == 2, "2D at() on rank-%zu tensor", rank());
    return data_[i * shape_[1] + j];
  }

  float& at(size_t i, size_t j, size_t k) {
    DS_DCHECK(rank() == 3, "3D at() on rank-%zu tensor", rank());
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }
  float at(size_t i, size_t j, size_t k) const {
    DS_DCHECK(rank() == 3, "3D at() on rank-%zu tensor", rank());
    return data_[(i * shape_[1] + j) * shape_[2] + k];
  }

  void Fill(float v) { std::fill(data_.begin(), data_.end(), v); }
  void Zero() { Fill(0.0f); }

  /// Reshapes this tensor in place, reusing the existing buffer when its
  /// capacity suffices (the Workspace reuse path). Element values are
  /// unspecified afterwards — callers overwrite. Returns true if the buffer
  /// had to grow (i.e. the call heap-allocated).
  bool ResizeInPlace(const std::vector<size_t>& shape) {
    return ResizeInPlaceSpan(shape.data(), shape.data() + shape.size());
  }

  /// Brace-list overload: `t.ResizeInPlace({b, h})` stays allocation-free
  /// (the initializer_list is stack-backed; the vector overload would
  /// materialize a temporary heap vector at every call site).
  bool ResizeInPlace(std::initializer_list<size_t> shape) {
    return ResizeInPlaceSpan(shape.begin(), shape.end());
  }

  /// Bytes of backing storage currently reserved.
  size_t capacity_bytes() const { return data_.capacity() * sizeof(float); }

  /// Reinterprets the tensor with a new shape of identical element count
  /// (row-major data is untouched).
  Tensor Reshaped(std::vector<size_t> shape) const {
    Tensor t = *this;
    size_t n = 1;
    for (size_t d : shape) n *= d;
    DS_REQUIRE(n == size(),
               "Reshaped: new shape wants %zu elements, tensor has %zu", n,
               size());
    t.shape_ = std::move(shape);
    return t;
  }

  bool SameShape(const Tensor& other) const { return shape_ == other.shape_; }

  std::string ShapeString() const;

 private:
  bool ResizeInPlaceSpan(const size_t* begin, const size_t* end) {
    size_t n = 1;
    for (const size_t* d = begin; d != end; ++d) n *= *d;
    shape_.assign(begin, end);
    const bool grew = n > data_.capacity();
    data_.resize(n);
    return grew;
  }

  std::vector<size_t> shape_;
  FloatBuffer data_;
};

// ---- Functional ops (allocate results) ---------------------------------------

/// C = A x B for 2D tensors: [n,k] x [k,m] -> [n,m].
Tensor MatMul(const Tensor& a, const Tensor& b);

/// C = A x B^T: [n,k] x [m,k] -> [n,m]. Used in backward passes.
Tensor MatMulTransposedB(const Tensor& a, const Tensor& b);

/// C = A^T x B: [n,k] x [n,m] -> [k,m]. Used for weight gradients.
Tensor MatMulTransposedA(const Tensor& a, const Tensor& b);

/// Adds row vector `bias` [m] to every row of `x` [n,m], in place.
void AddBiasRows(Tensor* x, const Tensor& bias);

/// Column sums of `x` [n,m] -> [m]; accumulates into `out`.
void SumRowsInto(const Tensor& x, Tensor* out);

/// out += a * x (same shapes).
void Axpy(float a, const Tensor& x, Tensor* out);

}  // namespace ds::nn

#endif  // DS_NN_TENSOR_H_
