// Shared fixtures for deepsketch tests: a tiny hand-built catalog with known
// contents, a brute-force COUNT(*) reference evaluator used to verify the
// hash-join executor property-style, and a dense reference featurizer used
// to verify the MSCN featurizer. Needs no gtest (the fuzz targets link it).

#ifndef DS_TESTS_TEST_UTIL_H_
#define DS_TESTS_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "ds/est/sample.h"
#include "ds/nn/kernels.h"
#include "ds/nn/tensor.h"
#include "ds/storage/catalog.h"
#include "ds/workload/query_spec.h"

namespace ds::testutil {

/// Builds a 3-table mini star schema with deterministic contents:
///
///   movie(id 1..n, year, genre_id)          n = options-independent 40 rows
///   genre(id 1..5, name: "g1".."g5")
///   rating(id, movie_id -> movie.id, score float, votes int)
///
/// year = 2000 + (id % 10); genre_id = 1 + (id % 5); every movie has
/// id % 3 ratings (0, 1 or 2), score = (movie_id % 50) / 10.0,
/// votes = movie_id * 7 % 100. movie with id 13 has NULL year.
std::unique_ptr<storage::Catalog> MakeTinyCatalog();

/// Exact COUNT(*) by exhaustive enumeration over the cross product of all
/// listed tables — O(prod of table sizes); only for tiny catalogs. The spec
/// must already be validated.
uint64_t BruteForceCount(const storage::Catalog& catalog,
                         const workload::QuerySpec& spec);

/// One query's feature sets as dense [elements, width] matrices.
struct ReferenceFeatures {
  nn::Tensor tables;
  nn::Tensor joins;
  nn::Tensor predicates;
};

/// Reference MSCN featurization (paper §2), the oracle for
/// mscn::FeatureSpace::FeaturizeSparse. It derives the layout from the
/// catalog, not from FeatureSpace: the tables of `tables` (every catalog
/// table when empty) in order; then each one's columns in catalog order,
/// normalized by MinNumeric/MaxNumeric; and the FK edges among those tables
/// in catalog order, deduplicated on the canonical "a.x=b.y" key (sides
/// sorted). Rows are [table one-hot | `sample_size` bitmap slots],
/// [join one-hot] (at least one slot) and [column one-hot | =,<,> one-hot |
/// literal]. String literals resolve through the catalog's dictionaries;
/// bitmaps come from SampleSet::Bitmap when `use_bitmaps`. Fails on a
/// table, join or column outside the layout and on unresolvable literals.
Result<ReferenceFeatures> ReferenceFeaturize(
    const storage::Catalog& catalog, const std::vector<std::string>& tables,
    size_t sample_size, const est::SampleSet& samples, bool use_bitmaps,
    const workload::QuerySpec& spec);

/// Same shape and the same bits (memcmp, so -0.0 differs from 0.0).
bool BitIdentical(const nn::Tensor& a, const nn::Tensor& b);

/// Scalar copies of the kernel tiers' row loops (ds/nn/kernels_tier.inl)
/// for the kernels with register-resident AVX2 paths: one mul-then-add per
/// nonzero in k order, zero entries of dense left operands skipped. The
/// kernels must match them bit for bit on every tier and width. Arguments
/// follow detail::KernelOps.
namespace refkernel {

/// c = a b^T through the given tier's DotRow reduction tree: a plain
/// left-to-right sum on generic; on AVX2, for k >= 8, eight lane sums over
/// the 8-wide blocks folded as ((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7)),
/// then the tail added left to right.
void MatMulTB(const float* a, const float* b, float* c, size_t n, size_t k,
              size_t m, nn::KernelTier tier);
void MatMulTAAcc(const float* a, const float* b, float* c, size_t n,
                 size_t k, size_t m);
void Linear(const float* x, const float* w, const float* bias, bool fuse_relu,
            float* y, size_t n, size_t k, size_t m);
void SparseLinear(const uint32_t* offs, const uint32_t* cols,
                  const float* vals, size_t n, const float* w,
                  const float* bias, bool fuse_relu, float* y, size_t m);

}  // namespace refkernel

/// Set pooling over a padded batch: `flat` [B*S, H] with a 0/1 `mask`
/// [B, S] — how MSCN batches were packed before they stored real rows
/// only. The oracle for nn::MaskedMean on ragged sets.
nn::Tensor PaddedMaskedMean(const nn::Tensor& flat, const nn::Tensor& mask);
/// Its gradient for `flat`, given dy [B, H].
nn::Tensor PaddedMaskedMeanBackward(const nn::Tensor& dy,
                                    const nn::Tensor& mask);

}  // namespace ds::testutil

#endif  // DS_TESTS_TEST_UTIL_H_
