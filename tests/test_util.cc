#include "test_util.h"

#include <algorithm>
#include <cstring>

#include "ds/exec/predicate.h"
#include "ds/util/logging.h"

namespace ds::testutil {

using storage::Catalog;
using storage::Column;
using storage::ColumnType;
using storage::Table;

std::unique_ptr<Catalog> MakeTinyCatalog() {
  auto catalog = std::make_unique<Catalog>();

  Table* genre = catalog->CreateTable("genre").value();
  Column* gid = genre->AddColumn("id", ColumnType::kInt64).value();
  Column* gname = genre->AddColumn("name", ColumnType::kCategorical).value();
  for (int64_t i = 1; i <= 5; ++i) {
    gid->AppendInt(i);
    std::string genre_name = "g";
    genre_name += std::to_string(i);
    gname->AppendString(genre_name);
  }

  Table* movie = catalog->CreateTable("movie").value();
  Column* mid = movie->AddColumn("id", ColumnType::kInt64).value();
  Column* myear = movie->AddColumn("year", ColumnType::kInt64).value();
  Column* mgenre = movie->AddColumn("genre_id", ColumnType::kInt64).value();
  for (int64_t i = 1; i <= 40; ++i) {
    mid->AppendInt(i);
    if (i == 13) {
      myear->AppendNull();
    } else {
      myear->AppendInt(2000 + (i % 10));
    }
    mgenre->AppendInt(1 + (i % 5));
  }

  Table* rating = catalog->CreateTable("rating").value();
  Column* rid = rating->AddColumn("id", ColumnType::kInt64).value();
  Column* rmovie = rating->AddColumn("movie_id", ColumnType::kInt64).value();
  Column* rscore = rating->AddColumn("score", ColumnType::kFloat64).value();
  Column* rvotes = rating->AddColumn("votes", ColumnType::kInt64).value();
  int64_t next = 1;
  for (int64_t m = 1; m <= 40; ++m) {
    for (int64_t k = 0; k < m % 3; ++k) {
      rid->AppendInt(next++);
      rmovie->AppendInt(m);
      rscore->AppendDouble(static_cast<double>(m % 50) / 10.0);
      rvotes->AppendInt(m * 7 % 100);
    }
  }

  DS_CHECK_OK(catalog->SetPrimaryKey("genre", "id"));
  DS_CHECK_OK(catalog->SetPrimaryKey("movie", "id"));
  DS_CHECK_OK(catalog->SetPrimaryKey("rating", "id"));
  DS_CHECK_OK(catalog->AddForeignKey("movie", "genre_id", "genre", "id"));
  DS_CHECK_OK(catalog->AddForeignKey("rating", "movie_id", "movie", "id"));
  DS_CHECK_OK(catalog->Validate());
  return catalog;
}

namespace {

// Row-at-a-time predicate check, written independently of the library's
// column-at-a-time QualifyingBitmapInto so the oracle does not share the
// kernel it verifies. NULL never qualifies.
bool RowMatchesAll(const std::vector<exec::BoundPredicate>& preds,
                   size_t row) {
  for (const auto& p : preds) {
    if (p.never_matches || p.column->IsNull(row)) return false;
    const double v = p.column->GetNumeric(row);
    bool match = false;
    switch (p.op) {
      case workload::CompareOp::kEq:
        match = v == p.value;
        break;
      case workload::CompareOp::kLt:
        match = v < p.value;
        break;
      case workload::CompareOp::kGt:
        match = v > p.value;
        break;
    }
    if (!match) return false;
  }
  return true;
}

}  // namespace

uint64_t BruteForceCount(const Catalog& catalog,
                         const workload::QuerySpec& spec) {
  // Bind predicates per table once.
  std::vector<const Table*> tables;
  std::vector<std::vector<exec::BoundPredicate>> preds;
  for (const auto& name : spec.tables) {
    const Table* t = catalog.GetTable(name).value();
    tables.push_back(t);
    preds.push_back(exec::BindPredicates(*t, name, spec.predicates).value());
  }
  auto slot_of = [&](const std::string& name) {
    for (size_t i = 0; i < spec.tables.size(); ++i) {
      if (spec.tables[i] == name) return i;
    }
    DS_CHECK(false);
    return size_t{0};
  };
  struct JoinCols {
    size_t l_slot, r_slot;
    const Column* l_col;
    const Column* r_col;
  };
  std::vector<JoinCols> joins;
  for (const auto& j : spec.joins) {
    JoinCols jc;
    jc.l_slot = slot_of(j.left_table);
    jc.r_slot = slot_of(j.right_table);
    jc.l_col = tables[jc.l_slot]->GetColumn(j.left_column).value();
    jc.r_col = tables[jc.r_slot]->GetColumn(j.right_column).value();
    joins.push_back(jc);
  }

  std::vector<size_t> row(spec.tables.size(), 0);
  uint64_t count = 0;
  // Odometer over the cross product.
  for (;;) {
    bool ok = true;
    for (size_t i = 0; ok && i < tables.size(); ++i) {
      ok = RowMatchesAll(preds[i], row[i]);
    }
    for (size_t i = 0; ok && i < joins.size(); ++i) {
      const auto& jc = joins[i];
      if (jc.l_col->IsNull(row[jc.l_slot]) ||
          jc.r_col->IsNull(row[jc.r_slot])) {
        ok = false;
      } else {
        ok = jc.l_col->GetInt(row[jc.l_slot]) ==
             jc.r_col->GetInt(row[jc.r_slot]);
      }
    }
    if (ok) ++count;
    // Advance odometer.
    size_t d = 0;
    while (d < row.size()) {
      if (++row[d] < tables[d]->num_rows()) break;
      row[d] = 0;
      ++d;
    }
    if (d == row.size()) break;
  }
  return count;
}

namespace {

std::string CanonicalJoinKey(std::string a, std::string b) {
  if (b < a) std::swap(a, b);
  return a + "=" + b;
}

// Position of `key` in `keys`, or keys.size().
size_t IndexOf(const std::vector<std::string>& keys, const std::string& key) {
  return static_cast<size_t>(std::find(keys.begin(), keys.end(), key) -
                             keys.begin());
}

}  // namespace

Result<ReferenceFeatures> ReferenceFeaturize(
    const Catalog& catalog, const std::vector<std::string>& tables,
    size_t sample_size, const est::SampleSet& samples, bool use_bitmaps,
    const workload::QuerySpec& spec) {
  // Layout, from the catalog alone.
  const std::vector<std::string> names =
      tables.empty() ? catalog.table_names() : tables;
  std::vector<std::string> columns;
  std::vector<double> lo, hi;
  for (const auto& name : names) {
    DS_ASSIGN_OR_RETURN(const Table* t, catalog.GetTable(name));
    for (size_t c = 0; c < t->num_columns(); ++c) {
      columns.push_back(name + "." + t->column(c).name());
      lo.push_back(t->column(c).MinNumeric());
      hi.push_back(t->column(c).MaxNumeric());
    }
  }
  std::vector<std::string> joins;
  for (const auto& fk : catalog.foreign_keys()) {
    if (IndexOf(names, fk.fk_table) == names.size() ||
        IndexOf(names, fk.pk_table) == names.size()) {
      continue;
    }
    const std::string key = CanonicalJoinKey(fk.fk_table + "." + fk.fk_column,
                                             fk.pk_table + "." + fk.pk_column);
    if (IndexOf(joins, key) == joins.size()) joins.push_back(key);
  }

  // String literals become dictionary codes.
  workload::QuerySpec q = spec;
  for (auto& pred : q.predicates) {
    const auto* text = std::get_if<std::string>(&pred.literal);
    if (text == nullptr) continue;
    DS_ASSIGN_OR_RETURN(const Table* t, catalog.GetTable(pred.table));
    DS_ASSIGN_OR_RETURN(const Column* col, t->GetColumn(pred.column));
    if (col->dict() == nullptr) {
      return Status::InvalidArgument("string literal on a numeric column");
    }
    DS_ASSIGN_OR_RETURN(int64_t code, col->dict()->Lookup(*text));
    pred.literal = code;
  }

  ReferenceFeatures out{
      nn::Tensor({q.tables.size(), names.size() + sample_size}),
      nn::Tensor({q.joins.size(), std::max<size_t>(joins.size(), 1)}),
      nn::Tensor({q.predicates.size(), columns.size() + 3 + 1})};
  for (size_t i = 0; i < q.tables.size(); ++i) {
    const size_t t = IndexOf(names, q.tables[i]);
    if (t == names.size()) return Status::InvalidArgument("table outside");
    out.tables.at(i, t) = 1.0f;
    if (!use_bitmaps) continue;
    DS_ASSIGN_OR_RETURN(std::vector<uint8_t> bitmap,
                        samples.Bitmap(q.tables[i], q.predicates));
    for (size_t j = 0; j < std::min(bitmap.size(), sample_size); ++j) {
      if (bitmap[j] != 0) out.tables.at(i, names.size() + j) = 1.0f;
    }
  }
  for (size_t i = 0; i < q.joins.size(); ++i) {
    const auto& e = q.joins[i];
    const size_t j =
        IndexOf(joins, CanonicalJoinKey(e.left_table + "." + e.left_column,
                                        e.right_table + "." + e.right_column));
    if (j == joins.size()) return Status::InvalidArgument("join outside");
    out.joins.at(i, j) = 1.0f;
  }
  for (size_t i = 0; i < q.predicates.size(); ++i) {
    const auto& p = q.predicates[i];
    const size_t c = IndexOf(columns, p.table + "." + p.column);
    if (c == columns.size()) return Status::InvalidArgument("column outside");
    out.predicates.at(i, c) = 1.0f;
    size_t op = 0;
    switch (p.op) {
      case workload::CompareOp::kEq:
        op = 0;
        break;
      case workload::CompareOp::kLt:
        op = 1;
        break;
      case workload::CompareOp::kGt:
        op = 2;
        break;
    }
    out.predicates.at(i, columns.size() + op) = 1.0f;
    const double v = std::holds_alternative<int64_t>(p.literal)
                         ? static_cast<double>(std::get<int64_t>(p.literal))
                         : std::get<double>(p.literal);
    const double norm =
        hi[c] > lo[c] ? std::clamp((v - lo[c]) / (hi[c] - lo[c]), 0.0, 1.0)
                      : 0.5;
    out.predicates.at(i, columns.size() + 3) = static_cast<float>(norm);
  }
  return out;
}

bool BitIdentical(const nn::Tensor& a, const nn::Tensor& b) {
  return a.shape() == b.shape() &&
         (a.size() == 0 ||
          std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0);
}

namespace refkernel {

void MatMulTB(const float* a, const float* b, float* c, size_t n, size_t k,
              size_t m, nn::KernelTier tier) {
  for (size_t i = 0; i < n; ++i) {
    const float* arow = a + i * k;
    for (size_t j = 0; j < m; ++j) {
      const float* brow = b + j * k;
      size_t kk = 0;
      float acc = 0.0f;
      if (tier == nn::KernelTier::kAvx2 && k >= 8) {
        float lane[8] = {};
        for (; kk + 8 <= k; kk += 8) {
          for (size_t l = 0; l < 8; ++l) {
            lane[l] += arow[kk + l] * brow[kk + l];
          }
        }
        float s[4];
        for (size_t l = 0; l < 4; ++l) s[l] = lane[l] + lane[l + 4];
        acc = (s[0] + s[1]) + (s[2] + s[3]);
      }
      for (; kk < k; ++kk) acc += arow[kk] * brow[kk];
      c[i * m + j] = acc;
    }
  }
}

void MatMulTAAcc(const float* a, const float* b, float* c, size_t n,
                 size_t k, size_t m) {
  for (size_t i = 0; i < n; ++i) {
    for (size_t kk = 0; kk < k; ++kk) {
      const float av = a[i * k + kk];
      if (av == 0.0f) continue;
      for (size_t j = 0; j < m; ++j) c[kk * m + j] += av * b[i * m + j];
    }
  }
}

namespace {

void BiasAct(const float* bias, bool fuse_relu, float* yrow, size_t m) {
  for (size_t j = 0; j < m; ++j) {
    const float v = yrow[j] + bias[j];
    yrow[j] = fuse_relu && v < 0.0f ? 0.0f : v;
  }
}

}  // namespace

void Linear(const float* x, const float* w, const float* bias, bool fuse_relu,
            float* y, size_t n, size_t k, size_t m) {
  for (size_t i = 0; i < n; ++i) {
    float* yrow = y + i * m;
    for (size_t j = 0; j < m; ++j) yrow[j] = 0.0f;
    for (size_t kk = 0; kk < k; ++kk) {
      const float xv = x[i * k + kk];
      if (xv == 0.0f) continue;
      for (size_t j = 0; j < m; ++j) yrow[j] += xv * w[kk * m + j];
    }
    BiasAct(bias, fuse_relu, yrow, m);
  }
}

void SparseLinear(const uint32_t* offs, const uint32_t* cols,
                  const float* vals, size_t n, const float* w,
                  const float* bias, bool fuse_relu, float* y, size_t m) {
  for (size_t i = 0; i < n; ++i) {
    float* yrow = y + i * m;
    for (size_t j = 0; j < m; ++j) yrow[j] = 0.0f;
    for (uint32_t e = offs[i]; e < offs[i + 1]; ++e) {
      for (size_t j = 0; j < m; ++j) {
        yrow[j] += vals[e] * w[static_cast<size_t>(cols[e]) * m + j];
      }
    }
    BiasAct(bias, fuse_relu, yrow, m);
  }
}

}  // namespace refkernel

nn::Tensor PaddedMaskedMean(const nn::Tensor& flat, const nn::Tensor& mask) {
  const size_t b = mask.dim(0), s = mask.dim(1), h = flat.dim(1);
  DS_CHECK_EQ(flat.dim(0), b * s);
  nn::Tensor out({b, h});
  for (size_t i = 0; i < b; ++i) {
    float count = 0.0f;
    float* orow = out.data() + i * h;
    for (size_t j = 0; j < s; ++j) {
      const float m = mask.at(i, j);
      if (m == 0.0f) continue;
      count += m;
      const float* frow = flat.data() + (i * s + j) * h;
      for (size_t k = 0; k < h; ++k) orow[k] += m * frow[k];
    }
    if (count > 0.0f) {
      const float inv = 1.0f / count;
      for (size_t k = 0; k < h; ++k) orow[k] *= inv;
    }
  }
  return out;
}

nn::Tensor PaddedMaskedMeanBackward(const nn::Tensor& dy,
                                    const nn::Tensor& mask) {
  const size_t b = mask.dim(0), s = mask.dim(1), h = dy.dim(1);
  nn::Tensor dflat({b * s, h});
  for (size_t i = 0; i < b; ++i) {
    float count = 0.0f;
    for (size_t j = 0; j < s; ++j) count += mask.at(i, j);
    if (count == 0.0f) continue;
    const float inv = 1.0f / count;
    const float* drow = dy.data() + i * h;
    for (size_t j = 0; j < s; ++j) {
      const float m = mask.at(i, j);
      if (m == 0.0f) continue;
      float* frow = dflat.data() + (i * s + j) * h;
      const float scale = m * inv;
      for (size_t k = 0; k < h; ++k) frow[k] = scale * drow[k];
    }
  }
  return dflat;
}

}  // namespace ds::testutil
