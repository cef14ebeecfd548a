#include "ds/mscn/featurizer.h"

#include <algorithm>

#include "ds/util/contract.h"

namespace ds::mscn {

namespace {

// True if any predicate literal is still an unresolved string. Queries
// without string literals skip the resolution copy entirely.
bool HasStringLiterals(const workload::QuerySpec& spec) {
  for (const auto& pred : spec.predicates) {
    if (std::holds_alternative<std::string>(pred.literal)) return true;
  }
  return false;
}

// Rewrites string literals in `spec` to their dictionary codes using the
// sample columns (which share the base tables' dictionaries). Returns
// NotFound for strings absent from the data — callers decide whether that
// is an error (training) or an "estimate is zero" signal (ad-hoc queries).
Status ResolveStringLiteralsInPlace(workload::QuerySpec* spec,
                                    const est::SampleSet& samples) {
  for (auto& pred : spec->predicates) {
    if (!std::holds_alternative<std::string>(pred.literal)) continue;
    DS_ASSIGN_OR_RETURN(const est::TableSample* ts, samples.Get(pred.table));
    DS_ASSIGN_OR_RETURN(const storage::Column* col,
                        ts->rows->GetColumn(pred.column));
    if (col->dict() == nullptr) {
      return Status::InvalidArgument("string literal on non-categorical " +
                                     pred.ToString());
    }
    DS_ASSIGN_OR_RETURN(
        int64_t code, col->dict()->Lookup(std::get<std::string>(pred.literal)));
    pred.literal = code;
  }
  return Status::OK();
}

}  // namespace

std::string FeatureSpace::JoinKey(const workload::JoinEdge& edge) {
  std::string a = edge.left_table + "." + edge.left_column;
  std::string b = edge.right_table + "." + edge.right_column;
  if (b < a) std::swap(a, b);
  return a + "=" + b;
}

Result<FeatureSpace> FeatureSpace::Create(
    const storage::Catalog& catalog, const std::vector<std::string>& tables,
    size_t sample_size) {
  FeatureSpace fs;
  fs.sample_size_ = sample_size;
  std::vector<std::string> names = tables.empty() ? catalog.table_names() : tables;
  for (const auto& name : names) {
    DS_ASSIGN_OR_RETURN(const storage::Table* table, catalog.GetTable(name));
    fs.table_index_.emplace(name, fs.table_names_.size());
    fs.table_names_.push_back(name);
    // Every column is a potential predicate target; record its range.
    for (size_t c = 0; c < table->num_columns(); ++c) {
      const storage::Column& col = table->column(c);
      const std::string key = name + "." + col.name();
      fs.column_index_.emplace(key, fs.column_keys_.size());
      fs.column_keys_.push_back(key);
      fs.column_min_.push_back(col.MinNumeric());
      fs.column_max_.push_back(col.MaxNumeric());
    }
  }
  // Joins: every FK edge fully inside the table subset, canonicalized.
  for (const auto& fk : catalog.foreign_keys()) {
    if (fs.table_index_.count(fk.fk_table) == 0 ||
        fs.table_index_.count(fk.pk_table) == 0) {
      continue;
    }
    workload::JoinEdge edge{fk.fk_table, fk.fk_column, fk.pk_table,
                            fk.pk_column};
    const std::string key = JoinKey(edge);
    if (fs.join_index_.count(key) == 0) {
      fs.join_index_.emplace(key, fs.join_keys_.size());
      fs.join_keys_.push_back(key);
    }
  }
  return fs;
}

Result<size_t> FeatureSpace::TableIndex(const std::string& table) const {
  auto it = table_index_.find(table);
  if (it == table_index_.end()) {
    return Status::InvalidArgument("table '" + table +
                                   "' is outside this sketch's feature space");
  }
  return it->second;
}

Status FeatureSpace::FeaturizeSparse(const workload::QuerySpec& spec,
                                     const est::SampleSet& samples,
                                     bool use_bitmaps,
                                     FeaturizeScratch* scratch,
                                     SparseQueryFeatures* out) const {
  // Resolve string literals through a reused scratch copy; the common case
  // (numeric-only predicates) featurizes straight from `spec`.
  const workload::QuerySpec* q = &spec;
  if (HasStringLiterals(spec)) {
    scratch->resolved = spec;
    DS_RETURN_NOT_OK(ResolveStringLiteralsInPlace(&scratch->resolved, samples));
    q = &scratch->resolved;
  }
  out->Clear(table_dim(), join_dim(), pred_dim());

  // Table set: one-hot at the table index, then bitmap ones. The one-hot
  // index is always below the bitmap base, so columns stay strictly
  // increasing; zero bitmap bytes are simply not emitted.
  for (const auto& tname : q->tables) {
    DS_ASSIGN_OR_RETURN(size_t idx, TableIndex(tname));
    out->tables.Push(static_cast<uint32_t>(idx), 1.0f);
    if (use_bitmaps) {
      DS_RETURN_NOT_OK(samples.BitmapInto(tname, q->predicates,
                                          &scratch->bound, &scratch->bitmap));
      const size_t n = std::min(scratch->bitmap.size(), sample_size_);
      // Bulk-emit the set bits: count, resize once, then fill — hundreds
      // of entries per table row, so per-entry push_back bounds checks
      // show up in the serving featurize profile.
      size_t count = 0;
      for (size_t j = 0; j < n; ++j) count += scratch->bitmap[j] != 0;
      const uint32_t base = static_cast<uint32_t>(table_names_.size());
      const size_t start = out->tables.cols.size();
      out->tables.cols.resize(start + count);
      out->tables.vals.resize(start + count, 1.0f);
      uint32_t* cp = out->tables.cols.data() + start;
      for (size_t j = 0; j < n; ++j) {
        if (scratch->bitmap[j]) *cp++ = base + static_cast<uint32_t>(j);
      }
      // This path writes cols directly (bypassing Push and its checks), so
      // re-assert the CSR invariants it must uphold: every reserved slot
      // filled, and the first bitmap column above the one-hot index keeps
      // the row strictly increasing (bitmap columns ascend with j).
      DS_DCHECK(cp == out->tables.cols.data() + start + count,
                "bitmap bulk-emit filled %zu of %zu reserved CSR slots",
                static_cast<size_t>(cp - (out->tables.cols.data() + start)),
                count);
      DS_DCHECK(base > static_cast<uint32_t>(idx),
                "bitmap base %u must lie above table one-hot index %zu",
                base, idx);
    }
    out->tables.EndRow();
  }

  // Join set: a single one. The canonical key is rebuilt in scratch strings
  // (JoinKey allocates fresh ones).
  for (const auto& join : q->joins) {
    auto assign_side = [](std::string* s, const std::string& t,
                          const std::string& c) {
      s->clear();
      *s += t;
      *s += '.';
      *s += c;
    };
    assign_side(&scratch->side_a, join.left_table, join.left_column);
    assign_side(&scratch->side_b, join.right_table, join.right_column);
    const std::string* a = &scratch->side_a;
    const std::string* b = &scratch->side_b;
    if (*b < *a) std::swap(a, b);
    scratch->key.clear();
    scratch->key += *a;
    scratch->key += '=';
    scratch->key += *b;
    auto it = join_index_.find(scratch->key);
    if (it == join_index_.end()) {
      return Status::InvalidArgument(
          "join " + join.ToString() +
          " is outside this sketch's feature space");
    }
    out->joins.Push(static_cast<uint32_t>(it->second), 1.0f);
    out->joins.EndRow();
  }

  // Predicate set: column one-hot, op one-hot, literal (skipped when it
  // normalizes to exactly zero: CSR rows hold no explicit zeros).
  for (const auto& pred : q->predicates) {
    scratch->key.clear();
    scratch->key += pred.table;
    scratch->key += '.';
    scratch->key += pred.column;
    auto it = column_index_.find(scratch->key);
    if (it == column_index_.end()) {
      return Status::InvalidArgument("column " + scratch->key +
                                     " is outside this sketch's feature space");
    }
    double value = 0;
    if (const auto* i = std::get_if<int64_t>(&pred.literal)) {
      value = static_cast<double>(*i);
    } else if (const auto* d = std::get_if<double>(&pred.literal)) {
      value = *d;
    } else {
      return Status::InvalidArgument(
          "string literal must be resolved to its dictionary code before "
          "featurization: " +
          pred.ToString());
    }
    const size_t c = it->second;
    const double lo = column_min_[c], hi = column_max_[c];
    const double norm =
        hi > lo ? std::clamp((value - lo) / (hi - lo), 0.0, 1.0) : 0.5;
    out->predicates.Push(static_cast<uint32_t>(c), 1.0f);
    out->predicates.Push(
        static_cast<uint32_t>(column_keys_.size() + static_cast<size_t>(pred.op)),
        1.0f);
    const float normf = static_cast<float>(norm);
    if (normf != 0.0f) {
      out->predicates.Push(static_cast<uint32_t>(column_keys_.size() + 3),
                           normf);
    }
    out->predicates.EndRow();
  }
  // Featurization postcondition: one CSR row per set element — the batch
  // packer (PackSparseBatch) derives each query's row offsets from it.
  DS_ENSURE(out->tables.rows() == q->tables.size() &&
                out->joins.rows() == q->joins.size() &&
                out->predicates.rows() == q->predicates.size(),
            "featurized %zu/%zu/%zu rows for %zu tables, %zu joins, %zu "
            "predicates",
            out->tables.rows(), out->joins.rows(), out->predicates.rows(),
            q->tables.size(), q->joins.size(), q->predicates.size());
  return Status::OK();
}

void FeatureSpace::Write(util::BinaryWriter* w) const {
  w->WriteStringVector(table_names_);
  w->WriteStringVector(join_keys_);
  w->WriteStringVector(column_keys_);
  w->WritePodVector(column_min_);
  w->WritePodVector(column_max_);
  w->WriteU64(sample_size_);
}

Result<FeatureSpace> FeatureSpace::Read(util::BinaryReader* r) {
  FeatureSpace fs;
  DS_RETURN_NOT_OK(r->ReadStringVector(&fs.table_names_));
  DS_RETURN_NOT_OK(r->ReadStringVector(&fs.join_keys_));
  DS_RETURN_NOT_OK(r->ReadStringVector(&fs.column_keys_));
  DS_RETURN_NOT_OK(r->ReadPodVector(&fs.column_min_));
  DS_RETURN_NOT_OK(r->ReadPodVector(&fs.column_max_));
  uint64_t ss = 0;
  DS_RETURN_NOT_OK(r->ReadU64(&ss));
  fs.sample_size_ = ss;
  if (fs.column_min_.size() != fs.column_keys_.size() ||
      fs.column_max_.size() != fs.column_keys_.size()) {
    return Status::ParseError("inconsistent feature space file");
  }
  for (size_t i = 0; i < fs.table_names_.size(); ++i) {
    fs.table_index_.emplace(fs.table_names_[i], i);
  }
  for (size_t i = 0; i < fs.join_keys_.size(); ++i) {
    fs.join_index_.emplace(fs.join_keys_[i], i);
  }
  for (size_t i = 0; i < fs.column_keys_.size(); ++i) {
    fs.column_index_.emplace(fs.column_keys_[i], i);
  }
  return fs;
}

}  // namespace ds::mscn
