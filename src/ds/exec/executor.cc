#include "ds/exec/executor.h"

#include <algorithm>
#include <unordered_map>
#include <vector>

#include "ds/exec/predicate.h"

namespace ds::exec {

namespace {

// Per-table state during execution.
struct TableState {
  const storage::Table* table = nullptr;
  std::vector<uint32_t> rows;  // rows qualifying the table's predicates
};

// Join key for a row; null keys are reported via the bool.
inline bool JoinKey(const storage::Column& col, uint32_t row, int64_t* key) {
  if (col.IsNull(row)) return false;
  // Join columns are PK/FK ids (int64 or categorical codes); float joins are
  // rejected at bind time.
  *key = col.GetInt(row);
  return true;
}

// Filters `table` through the column-at-a-time bitmap kernel and compacts
// the qualifying row ids into `rows` (ascending); `bitmap` is reused
// working space.
void QualifyingRows(const storage::Table& table,
                    const std::vector<BoundPredicate>& preds,
                    std::vector<uint8_t>* bitmap,
                    std::vector<uint32_t>* rows) {
  QualifyingBitmapInto(table, preds, bitmap);
  const size_t n = bitmap->size();
  rows->resize(n);
  uint32_t* out = rows->data();
  size_t kept = 0;
  for (size_t r = 0; r < n; ++r) {
    out[kept] = static_cast<uint32_t>(r);
    kept += (*bitmap)[r];
  }
  rows->resize(kept);
}

// Hash index over one join step's build rows: an open-addressing table of
// (key, chain head, chain length) slots plus a single `next` link per build
// row, so building costs three flat arrays instead of one heap vector per
// distinct key. Chains list build rows in ascending row order.
class JoinIndex {
 public:
  static constexpr uint32_t kEnd = UINT32_MAX;

  // Indexes `rows` (which must outlive the index) by their key in `col`;
  // rows with a NULL key can never join and are left out.
  JoinIndex(const storage::Column& col, const std::vector<uint32_t>& rows)
      : rows_(rows) {
    size_t capacity = 16;
    while (capacity < 2 * rows.size()) capacity *= 2;
    mask_ = capacity - 1;
    shift_ = 64;
    for (size_t c = capacity; c > 1; c >>= 1) --shift_;
    slots_.assign(capacity, Slot{0, kEnd, 0});
    next_.resize(rows.size());
    // Walk backwards so that prepending leaves each chain ascending.
    for (size_t i = rows.size(); i-- > 0;) {
      int64_t key;
      if (!JoinKey(col, rows[i], &key)) continue;
      Slot& s = slots_[Probe(key)];
      s.key = key;
      next_[i] = s.head;
      s.head = static_cast<uint32_t>(i);
      ++s.size;
    }
  }

  // First build position with `key` (kEnd if none); its chain length goes
  // to `*size`.
  uint32_t Find(int64_t key, uint32_t* size) const {
    const Slot& s = slots_[Probe(key)];
    *size = s.size;
    return s.head;
  }

  uint32_t next(uint32_t pos) const { return next_[pos]; }
  uint32_t row(uint32_t pos) const { return rows_[pos]; }

 private:
  struct Slot {
    int64_t key;
    uint32_t head;  // first build position with this key; kEnd = empty slot
    uint32_t size;  // chain length
  };

  // Linear probe from the key's Fibonacci hash to its slot or an empty one.
  size_t Probe(int64_t key) const {
    size_t i = static_cast<size_t>(
        (static_cast<uint64_t>(key) * 0x9E3779B97F4A7C15ull) >> shift_);
    while (slots_[i].head != kEnd && slots_[i].key != key) {
      i = (i + 1) & mask_;
    }
    return i;
  }

  const std::vector<uint32_t>& rows_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> next_;  // next build position with the same key
  size_t mask_ = 0;
  int shift_ = 0;
};

}  // namespace

Result<uint64_t> Executor::Count(const workload::QuerySpec& spec) const {
  DS_RETURN_NOT_OK(spec.Validate(*catalog_));

  // 1. Scan + filter every base table.
  std::unordered_map<std::string, TableState> states;
  std::vector<BoundPredicate> bound;
  std::vector<uint8_t> bitmap;
  for (const auto& name : spec.tables) {
    TableState st;
    DS_ASSIGN_OR_RETURN(st.table, catalog_->GetTable(name));
    DS_RETURN_NOT_OK(
        BindPredicatesInto(*st.table, name, spec.predicates, &bound));
    QualifyingRows(*st.table, bound, &bitmap, &st.rows);
    states.emplace(name, std::move(st));
  }

  // Reject float join columns early.
  for (const auto& j : spec.joins) {
    for (const auto& [tname, cname] :
         {std::pair{j.left_table, j.left_column},
          std::pair{j.right_table, j.right_column}}) {
      DS_ASSIGN_OR_RETURN(const storage::Table* t, catalog_->GetTable(tname));
      DS_ASSIGN_OR_RETURN(const storage::Column* c, t->GetColumn(cname));
      if (c->type() == storage::ColumnType::kFloat64) {
        return Status::InvalidArgument("float join column " + tname + "." +
                                       cname + " is unsupported");
      }
    }
  }

  if (spec.tables.size() == 1) {
    return static_cast<uint64_t>(states[spec.tables[0]].rows.size());
  }

  // 2. Pick a greedy connected join order, starting from the most selective
  // table. `position` maps a joined table to its slot in the tuples.
  std::vector<std::string> order;
  std::unordered_map<std::string, size_t> position;
  {
    std::string start = spec.tables[0];
    for (const auto& name : spec.tables) {
      if (states[name].rows.size() < states[start].rows.size()) start = name;
    }
    order.push_back(start);
    position[start] = 0;
    while (order.size() < spec.tables.size()) {
      bool advanced = false;
      for (const auto& j : spec.joins) {
        const bool l_in = position.count(j.left_table) > 0;
        const bool r_in = position.count(j.right_table) > 0;
        if (l_in == r_in) continue;
        const std::string& next = l_in ? j.right_table : j.left_table;
        position[next] = order.size();
        order.push_back(next);
        advanced = true;
        break;
      }
      // Validate() guarantees connectivity, so we always advance.
      DS_CHECK(advanced);
    }
  }

  // 3. Left-deep hash joins. Every step but the last materializes row-id
  // tuples; the last only counts its matches.
  const size_t width_final = order.size();
  std::vector<uint32_t> tuples = std::move(states[order[0]].rows);
  size_t stride = 1;  // grows as tables join

  std::vector<bool> edge_used(spec.joins.size(), false);

  for (size_t step = 1;; ++step) {  // width_final >= 2; the last step returns
    const std::string& next = order[step];
    const TableState& next_state = states[next];

    // Partition this step's join edges into the primary build edge and
    // residual filter edges (cycles / multiple edges to the new table).
    int primary = -1;
    std::vector<size_t> residual;
    for (size_t e = 0; e < spec.joins.size(); ++e) {
      if (edge_used[e]) continue;
      const auto& j = spec.joins[e];
      const bool touches_next =
          j.left_table == next || j.right_table == next;
      const std::string& other =
          j.left_table == next ? j.right_table : j.left_table;
      if (!touches_next || position.count(other) == 0 ||
          position[other] >= step) {
        continue;
      }
      if (primary < 0) {
        primary = static_cast<int>(e);
      } else {
        residual.push_back(e);
      }
      edge_used[e] = true;
    }
    DS_CHECK_GE(primary, 0);
    const auto& pj = spec.joins[static_cast<size_t>(primary)];
    const bool next_is_left = pj.left_table == next;
    const std::string& inner_col_name =
        next_is_left ? pj.left_column : pj.right_column;
    const std::string& outer_table =
        next_is_left ? pj.right_table : pj.left_table;
    const std::string& outer_col_name =
        next_is_left ? pj.right_column : pj.left_column;

    DS_ASSIGN_OR_RETURN(const storage::Column* inner_col,
                        next_state.table->GetColumn(inner_col_name));
    DS_ASSIGN_OR_RETURN(const storage::Column* outer_col,
                        states[outer_table].table->GetColumn(outer_col_name));
    const size_t outer_slot = position[outer_table];

    // Build the hash index over the new table's qualifying rows.
    const JoinIndex index(*inner_col, next_state.rows);

    // Resolve residual edge endpoints once.
    struct Residual {
      const storage::Column* next_col;
      const storage::Column* other_col;
      size_t other_slot;
    };
    std::vector<Residual> res_bound;
    for (size_t e : residual) {
      const auto& j = spec.joins[e];
      const bool n_left = j.left_table == next;
      const std::string& n_col = n_left ? j.left_column : j.right_column;
      const std::string& o_table = n_left ? j.right_table : j.left_table;
      const std::string& o_col = n_left ? j.right_column : j.left_column;
      Residual rb;
      DS_ASSIGN_OR_RETURN(rb.next_col, next_state.table->GetColumn(n_col));
      DS_ASSIGN_OR_RETURN(rb.other_col,
                          states[o_table].table->GetColumn(o_col));
      rb.other_slot = position[o_table];
      res_bound.push_back(rb);
    }
    auto residuals_pass = [&](const uint32_t* tuple, uint32_t r) {
      for (const auto& rb : res_bound) {
        int64_t a, b;
        if (!JoinKey(*rb.next_col, r, &a) ||
            !JoinKey(*rb.other_col, tuple[rb.other_slot], &b) || a != b) {
          return false;
        }
      }
      return true;
    };

    // Probe. The guard caps the tuples this step produces, whether they are
    // materialized or only counted.
    const bool last = step + 1 == width_final;
    const uint64_t limit = options_.max_intermediate_tuples;
    uint64_t produced = 0;
    std::vector<uint32_t> out;
    const size_t num_tuples = tuples.size() / stride;
    for (size_t t = 0; t < num_tuples; ++t) {
      const uint32_t* tuple = tuples.data() + t * stride;
      int64_t key;
      if (!JoinKey(*outer_col, tuple[outer_slot], &key)) continue;
      uint32_t chain_size = 0;
      const uint32_t head = index.Find(key, &chain_size);
      if (last && res_bound.empty()) {
        produced += chain_size;
      } else {
        for (uint32_t pos = head; pos != JoinIndex::kEnd;
             pos = index.next(pos)) {
          const uint32_t r = index.row(pos);
          if (!residuals_pass(tuple, r)) continue;
          ++produced;
          if (!last) {
            out.insert(out.end(), tuple, tuple + stride);
            out.push_back(r);
          }
        }
      }
      if (produced > limit) {
        return Status::OutOfRange(
            "intermediate result exceeds max_intermediate_tuples");
      }
    }
    if (last || produced == 0) return produced;
    tuples = std::move(out);
    stride += 1;
  }
}

}  // namespace ds::exec
