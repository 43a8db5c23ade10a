#include "oracle.h"

#include <algorithm>
#include <cstdio>
#include <variant>

namespace perfbench {

using ideval::Column;
using ideval::DataType;
using ideval::FixedHistogram;
using ideval::Predicate;
using ideval::QueryResultData;
using ideval::Result;
using ideval::RowSet;
using ideval::Status;
using ideval::Table;
using ideval::Value;

namespace {

/// Predicates bound to their columns: numeric ranges as raw column
/// pointers (compared as double), string predicates as value lists.
struct Bound {
  struct Range {
    const double* dbl = nullptr;
    const int64_t* i64 = nullptr;
    double lo = 0.0, hi = 0.0;
  };
  struct Strings {
    const std::vector<std::string>* cells = nullptr;
    std::vector<std::string> allowed;
  };
  std::vector<Range> ranges;
  std::vector<Strings> strings;
  bool never = false;  ///< A predicate no row can satisfy (type mismatch).

  bool Matches(size_t row) const {
    for (const Range& r : ranges) {
      const double v =
          r.dbl != nullptr ? r.dbl[row] : static_cast<double>(r.i64[row]);
      if (!(r.lo <= v && v <= r.hi)) return false;
    }
    for (const Strings& s : strings) {
      const std::string& cell = (*s.cells)[row];
      if (std::find(s.allowed.begin(), s.allowed.end(), cell) ==
          s.allowed.end()) {
        return false;
      }
    }
    return !never;
  }
};

Result<Bound> Bind(const Table& table, const std::vector<Predicate>& preds) {
  Bound out;
  for (const Predicate& p : preds) {
    IDEVAL_ASSIGN_OR_RETURN(const Column* c,
                            table.ColumnByName(ideval::PredicateColumn(p)));
    if (const auto* r = std::get_if<ideval::RangePredicate>(&p)) {
      if (c->type() == DataType::kString) {
        out.never = true;
      } else if (c->type() == DataType::kInt64) {
        out.ranges.push_back({nullptr, c->int64_data().data(), r->lo, r->hi});
      } else {
        out.ranges.push_back({c->double_data().data(), nullptr, r->lo, r->hi});
      }
      continue;
    }
    if (c->type() != DataType::kString) {
      out.never = true;
      continue;
    }
    Bound::Strings s{&c->string_data(), {}};
    if (const auto* e = std::get_if<ideval::StringEqPredicate>(&p)) {
      s.allowed = {e->value};
    } else {
      s.allowed = std::get<ideval::StringInPredicate>(p).values;
    }
    out.strings.push_back(std::move(s));
  }
  return out;
}

/// The bin `FixedHistogram::Add` documents for `v`: floor of the offset
/// in bin widths, clamped into [0, bins).
size_t BinOf(double v, double lo, double hi, size_t bins) {
  const double w = (hi - lo) / static_cast<double>(bins);
  const double idx = (v - lo) / w;
  if (idx < 0.0) return 0;
  if (idx >= static_cast<double>(bins)) return bins - 1;
  return static_cast<size_t>(idx);
}

/// The rows, in table order, that satisfy every predicate.
Result<std::vector<uint32_t>> MatchingRows(
    const Table& table, const std::vector<Predicate>& preds) {
  IDEVAL_ASSIGN_OR_RETURN(Bound bound, Bind(table, preds));
  const size_t n = table.num_rows();
  std::vector<uint8_t> mask(n, bound.never ? 0 : 1);
  // Column at a time: one pass per predicate.
  for (const Bound::Range& r : bound.ranges) {
    if (r.dbl != nullptr) {
      for (size_t row = 0; row < n; ++row) {
        mask[row] &= static_cast<uint8_t>((r.lo <= r.dbl[row]) &
                                          (r.dbl[row] <= r.hi));
      }
    } else {
      for (size_t row = 0; row < n; ++row) {
        const double v = static_cast<double>(r.i64[row]);
        mask[row] &= static_cast<uint8_t>((r.lo <= v) & (v <= r.hi));
      }
    }
  }
  for (const Bound::Strings& str : bound.strings) {
    for (size_t row = 0; row < n; ++row) {
      if (mask[row] && std::find(str.allowed.begin(), str.allowed.end(),
                                 (*str.cells)[row]) == str.allowed.end()) {
        mask[row] = 0;
      }
    }
  }
  std::vector<uint32_t> rows(n);
  size_t k = 0;
  for (size_t row = 0; row < n; ++row) {
    rows[k] = static_cast<uint32_t>(row);
    k += mask[row];
  }
  rows.resize(k);
  return rows;
}

Result<QueryResultData> BinRows(const Table& table,
                                const ideval::HistogramQuery& q,
                                const std::vector<uint32_t>& rows) {
  if (q.bins < 1 || !(q.bin_lo < q.bin_hi)) {
    return Status::InvalidArgument("oracle: bad histogram shape");
  }
  IDEVAL_ASSIGN_OR_RETURN(const Column* bin_col,
                          table.ColumnByName(q.bin_column));
  if (bin_col->type() == DataType::kString) {
    return Status::InvalidArgument("oracle: string bin column");
  }
  const size_t bins = static_cast<size_t>(q.bins);
  std::vector<double> counts(bins, 0.0);
  if (bin_col->type() == DataType::kDouble) {
    const double* v = bin_col->double_data().data();
    for (uint32_t row : rows) {
      counts[BinOf(v[row], q.bin_lo, q.bin_hi, bins)] += 1.0;
    }
  } else {
    const int64_t* v = bin_col->int64_data().data();
    for (uint32_t row : rows) {
      counts[BinOf(static_cast<double>(v[row]), q.bin_lo, q.bin_hi, bins)] +=
          1.0;
    }
  }
  IDEVAL_ASSIGN_OR_RETURN(
      FixedHistogram h,
      FixedHistogram::FromCounts(q.bin_lo, q.bin_hi, std::move(counts)));
  return QueryResultData(std::move(h));
}

Result<QueryResultData> AnswerSelect(const Table& table,
                                     const ideval::SelectQuery& q) {
  IDEVAL_ASSIGN_OR_RETURN(Bound preds, Bind(table, q.predicates));
  RowSet out;
  std::vector<size_t> cols;
  if (q.columns.empty()) {
    for (size_t c = 0; c < table.num_columns(); ++c) {
      cols.push_back(c);
      out.column_names.push_back(table.schema().field(c).name);
    }
  } else {
    for (const std::string& name : q.columns) {
      IDEVAL_ASSIGN_OR_RETURN(size_t c, table.schema().FieldIndex(name));
      cols.push_back(c);
      out.column_names.push_back(name);
    }
  }
  const int64_t skip = std::max<int64_t>(0, q.offset);
  const int64_t limit = q.limit < 0 ? static_cast<int64_t>(table.num_rows())
                                    : q.limit;
  int64_t matched = 0;
  for (size_t row = 0; row < table.num_rows(); ++row) {
    if (static_cast<int64_t>(out.rows.size()) >= limit) break;
    if (!preds.Matches(row)) continue;
    if (matched++ < skip) continue;
    std::vector<Value> r;
    for (size_t c : cols) r.push_back(table.At(row, c));
    out.rows.push_back(std::move(r));
  }
  return QueryResultData(std::move(out));
}

std::string Fmt(const char* fmt, double a, double b, double c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), fmt, a, b, c);
  return buf;
}

}  // namespace

std::vector<std::optional<QueryResultData>> OracleAnswers(
    const Table& table, const std::vector<ideval::Query>& group) {
  std::vector<std::optional<QueryResultData>> out;
  // Histograms of one crossfilter interaction share their filter, so the
  // matching rows are found once per distinct predicate list.
  const std::vector<Predicate>* rows_preds = nullptr;
  std::vector<uint32_t> rows;
  for (const ideval::Query& q : group) {
    Result<QueryResultData> a = Status::Unimplemented("oracle: join pages");
    if (const auto* h = std::get_if<ideval::HistogramQuery>(&q)) {
      if (rows_preds == nullptr || !(*rows_preds == h->predicates)) {
        auto m = MatchingRows(table, h->predicates);
        rows_preds = m.ok() ? &h->predicates : nullptr;
        rows = m.ok() ? std::move(*m) : std::vector<uint32_t>();
      }
      a = rows_preds != nullptr ? BinRows(table, *h, rows)
                                : Result<QueryResultData>(Status::InvalidArgument(
                                      "oracle: unknown predicate column"));
    } else if (const auto* sq = std::get_if<ideval::SelectQuery>(&q)) {
      a = AnswerSelect(table, *sq);
    }
    out.push_back(a.ok() ? std::optional(std::move(*a)) : std::nullopt);
  }
  return out;
}

std::string CheckAnswer(const ideval::Query& query,
                        const QueryResultData& expected,
                        const QueryResultData& got) {
  if (expected.index() != got.index()) return "result shape differs";
  if (const auto* want = std::get_if<FixedHistogram>(&expected)) {
    const auto& have = std::get<FixedHistogram>(got);
    if (have.num_bins() != want->num_bins() || have.lo() != want->lo() ||
        have.hi() != want->hi()) {
      return "histogram domain differs";
    }
    for (size_t i = 0; i < want->num_bins(); ++i) {
      if (have.count(i) != want->count(i)) {
        return Fmt("histogram bin %.0f: got %.0f, want %.0f",
                   static_cast<double>(i), have.count(i), want->count(i));
      }
    }
    return "";
  }
  const auto& want = std::get<RowSet>(expected);
  const auto& have = std::get<RowSet>(got);
  if (have.column_names != want.column_names) return "page columns differ";
  // Every returned row must satisfy every predicate, whatever else.
  const auto& sq = std::get<ideval::SelectQuery>(query);
  for (const Predicate& p : sq.predicates) {
    auto col = std::find(have.column_names.begin(), have.column_names.end(),
                         ideval::PredicateColumn(p));
    if (col == have.column_names.end()) continue;
    const size_t c = static_cast<size_t>(col - have.column_names.begin());
    for (size_t r = 0; r < have.rows.size(); ++r) {
      const Value& v = have.rows[r][c];
      bool ok;
      if (const auto* rp = std::get_if<ideval::RangePredicate>(&p)) {
        ok = !v.is_string() && rp->lo <= v.AsDouble() && v.AsDouble() <= rp->hi;
      } else if (const auto* e = std::get_if<ideval::StringEqPredicate>(&p)) {
        ok = v.is_string() && v.str() == e->value;
      } else {
        const auto& in = std::get<ideval::StringInPredicate>(p);
        ok = v.is_string() && std::find(in.values.begin(), in.values.end(),
                                        v.str()) != in.values.end();
      }
      if (!ok) {
        return "page row " + std::to_string(r) + " violates " +
               ideval::PredicateToString(p);
      }
    }
  }
  if (have.rows.size() != want.rows.size()) {
    return "page holds " + std::to_string(have.rows.size()) +
           " rows, want " + std::to_string(want.rows.size());
  }
  for (size_t r = 0; r < want.rows.size(); ++r) {
    if (have.rows[r] != want.rows[r]) {
      return "page row " + std::to_string(r) + " differs";
    }
  }
  return "";
}

std::string SelfTest() {
  // A small table with every column type the workloads filter on.
  ideval::Schema schema({{"x", DataType::kDouble},
                         {"k", DataType::kInt64},
                         {"s", DataType::kString}});
  ideval::TableBuilder builder("selftest", schema);
  for (int64_t i = 0; i < 2000; ++i) {
    builder.MustAppendRow({Value(static_cast<double>((i * 7919) % 1000) / 10.0),
                           Value(i % 13),
                           Value(i % 3 == 0 ? "a" : "b")});
  }
  auto table = std::move(builder).Finish();
  if (!table.ok()) return "self-test table: " + table.status().ToString();
  const Table& t = **table;

  ideval::HistogramQuery hq;
  hq.table = "selftest";
  hq.bin_column = "x";
  hq.bin_lo = 10.0;
  hq.bin_hi = 90.0;
  hq.bins = 20;
  hq.predicates = {ideval::RangePredicate{"k", 2.0, 9.0}};
  ideval::SelectQuery sq;
  sq.table = "selftest";
  sq.predicates = {ideval::RangePredicate{"x", 20.0, 60.0},
                   ideval::StringEqPredicate{"s", "a"}};
  sq.limit = 18;

  auto answers = OracleAnswers(t, {hq, sq});
  if (!answers[0].has_value() || !answers[1].has_value()) {
    return "self-test oracle failed to answer";
  }
  const QueryResultData* h = &*answers[0];
  const QueryResultData* p = &*answers[1];
  const auto& hist = std::get<FixedHistogram>(*h);
  const auto& page = std::get<RowSet>(*p);
  if (hist.total() <= 0.0 || page.rows.size() != 18) {
    return "self-test inputs are degenerate";
  }
  if (!CheckAnswer(hq, *h, *h).empty() ||
      !CheckAnswer(sq, *p, *p).empty()) {
    return "self-test: a correct answer was refused";
  }
  std::vector<double> counts = hist.counts();
  counts[7] += 1.0;
  auto bad_hist = FixedHistogram::FromCounts(hist.lo(), hist.hi(), counts);
  if (!bad_hist.ok()) return "self-test: cannot build corrupted histogram";
  if (CheckAnswer(hq, *h, QueryResultData(*bad_hist)).empty()) {
    return "self-test: a histogram with one bin off by one passed";
  }
  RowSet dropped = page;
  dropped.rows.erase(dropped.rows.begin() + 5);
  if (CheckAnswer(sq, *p, QueryResultData(dropped)).empty()) {
    return "self-test: a page with one row dropped passed";
  }
  return "";
}

}  // namespace perfbench
