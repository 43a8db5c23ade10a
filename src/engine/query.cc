#include "engine/query.h"

#include "common/text_table.h"

namespace ideval {

namespace {

std::string PredicatesToString(const std::vector<Predicate>& predicates) {
  std::string out;
  for (size_t i = 0; i < predicates.size(); ++i) {
    if (i) out += " AND ";
    out += PredicateToString(predicates[i]);
  }
  return out;
}

// Builds a `QueryKey`: strings carry their length and every field ends
// in ';', so a key decodes back to exactly one field sequence.
struct KeyWriter {
  std::string out;

  KeyWriter& operator<<(const std::string& s) {
    out += std::to_string(s.size()) + ':' + s + ';';
    return *this;
  }
  KeyWriter& operator<<(int64_t v) {
    out += std::to_string(v) + ';';
    return *this;
  }
  KeyWriter& operator<<(double v) {
    out += StrFormat("%a;", v);  // Bit-exact.
    return *this;
  }
  KeyWriter& operator<<(const Predicate& p) {
    if (const auto* r = std::get_if<RangePredicate>(&p)) {
      return *this << "range" << r->column << r->lo << r->hi;
    }
    if (const auto* eq = std::get_if<StringEqPredicate>(&p)) {
      return *this << "eq" << eq->column << eq->value;
    }
    const auto& in = std::get<StringInPredicate>(p);
    return *this << "in" << in.column << in.values;
  }
  template <typename T>
  KeyWriter& operator<<(const std::vector<T>& items) {
    *this << static_cast<int64_t>(items.size());
    for (const T& item : items) *this << item;
    return *this;
  }
};

}  // namespace

std::string QueryKey(const Query& query) {
  KeyWriter key;
  if (const auto* s = std::get_if<SelectQuery>(&query)) {
    key << "select" << s->table << s->columns << s->predicates << s->limit
        << s->offset;
  } else if (const auto* h = std::get_if<HistogramQuery>(&query)) {
    key << "histogram" << h->table << h->bin_column << h->bin_lo
        << h->bin_hi << h->bins << h->predicates;
  } else {
    const auto& j = std::get<JoinPageQuery>(query);
    key << "join" << j.left_table << j.right_table << j.join_column
        << j.limit << j.offset;
  }
  return std::move(key.out);
}

std::string QueryToString(const Query& query) {
  if (const auto* s = std::get_if<SelectQuery>(&query)) {
    std::string cols = "*";
    if (!s->columns.empty()) {
      cols.clear();
      for (size_t i = 0; i < s->columns.size(); ++i) {
        if (i) cols += ", ";
        cols += s->columns[i];
      }
    }
    std::string out =
        StrFormat("SELECT %s FROM %s", cols.c_str(), s->table.c_str());
    if (!s->predicates.empty()) {
      out += " WHERE " + PredicatesToString(s->predicates);
    }
    if (s->limit >= 0) {
      out += StrFormat(" LIMIT %lld", static_cast<long long>(s->limit));
    }
    if (s->offset > 0) {
      out += StrFormat(" OFFSET %lld", static_cast<long long>(s->offset));
    }
    return out;
  }
  if (const auto* h = std::get_if<HistogramQuery>(&query)) {
    std::string out = StrFormat(
        "SELECT ROUND((%s - %g) / ((%g - %g) / %lld)), COUNT(*) FROM %s",
        h->bin_column.c_str(), h->bin_lo, h->bin_hi, h->bin_lo,
        static_cast<long long>(h->bins), h->table.c_str());
    if (!h->predicates.empty()) {
      out += " WHERE " + PredicatesToString(h->predicates);
    }
    out += " GROUP BY 1 ORDER BY 1";
    return out;
  }
  const auto& j = std::get<JoinPageQuery>(query);
  return StrFormat(
      "SELECT * FROM (SELECT * FROM %s LIMIT %lld OFFSET %lld) tmp "
      "INNER JOIN %s ON tmp.%s = %s.%s",
      j.left_table.c_str(), static_cast<long long>(j.limit),
      static_cast<long long>(j.offset), j.right_table.c_str(),
      j.join_column.c_str(), j.right_table.c_str(), j.join_column.c_str());
}

QueryWorkStats& QueryWorkStats::operator+=(const QueryWorkStats& o) {
  tuples_scanned += o.tuples_scanned;
  tuples_matched += o.tuples_matched;
  predicates_evaluated += o.predicates_evaluated;
  blocks_scanned += o.blocks_scanned;
  blocks_pruned += o.blocks_pruned;
  morsels_executed += o.morsels_executed;
  pages_requested += o.pages_requested;
  pages_missed += o.pages_missed;
  groups_built += o.groups_built;
  hash_build_rows += o.hash_build_rows;
  hash_probe_rows += o.hash_probe_rows;
  rows_output += o.rows_output;
  bytes_output += o.bytes_output;
  return *this;
}

}  // namespace ideval
