#include "engine/predicate.h"

#include <algorithm>
#include <cstring>

#include "common/text_table.h"

namespace ideval {

const std::string& PredicateColumn(const Predicate& predicate) {
  if (const auto* r = std::get_if<RangePredicate>(&predicate)) {
    return r->column;
  }
  if (const auto* eq = std::get_if<StringEqPredicate>(&predicate)) {
    return eq->column;
  }
  return std::get<StringInPredicate>(predicate).column;
}

std::string PredicateToString(const Predicate& predicate) {
  if (const auto* r = std::get_if<RangePredicate>(&predicate)) {
    return StrFormat("%s >= %g AND %s <= %g", r->column.c_str(), r->lo,
                     r->column.c_str(), r->hi);
  }
  if (const auto* eq = std::get_if<StringEqPredicate>(&predicate)) {
    return StrFormat("%s = '%s'", eq->column.c_str(), eq->value.c_str());
  }
  const auto& in = std::get<StringInPredicate>(predicate);
  std::string out = in.column + " IN (";
  for (size_t i = 0; i < in.values.size(); ++i) {
    if (i) out += ", ";
    out += "'" + in.values[i] + "'";
  }
  out += ")";
  return out;
}

Result<CompiledPredicates> CompiledPredicates::Compile(
    const Table& table, const std::vector<Predicate>& predicates) {
  CompiledPredicates out;
  for (const auto& p : predicates) {
    if (const auto* r = std::get_if<RangePredicate>(&p)) {
      IDEVAL_ASSIGN_OR_RETURN(size_t idx,
                              table.schema().FieldIndex(r->column));
      const DataType type = table.schema().field(idx).type;
      if (type == DataType::kString) {
        return Status::InvalidArgument("range predicate on string column '" +
                                       r->column + "'");
      }
      CompiledRange compiled;
      if (type == DataType::kInt64) {
        compiled.int64_data = table.column(idx).int64_data().data();
      } else {
        compiled.double_data = table.column(idx).double_data().data();
      }
      compiled.lo = r->lo;
      compiled.hi = r->hi;
      if (compiled.int64_data != nullptr) {
        compiled.i64_bounds = WidenedRangeToI64(r->lo, r->hi);
      }
      compiled.column = idx;
      out.ranges_.push_back(compiled);
    } else if (const auto* eq = std::get_if<StringEqPredicate>(&p)) {
      IDEVAL_ASSIGN_OR_RETURN(size_t idx,
                              table.schema().FieldIndex(eq->column));
      if (table.schema().field(idx).type != DataType::kString) {
        return Status::InvalidArgument(
            "string-equality predicate on non-string column '" + eq->column +
            "'");
      }
      out.string_eqs_.push_back(
          CompiledStringEq{&table.column(idx).string_data(), eq->value});
    } else {
      const auto& in = std::get<StringInPredicate>(p);
      IDEVAL_ASSIGN_OR_RETURN(size_t idx,
                              table.schema().FieldIndex(in.column));
      if (table.schema().field(idx).type != DataType::kString) {
        return Status::InvalidArgument(
            "string-membership predicate on non-string column '" +
            in.column + "'");
      }
      if (in.values.empty()) {
        return Status::InvalidArgument(
            "string-membership predicate needs at least one value");
      }
      out.string_ins_.push_back(
          CompiledStringIn{&table.column(idx).string_data(), in.values});
    }
  }
  return out;
}

void CompiledPredicates::EvalMask(const KernelOps& ops, size_t row_begin,
                                  int64_t n, uint8_t* mask) const {
  bool first = true;
  for (const auto& r : ranges_) {
    if (r.int64_data != nullptr) {
      const int64_t* v = r.int64_data + row_begin;
      if (first) {
        ops.range_mask_i64(v, n, r.i64_bounds.lo, r.i64_bounds.hi, mask);
      } else {
        ops.range_mask_and_i64(v, n, r.i64_bounds.lo, r.i64_bounds.hi,
                               mask);
      }
    } else {
      const double* v = r.double_data + row_begin;
      if (first) {
        ops.range_mask_f64(v, n, r.lo, r.hi, mask);
      } else {
        ops.range_mask_and_f64(v, n, r.lo, r.hi, mask);
      }
    }
    first = false;
  }
  if (first) std::memset(mask, 1, static_cast<size_t>(n));
  for (const auto& eq : string_eqs_) {
    const std::vector<std::string>& data = *eq.data;
    for (int64_t i = 0; i < n; ++i) {
      if (mask[i] && data[row_begin + i] != eq.value) mask[i] = 0;
    }
  }
  for (const auto& in : string_ins_) {
    const std::vector<std::string>& data = *in.data;
    for (int64_t i = 0; i < n; ++i) {
      if (!mask[i]) continue;
      const std::string& cell = data[row_begin + i];
      bool found = false;
      for (const auto& v : in.values) {
        if (cell == v) {
          found = true;
          break;
        }
      }
      if (!found) mask[i] = 0;
    }
  }
}

}  // namespace ideval
