// Independent answer checker: recomputes every query with plain loops
// over the generated table, using only the documented semantics —
// inclusive `lo <= v <= hi` ranges compared as double, histogram binning
// as `FixedHistogram::Add` documents it (clamping out-of-range values into
// the edge bins), and row pages as the first `limit` matches after
// `offset` in table order. It never calls the engine, its zone maps or
// its kernels.
#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <optional>
#include <string>
#include <vector>

#include "engine/query.h"
#include "storage/table.h"

namespace perfbench {

/// The expected result of each query of `group` over `table`; empty for
/// a query the oracle cannot answer (unknown column, join page).
std::vector<std::optional<ideval::QueryResultData>> OracleAnswers(
    const ideval::Table& table, const std::vector<ideval::Query>& group);

/// Empty when `got` is the correct answer to `query`; otherwise a
/// one-line description of the first difference. Histograms must match
/// bin for bin; a page must hold exactly the expected rows and every
/// row must satisfy every predicate.
std::string CheckAnswer(const ideval::Query& query,
                        const ideval::QueryResultData& expected,
                        const ideval::QueryResultData& got);

/// Feeds the checker known-good answers and known-bad ones (a histogram
/// with one bin off by one; a page with one row dropped) over a small
/// built-in table. Empty when every good answer is accepted and every bad
/// one refused.
std::string SelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
