// Query planner + executor.
//
// Inputs are store directories (store/store.h) and/or plain trace files.
// For a store, the planner consults the catalog before opening anything:
// a file whose timestamp range misses the query's since/until window, or
// whose chain digest rules out a *required* `chain ==` predicate (one not
// weakened by `or`/`not`), is pruned -- never read, never decoded.  The
// QueryStats counters expose exactly that, so tests can assert pruning
// happened rather than trust that it did.
//
// Execution reads each opened file in one go and lists its segments; each
// segment's header record count (bounded before anything is sized from it)
// reserves its slice of one compact row array.  The segments then decode
// in parallel on WorkerPool::shared() (inline for a query under ~64k
// rows) -- column form for v4/v5, v2/v3 decoded record-major and
// transcoded -- each straight into its slice, keeping only its string
// table and chain runs; under a required `chain ==` only that chain's runs
// are filled.  A serial pass interns the segment tables into one name
// table, groups rows per chain *across* segments and files -- rotation can
// split a chain, even a single call, and catalog order keeps sealed files
// in write order -- sorts a chain by event number only when it arrived
// out of order, stack-pairs open/close events into spans (the
// call_tree.cpp pairing, minus the tree) comparing names by id, and folds
// each span that passes the window and `where` filters straight into its
// group.  Results are deterministic: group rows are emitted in sorted key
// order, and percentiles are nearest-rank over the fully sorted latency
// vector, so worker count, shard count, compression, and varint kernel
// never change a byte of output.
#pragma once

#include <optional>
#include <string>
#include <vector>

#include "query/ast.h"

namespace causeway::query {

struct QueryStats {
  std::size_t files_total{0};      // candidate files across all inputs
  std::size_t files_pruned{0};     // skipped via the catalog
  std::size_t files_opened{0};     // read and decoded
  std::size_t segments_decoded{0};
  std::uint64_t records_scanned{0};  // every decoded record
  // Completed spans reconstructed.  Under a required `chain ==` only that
  // chain's records are paired, so only the spans the query can match.
  std::uint64_t spans_total{0};
  std::uint64_t spans_matched{0};  // passed window + where
};

struct QueryResult {
  // One column per aggregation, preceded by the group field when grouping.
  std::vector<std::string> columns;
  struct Row {
    std::string group;  // empty when the query has no group by
    // One value per aggregation; nullopt when undefined (latency stats
    // over zero latency-mode spans).
    std::vector<std::optional<double>> values;
  };
  std::vector<Row> rows;  // sorted by group key
  QueryStats stats;
};

// Runs `q` over the inputs.  Throws analysis::TraceIoError on missing or
// corrupt inputs (including a stale store catalog) and QueryError never --
// parsing already happened.
QueryResult run_query(const Query& q,
                      const std::vector<std::string>& inputs);

// Deterministic renderings shared by causeway-query and the tests.
std::string render_text(const QueryResult& r);
std::string render_csv(const QueryResult& r);

}  // namespace causeway::query
