// Query-subsystem acceptance: tokenizer and parser (including every
// type-checking rejection), span pairing and aggregation semantics (also
// across segments, out of event order, and from v3 segments), the bounded
// header record count, and the catalog-driven planner pruning -- asserted
// through the QueryStats counters, not trusted.
#include "query/parser.h"

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "analysis/trace_io.h"
#include "common/wire.h"
#include "query/engine.h"
#include "store/store.h"

namespace causeway::query {
namespace {

namespace fs = std::filesystem;

// ---------------------------------------------------------------- tokenizer

TEST(Tokenize, WordsOpsStringsAndParens) {
  const auto tokens = tokenize("count where iface == 'My::Iface' and x>=3us");
  std::vector<Token::Kind> kinds;
  for (const Token& t : tokens) kinds.push_back(t.kind);
  EXPECT_EQ(kinds, (std::vector<Token::Kind>{
                       Token::Kind::kWord, Token::Kind::kWord,
                       Token::Kind::kWord, Token::Kind::kOp,
                       Token::Kind::kString, Token::Kind::kWord,
                       Token::Kind::kWord, Token::Kind::kOp,
                       Token::Kind::kWord, Token::Kind::kEnd}));
  EXPECT_EQ(tokens[3].text, "==");
  EXPECT_EQ(tokens[4].text, "My::Iface");
  EXPECT_EQ(tokens[7].text, ">=");
  EXPECT_EQ(tokens[8].text, "3us");
}

TEST(Tokenize, RejectsUnterminatedStringAndStrayChars) {
  EXPECT_THROW(tokenize("count where iface == 'oops"), QueryError);
  EXPECT_THROW(tokenize("count ; drop"), QueryError);
  try {
    tokenize("count @");
    FAIL();
  } catch (const QueryError& e) {
    EXPECT_EQ(e.pos(), 6u);
    EXPECT_NE(std::string(e.what()).find("offset 6"), std::string::npos);
  }
}

// ------------------------------------------------------------------ parser

TEST(Parse, AggListWindowAndGroupBy) {
  const Query q = parse_query(
      "count, p95(latency), sum(latency) "
      "where iface == A::B group by func since 10us until 2ms");
  ASSERT_EQ(q.aggs.size(), 3u);
  EXPECT_EQ(q.aggs[0], AggFunc::kCount);
  EXPECT_EQ(q.aggs[1], AggFunc::kP95);
  EXPECT_EQ(q.aggs[2], AggFunc::kSum);
  ASSERT_TRUE(q.where);
  EXPECT_EQ(q.where->kind, Expr::Kind::kPred);
  EXPECT_EQ(q.where->pred.field, Field::kIface);
  EXPECT_EQ(q.where->pred.text, "A::B");
  ASSERT_TRUE(q.group_by.has_value());
  EXPECT_EQ(*q.group_by, Field::kFunc);
  EXPECT_EQ(q.since, std::optional<std::int64_t>(10'000));
  EXPECT_EQ(q.until, std::optional<std::int64_t>(2'000'000));
}

TEST(Parse, BooleanStructureAndNot) {
  const Query q = parse_query(
      "count where (iface =~ snap or func == get) and not outcome == ok");
  ASSERT_TRUE(q.where);
  ASSERT_EQ(q.where->kind, Expr::Kind::kAnd);
  ASSERT_EQ(q.where->args.size(), 2u);
  EXPECT_EQ(q.where->args[0]->kind, Expr::Kind::kOr);
  EXPECT_EQ(q.where->args[1]->kind, Expr::Kind::kNot);
  EXPECT_EQ(q.where->args[1]->args[0]->pred.field, Field::kOutcome);
}

TEST(Parse, NumberUnitsAndLatencyThreshold) {
  const Query q = parse_query("count where latency > 5ms");
  EXPECT_EQ(q.where->pred.number, 5'000'000);
  EXPECT_EQ(parse_query("count where latency > 7").where->pred.number, 7);
  EXPECT_EQ(parse_query("count where latency > 2s").where->pred.number,
            2'000'000'000);
}

TEST(Parse, ChainPredicateParsesUuid) {
  const Query q = parse_query(
      "count where chain == 01234567-89ab-cdef-0011-223344556677");
  EXPECT_EQ(q.where->pred.field, Field::kChain);
  EXPECT_EQ(q.where->pred.chain.hi, 0x0123456789abcdefull);
  EXPECT_EQ(q.where->pred.chain.lo, 0x0011223344556677ull);
}

TEST(Parse, RejectsMalformedQueries) {
  EXPECT_THROW(parse_query(""), QueryError);
  EXPECT_THROW(parse_query("frobnicate"), QueryError);          // unknown agg
  EXPECT_THROW(parse_query("p95"), QueryError);                 // missing (latency)
  EXPECT_THROW(parse_query("count where bogus == 1"), QueryError);
  EXPECT_THROW(parse_query("count where iface < x"), QueryError);   // order on string
  EXPECT_THROW(parse_query("count where latency =~ 3"), QueryError);  // match on num
  EXPECT_THROW(parse_query("count where chain > 1-2-3-4-5"), QueryError);
  EXPECT_THROW(parse_query("count where chain == notauuid"), QueryError);
  EXPECT_THROW(parse_query("count group by latency"), QueryError);  // numeric group
  EXPECT_THROW(parse_query("count where a == b where c == d"), QueryError);
  EXPECT_THROW(parse_query("count since 10 until 5"), QueryError);  // empty window
  EXPECT_THROW(parse_query("count where (iface == x"), QueryError);  // unclosed
  EXPECT_THROW(parse_query("count extra"), QueryError);  // trailing garbage
}

// ------------------------------------------------------------------ engine

Uuid uuid(std::uint64_t hi, std::uint64_t lo) {
  Uuid u;
  u.hi = hi;
  u.lo = lo;
  return u;
}

// One sync call: stub open/close around skel open/close.  Latency is
// close.value_start - open.value_end = 80ns with these stamps.
void add_call(monitor::CollectedLogs& logs, const Uuid& chain,
              std::uint64_t seq_base, std::int64_t base,
              std::string_view iface, std::string_view func,
              monitor::CallOutcome outcome,
              std::int64_t latency_pad = 0) {
  auto rec = [&](std::uint64_t seq, monitor::EventKind event,
                 std::string_view process, std::int64_t start,
                 std::int64_t end) {
    monitor::TraceRecord r;
    r.chain = chain;
    r.seq = seq_base + seq;
    r.event = event;
    r.kind = monitor::CallKind::kSync;
    r.outcome = outcome;
    r.interface_name = iface;
    r.function_name = func;
    r.object_key = 42;
    r.process_name = process;
    r.node_name = "node0";
    r.processor_type = "x86";
    r.thread_ordinal = 1;
    r.mode = monitor::ProbeMode::kLatency;
    r.value_start = start;
    r.value_end = end;
    logs.records.push_back(r);
  };
  rec(1, monitor::EventKind::kStubStart, "client", base, base + 10);
  rec(2, monitor::EventKind::kSkelStart, "server", base + 30, base + 40);
  rec(3, monitor::EventKind::kSkelEnd, "server", base + 50, base + 60);
  rec(4, monitor::EventKind::kStubEnd, "client", base + 90 + latency_pad,
      base + 100 + latency_pad);
}

monitor::CollectedLogs base_logs(std::uint64_t epoch) {
  monitor::CollectedLogs logs;
  logs.epoch = epoch;
  logs.domains.push_back({monitor::DomainIdentity{"client", "node0", "x86"},
                          monitor::ProbeMode::kLatency, 0});
  logs.domains.push_back({monitor::DomainIdentity{"server", "node0", "x86"},
                          monitor::ProbeMode::kLatency, 0});
  return logs;
}

// A scratch trace file with four calls across two interfaces; removed on
// destruction.
struct ScratchTrace {
  fs::path path;
  ScratchTrace() {
    path = fs::temp_directory_path() /
           ("causeway_query_" + std::to_string(::getpid()) + ".cwt");
    auto logs = base_logs(1);
    add_call(logs, uuid(1, 1), 0, 1'000, "Svc::Alpha", "get",
             monitor::CallOutcome::kOk);
    add_call(logs, uuid(1, 2), 10, 2'000, "Svc::Alpha", "put",
             monitor::CallOutcome::kOk, 100);
    add_call(logs, uuid(1, 3), 20, 3'000, "Svc::Beta", "get",
             monitor::CallOutcome::kAppError, 400);
    add_call(logs, uuid(1, 4), 30, 4'000, "Svc::Beta", "snap",
             monitor::CallOutcome::kOk, 900);
    analysis::write_trace_file(path.string(), logs);
  }
  ~ScratchTrace() { fs::remove(path); }
  std::vector<std::string> inputs() const { return {path.string()}; }
};

double value(const QueryResult& r, std::size_t row, std::size_t col) {
  return r.rows.at(row).values.at(col).value();
}

TEST(Engine, CountAndLatencyAggregates) {
  ScratchTrace t;
  // Each sync add_call pairs into one span (its stub open/close);
  // latency = close.value_start - open.value_end = 80 + pad.
  const QueryResult r = run_query(
      parse_query("count, min(latency), max(latency), sum(latency)"),
      t.inputs());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(value(r, 0, 0), 4.0);
  EXPECT_EQ(value(r, 0, 1), 80.0);
  EXPECT_EQ(value(r, 0, 2), 980.0);
  EXPECT_EQ(value(r, 0, 3), 80 + 180 + 480 + 980);
  EXPECT_EQ(r.stats.spans_total, 4u);
  EXPECT_EQ(r.stats.spans_matched, 4u);
}

TEST(Engine, GroupByInterfaceIsSorted) {
  ScratchTrace t;
  const QueryResult r = run_query(
      parse_query("count, max(latency) group by iface"), t.inputs());
  ASSERT_EQ(r.rows.size(), 2u);
  EXPECT_EQ(r.rows[0].group, "Svc::Alpha");
  EXPECT_EQ(r.rows[1].group, "Svc::Beta");
  EXPECT_EQ(value(r, 0, 0), 2.0);
  EXPECT_EQ(value(r, 1, 1), 980.0);
  ASSERT_EQ(r.columns.size(), 3u);
  EXPECT_EQ(r.columns[0], "iface");
}

TEST(Engine, WhereFiltersAndPercentiles) {
  ScratchTrace t;
  {
    const QueryResult r = run_query(
        parse_query("count where func == get and outcome != ok"), t.inputs());
    EXPECT_EQ(value(r, 0, 0), 1.0);  // the Beta get call
  }
  {
    const QueryResult r =
        run_query(parse_query("count where latency > 100"), t.inputs());
    EXPECT_EQ(value(r, 0, 0), 3.0);  // latencies 180, 480, 980
  }
  {
    // p50 over the four spans [80, 180, 480, 980]: nearest-rank picks
    // the 2nd; p99 the 4th.
    const QueryResult r = run_query(
        parse_query("p50(latency), p99(latency) where process == client"),
        t.inputs());
    EXPECT_EQ(value(r, 0, 0), 180.0);
    EXPECT_EQ(value(r, 0, 1), 980.0);
  }
  {
    const QueryResult r = run_query(
        parse_query("count where iface =~ Beta or func == put"), t.inputs());
    EXPECT_EQ(value(r, 0, 0), 3.0);
  }
}

TEST(Engine, ChainEqualityAndWindow) {
  ScratchTrace t;
  {
    const QueryResult r = run_query(
        parse_query(
            "count where chain == 00000000-0000-0001-0000-000000000003"),
        t.inputs());
    EXPECT_EQ(value(r, 0, 0), 1.0);
    // A required chain filters at decode: every record is scanned, only
    // the matching chain's spans are reconstructed.
    EXPECT_EQ(r.stats.records_scanned, 16u);
    EXPECT_EQ(r.stats.spans_total, 1u);
  }
  {
    // Window [2000, 3200] keeps only the second call (opens at 2000,
    // closes at 2200); the first opens before, the third closes after.
    const QueryResult r =
        run_query(parse_query("count since 2000 until 3200"), t.inputs());
    EXPECT_EQ(value(r, 0, 0), 1.0);
  }
}

TEST(Engine, EmptyMatchYieldsCountZeroAndNullStats) {
  ScratchTrace t;
  const QueryResult r = run_query(
      parse_query("count, p95(latency) where iface == Absent"), t.inputs());
  ASSERT_EQ(r.rows.size(), 1u);
  EXPECT_EQ(value(r, 0, 0), 0.0);
  EXPECT_FALSE(r.rows[0].values[1].has_value());
  EXPECT_NE(render_text(r).find("-"), std::string::npos);
}

TEST(Engine, RendersTextAndCsv) {
  ScratchTrace t;
  const QueryResult r = run_query(
      parse_query("count group by outcome"), t.inputs());
  const std::string text = render_text(r);
  EXPECT_NE(text.find("outcome"), std::string::npos);
  EXPECT_NE(text.find("app-error"), std::string::npos);
  const std::string csv = render_csv(r);
  EXPECT_NE(csv.find("outcome,count\n"), std::string::npos);
  EXPECT_NE(csv.find("ok,3\n"), std::string::npos);
}

TEST(Engine, MissingInputThrows) {
  EXPECT_THROW(
      run_query(parse_query("count"), {"/no/such/trace.cwt"}),
      analysis::TraceIoError);
}

// Byte offset of a v4/v5 segment's record-count varint: past the fixed
// header, the domain entries and the string table.
std::size_t record_count_offset(const std::vector<std::uint8_t>& segment) {
  WireCursor in(segment.data(), segment.size());
  in.read_u32();  // magic
  in.read_u32();  // version
  in.read_u64();  // body length
  in.read_u64();  // epoch
  in.read_u64();  // dropped
  const std::uint64_t domains = in.read_varint();
  for (std::uint64_t i = 0; i < domains; ++i) {
    in.read_varint();
    in.read_varint();
    in.read_varint();
    in.read_u8();
    in.read_varint();
  }
  const std::uint64_t strings = in.read_varint();
  for (std::uint64_t i = 0; i < strings; ++i) {
    in.skip(static_cast<std::size_t>(in.read_varint()));
  }
  return in.position();
}

// Re-encodes the segment's record count as `count`, keeping the body
// length field consistent with the (possibly longer) varint.
std::vector<std::uint8_t> patch_record_count(std::vector<std::uint8_t> segment,
                                             std::uint64_t count) {
  const std::size_t at = record_count_offset(segment);
  WireCursor old_count(segment.data() + at, segment.size() - at);
  old_count.read_varint();
  WireBuffer patched;
  patched.write_varint(count);
  const auto& bytes = patched.bytes();
  segment.erase(segment.begin() + static_cast<std::ptrdiff_t>(at),
                segment.begin() +
                    static_cast<std::ptrdiff_t>(at + old_count.position()));
  segment.insert(segment.begin() + static_cast<std::ptrdiff_t>(at),
                 bytes.begin(), bytes.end());
  const std::uint64_t body = segment.size() - 16;
  for (int b = 0; b < 8; ++b) {
    segment[8 + b] = static_cast<std::uint8_t>(body >> (8 * b));
  }
  return segment;
}

TEST(Engine, LyingRecordCountIsRejectedBeforeAllocation) {
  const fs::path path =
      fs::temp_directory_path() /
      ("causeway_query_lying_" + std::to_string(::getpid()) + ".cwt");
  auto logs = base_logs(1);
  for (std::uint64_t c = 0; c < 4; ++c) {
    add_call(logs, uuid(7, c), c * 10, 1'000, "Svc::Alpha", "get",
             monitor::CallOutcome::kOk);
  }
  for (const std::uint32_t format :
       {analysis::kTraceFormatV4, analysis::kTraceFormatV5}) {
    const auto segment = analysis::encode_trace(logs, format);
    ASSERT_EQ(analysis::trace_segment_record_count(segment), 16u);
    // 2^40 records would be a ~60 TB row array: the header check must
    // throw TraceIoError before anything is sized from it (an unchecked
    // count surfaces as bad_alloc instead).  A count that passes the
    // bound but disagrees with the body must throw TraceIoError too.
    const std::uint64_t huge = std::uint64_t{1} << 40;
    for (const std::uint64_t lie : {huge, std::uint64_t{17}}) {
      const auto patched = patch_record_count(segment, lie);
      if (lie == huge) {
        EXPECT_THROW(analysis::trace_segment_record_count(patched),
                     analysis::TraceIoError);
      }
      {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out.write(reinterpret_cast<const char*>(patched.data()),
                  static_cast<std::streamsize>(patched.size()));
      }
      EXPECT_THROW(run_query(parse_query("count"), {path.string()}),
                   analysis::TraceIoError)
          << "format " << format << ", claimed " << lie;
    }
  }
  fs::remove(path);
}

#if defined(CAUSEWAY_TEST_DATA_DIR)
TEST(Engine, V3GoldenAnswersLikeItsV4Reencode) {
  const std::string golden =
      std::string(CAUSEWAY_TEST_DATA_DIR) + "/golden_v3.cwt";
  std::vector<std::uint8_t> bytes;
  {
    std::ifstream in(golden, std::ios::binary);
    ASSERT_TRUE(in) << golden;
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  const fs::path v4 =
      fs::temp_directory_path() /
      ("causeway_query_v4_" + std::to_string(::getpid()) + ".cwt");
  {
    std::ofstream out(v4, std::ios::binary | std::ios::trunc);
    for (const auto& logs : analysis::decode_trace_segments(bytes)) {
      const auto segment =
          analysis::encode_trace(logs, analysis::kTraceFormatV4);
      out.write(reinterpret_cast<const char*>(segment.data()),
                static_cast<std::streamsize>(segment.size()));
    }
  }
  for (const char* text :
       {"count, sum(latency), p99(latency)",
        "count, max(latency) group by func",
        "count where (iface =~ e or func =~ a) and not kind == oneway"}) {
    const Query q = parse_query(text);
    const QueryResult from_v3 = run_query(q, {golden});
    const QueryResult from_v4 = run_query(q, {v4.string()});
    EXPECT_EQ(render_csv(from_v3), render_csv(from_v4)) << text;
    EXPECT_GT(from_v3.stats.spans_matched, 0u) << text;
    EXPECT_EQ(from_v3.stats.records_scanned, from_v4.stats.records_scanned);
  }
  fs::remove(v4);
}
#endif

// ------------------------------------------------------------- store plans

// Three epochs with disjoint time ranges and distinct chains.
std::vector<monitor::CollectedLogs> three_epochs() {
  std::vector<monitor::CollectedLogs> epochs;
  for (std::uint64_t e = 1; e <= 3; ++e) {
    auto logs = base_logs(e);
    add_call(logs, uuid(0xaa, e), 0, static_cast<std::int64_t>(e) * 100'000,
             "Svc::Alpha", "get", monitor::CallOutcome::kOk);
    epochs.push_back(std::move(logs));
  }
  return epochs;
}

struct ScratchStore {
  fs::path path;
  ScratchStore(const std::string& name, std::uint32_t format,
               const std::vector<monitor::CollectedLogs>& epochs =
                   three_epochs()) {
    path = fs::temp_directory_path() /
           ("causeway_qstore_" + name + "_" + std::to_string(::getpid()));
    fs::remove_all(path);
    store::StoreOptions options;
    options.rotate_segments = 1;  // one sealed file per epoch
    options.trace_format = format;
    store::StoreWriter writer(path.string(), options);
    for (const auto& logs : epochs) writer.append(logs);
    writer.close();
  }
  ~ScratchStore() { fs::remove_all(path); }
  std::vector<std::string> inputs() const { return {path.string()}; }
};

TEST(Planner, TimeWindowPrunesWholeFiles) {
  ScratchStore s("window", analysis::kTraceFormatV4);
  const QueryResult r = run_query(
      parse_query("count since 200000 until 210000"), s.inputs());
  EXPECT_EQ(value(r, 0, 0), 1.0);  // the middle file's one call
  EXPECT_EQ(r.stats.files_total, 3u);
  EXPECT_EQ(r.stats.files_pruned, 2u);
  EXPECT_EQ(r.stats.files_opened, 1u);
  EXPECT_EQ(r.stats.segments_decoded, 1u);
  EXPECT_EQ(r.stats.records_scanned, 4u);
}

TEST(Planner, RequiredChainPrunesViaDigest) {
  ScratchStore s("chain", analysis::kTraceFormatV4);
  const QueryResult r = run_query(
      parse_query(
          "count where chain == 00000000-0000-00aa-0000-000000000002"),
      s.inputs());
  EXPECT_EQ(value(r, 0, 0), 1.0);
  EXPECT_EQ(r.stats.files_total, 3u);
  EXPECT_GE(r.stats.files_pruned, 2u);  // digest may-contain is exact here
  EXPECT_LE(r.stats.files_opened, 1u);
  EXPECT_EQ(r.stats.spans_total, 1u);  // only the required chain's spans
}

TEST(Planner, OredChainDoesNotPrune) {
  ScratchStore s("orchain", analysis::kTraceFormatV4);
  const QueryResult r = run_query(
      parse_query("count where chain == 00000000-0000-00aa-0000-000000000002 "
                  "or iface == Svc::Alpha"),
      s.inputs());
  EXPECT_EQ(value(r, 0, 0), 3.0);  // the or-arm matches every span
  EXPECT_EQ(r.stats.files_pruned, 0u);
  EXPECT_EQ(r.stats.files_opened, 3u);
}

TEST(Planner, CompressedAndUncompressedStoresAgreeByte) {
  ScratchStore v4("cmp4", analysis::kTraceFormatV4);
  ScratchStore v5("cmp5", analysis::kTraceFormatV5);
  const Query q = parse_query(
      "count, sum(latency), p95(latency) group by outcome");
  const QueryResult r4 = run_query(q, v4.inputs());
  const QueryResult r5 = run_query(q, v5.inputs());
  EXPECT_EQ(render_text(r5), render_text(r4));
  EXPECT_EQ(render_csv(r5), render_csv(r4));
}

// Splits one logs bundle's records into epochs by record index.
std::vector<monitor::CollectedLogs> split_records(
    const monitor::CollectedLogs& whole,
    const std::vector<std::vector<std::size_t>>& epochs) {
  std::vector<monitor::CollectedLogs> out;
  for (std::size_t e = 0; e < epochs.size(); ++e) {
    auto logs = base_logs(e + 1);
    for (const std::size_t i : epochs[e]) {
      logs.records.push_back(whole.records[i]);
    }
    out.push_back(std::move(logs));
  }
  return out;
}

TEST(Planner, CallSplitAcrossSealedFilesPairs) {
  // Stub and skeleton starts land in epoch 1, both ends in epoch 2: each
  // epoch is sealed into its own file, and the call still pairs.
  auto whole = base_logs(0);
  add_call(whole, uuid(0xbb, 1), 0, 5'000, "Svc::Alpha", "get",
           monitor::CallOutcome::kOk, 20);
  ScratchStore s("split", analysis::kTraceFormatV5,
                 split_records(whole, {{0, 1}, {2, 3}}));
  const QueryResult r =
      run_query(parse_query("count, sum(latency)"), s.inputs());
  EXPECT_EQ(r.stats.files_opened, 2u);
  EXPECT_EQ(r.stats.segments_decoded, 2u);
  EXPECT_EQ(value(r, 0, 0), 1.0);
  EXPECT_EQ(value(r, 0, 1), 100.0);  // 80 + the 20 pad
}

TEST(Planner, OutOfOrderChainPairsLikeInOrder) {
  // Two calls on one chain (event numbers 1-4 and 5-8), stored once in
  // order and once with even and odd event numbers dealt into two files,
  // each file holding them in descending order.
  auto whole = base_logs(0);
  add_call(whole, uuid(0xcc, 1), 0, 1'000, "Svc::Alpha", "get",
           monitor::CallOutcome::kOk);
  add_call(whole, uuid(0xcc, 1), 4, 2'000, "Svc::Alpha", "put",
           monitor::CallOutcome::kAppError, 50);
  ScratchStore ordered("ordered", analysis::kTraceFormatV4,
                       split_records(whole, {{0, 1, 2, 3, 4, 5, 6, 7}}));
  ScratchStore shuffled("shuffled", analysis::kTraceFormatV4,
                        split_records(whole, {{7, 5, 3, 1}, {6, 4, 2, 0}}));
  const Query q =
      parse_query("count, sum(latency), max(latency) group by func");
  const QueryResult in_order = run_query(q, ordered.inputs());
  const QueryResult out_of_order = run_query(q, shuffled.inputs());
  EXPECT_EQ(render_csv(in_order),
            "func,count,sum(latency),max(latency)\n"
            "get,1,80,80\n"
            "put,1,130,130\n");
  EXPECT_EQ(render_csv(out_of_order), render_csv(in_order));
  EXPECT_EQ(out_of_order.stats.spans_total, 2u);
}

TEST(Planner, LargeStoreTakesTheParallelDecode) {
  // 8 epochs x 2,200 calls x 4 records = 70,400 rows: enough for the
  // segments to decode on the worker pool rather than inline.
  std::vector<monitor::CollectedLogs> epochs;
  std::int64_t alpha_sum = 0, beta_sum = 0;
  for (std::uint64_t e = 1; e <= 8; ++e) {
    auto logs = base_logs(e);
    for (std::uint64_t c = 0; c < 2'200; ++c) {
      const bool alpha = c % 2 == 0;
      const auto pad = static_cast<std::int64_t>(c % 7);
      add_call(logs, uuid(e, c), 0,
               static_cast<std::int64_t>(e * 10'000'000 + c * 1'000),
               alpha ? "Svc::Alpha" : "Svc::Beta", "get",
               monitor::CallOutcome::kOk, pad);
      (alpha ? alpha_sum : beta_sum) += 80 + pad;
    }
    epochs.push_back(std::move(logs));
  }
  ScratchStore s("parallel", analysis::kTraceFormatV5, epochs);
  const QueryResult r =
      run_query(parse_query("count, sum(latency) group by iface"), s.inputs());
  EXPECT_EQ(r.stats.segments_decoded, 8u);
  EXPECT_EQ(r.stats.records_scanned, 70'400u);
  EXPECT_EQ(r.stats.spans_total, 17'600u);
  const std::string expected = "iface,count,sum(latency)\n"
                               "Svc::Alpha,8800," + std::to_string(alpha_sum) +
                               "\nSvc::Beta,8800," + std::to_string(beta_sum) +
                               "\n";
  EXPECT_EQ(render_csv(r), expected);
}

TEST(Planner, StaleCatalogSurfacesCleanly) {
  ScratchStore s("stale", analysis::kTraceFormatV4);
  const auto victim = s.path / "store-000002.cwt";
  fs::resize_file(victim, fs::file_size(victim) - 1);
  try {
    run_query(parse_query("count"), s.inputs());
    FAIL() << "stale catalog must throw";
  } catch (const analysis::TraceIoError& e) {
    EXPECT_NE(std::string(e.what()).find("--reindex"), std::string::npos);
  }
}

}  // namespace
}  // namespace causeway::query
