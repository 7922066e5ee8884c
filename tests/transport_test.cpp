// Cross-process collection transport, exercised in-process over real
// sockets (no fork needed): protocol codecs, endpoint address parsing,
// the publisher-to-daemon loopback (byte-identical to offline
// collection), drop-not-block back-pressure, drop-notice accounting,
// protocol-error containment, partial-frame discard, and publisher
// reconnect across a daemon restart.
//
// Every socket-level suite runs twice -- once over a Unix-domain
// endpoint, once over TCP loopback -- through the same TEST_P body: the
// transport seam (endpoint.h) promises the byte stream above it is
// kind-agnostic, and these tests are that promise's enforcement.
#include <gtest/gtest.h>

#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <functional>
#include <memory>
#include <span>
#include <thread>

#include "analysis/pipeline.h"
#include "analysis/trace_io.h"
#include "common/wire_io.h"
#include "monitor/tss.h"
#include "transport/endpoint.h"
#include "transport/ingest_sink.h"
#include "transport/protocol.h"
#include "transport/publisher.h"
#include "transport/subscriber.h"
#include "workload/logsynth.h"
#include "workload/synthetic.h"

namespace causeway {
namespace {

using transport::CollectorDaemon;
using transport::DropNotice;
using transport::EndpointKind;
using transport::EpochPublisher;
using transport::Handshake;
using transport::IngestSink;
using transport::PeerInfo;
using transport::PublisherConfig;
using transport::TransportError;

std::string unix_spec(const char* name) {
  return "unix:" + ::testing::TempDir() + "cw_transport_" + name + "_" +
         std::to_string(::getpid()) + ".sock";
}

bool wait_for(const std::function<bool()>& pred,
              std::uint64_t timeout_ms = 10000) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred()) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  return pred();
}

class TransportTest : public ::testing::Test {
 protected:
  void SetUp() override { monitor::tss_clear(); }
  void TearDown() override { monitor::tss_clear(); }
};

// The socket-level suites, parameterized over the endpoint kind.  Daemons
// bind `listen_spec` (TCP uses an ephemeral port); everything that needs
// to *reach* the daemon asks it for the resolved address afterwards.
class TransportSocketTest : public ::testing::TestWithParam<EndpointKind> {
 protected:
  void SetUp() override { monitor::tss_clear(); }
  void TearDown() override { monitor::tss_clear(); }

  std::string listen_spec(const char* name) {
    return GetParam() == EndpointKind::kTcp ? "tcp:127.0.0.1:0"
                                            : unix_spec(name);
  }

  // An address nothing listens on (and nothing will): connect must fail.
  std::string dead_spec(const char* name) {
    // Port 1 on loopback is as close to "guaranteed refused" as TCP gets.
    return GetParam() == EndpointKind::kTcp ? "tcp:127.0.0.1:1"
                                            : unix_spec(name);
  }

  static std::string bound_address(const CollectorDaemon& daemon) {
    const std::vector<transport::EndpointAddress> bound =
        daemon.listen_addresses();
    EXPECT_EQ(bound.size(), 1u);
    return bound.front().to_string();
  }
};

workload::SyntheticConfig synthetic_config(std::uint64_t seed) {
  workload::SyntheticConfig config;
  config.seed = seed;
  config.domains = 3;
  config.components = 9;
  config.interfaces = 5;
  config.methods_per_interface = 3;
  config.levels = 3;
  config.max_children = 2;
  config.monitor.mode = monitor::ProbeMode::kCausalityOnly;
  return config;
}

// A raw publisher-side client for protocol-level tests: hand-crafted bytes
// straight onto the socket, whichever kind the address names.
class RawClient {
 public:
  explicit RawClient(const std::string& address) {
    endpoint_ =
        transport::connect_endpoint(transport::parse_endpoint(address), 1000);
    endpoint_.set_blocking(true);
  }
  bool connected() const { return endpoint_.valid(); }
  bool send(std::span<const std::uint8_t> bytes) {
    return io_write_full(endpoint_.fd(), bytes.data(), bytes.size());
  }
  void close() { endpoint_.close(); }
  bool close_gracefully(std::uint64_t timeout_ms) {
    return endpoint_.close_gracefully(timeout_ms);
  }

 private:
  transport::StreamEndpoint endpoint_;
};

// Records everything the daemon delivers; callbacks run on the daemon
// thread, reads happen after stop() or behind wait_for (monotonic counters
// read through the mutex).
class RecordingSink : public transport::DaemonSink {
 public:
  void on_connect(const PeerInfo& peer) override {
    std::lock_guard lk(mu);
    connects.push_back(peer);
  }
  void on_segment(const PeerInfo&,
                  std::span<const std::uint8_t> segment) override {
    monitor::CollectedLogs logs = analysis::decode_trace_segment(segment);
    std::lock_guard lk(mu);
    records += logs.records.size();
    ++segments;
  }
  void on_drop_notice(const PeerInfo&, const DropNotice& notice) override {
    std::lock_guard lk(mu);
    drop_records += notice.records;
    drop_segments += notice.segments;
  }
  void on_disconnect(const PeerInfo&, bool clean) override {
    std::lock_guard lk(mu);
    ++disconnects;
    if (!clean) ++unclean_disconnects;
  }

  std::uint64_t records_seen() {
    std::lock_guard lk(mu);
    return records;
  }
  std::uint64_t segments_seen() {
    std::lock_guard lk(mu);
    return segments;
  }

  std::mutex mu;
  std::vector<PeerInfo> connects;
  std::uint64_t records{0};
  std::uint64_t segments{0};
  std::uint64_t drop_records{0};
  std::uint64_t drop_segments{0};
  int disconnects{0};
  int unclean_disconnects{0};
};

TEST_F(TransportTest, HandshakeCodecRoundtrip) {
  Handshake hs;
  hs.trace_format = analysis::kTraceFormatV4;
  hs.pid = 4242;
  hs.process_name = "planner";
  const std::vector<std::uint8_t> bytes = transport::encode_handshake(hs);

  auto decoded = transport::try_decode_handshake(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->second, bytes.size());
  EXPECT_EQ(decoded->first.protocol, transport::kProtocolVersion);
  EXPECT_EQ(decoded->first.trace_format, analysis::kTraceFormatV4);
  EXPECT_EQ(decoded->first.pid, 4242u);
  EXPECT_EQ(decoded->first.process_name, "planner");

  // Every strict prefix is "incomplete", never an error.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(
        transport::try_decode_handshake(std::span(bytes.data(), n)))
        << "prefix length " << n;
  }
  // Trailing bytes beyond the frame are someone else's problem.
  std::vector<std::uint8_t> more = bytes;
  more.push_back(0xAB);
  auto with_tail = transport::try_decode_handshake(more);
  ASSERT_TRUE(with_tail.has_value());
  EXPECT_EQ(with_tail->second, bytes.size());
}

TEST_F(TransportTest, HandshakeRejectsGarbage) {
  std::vector<std::uint8_t> bad(32, 0x5A);
  EXPECT_THROW(transport::try_decode_handshake(bad), TransportError);

  // Right magic, hostile name length.
  Handshake hs;
  hs.process_name = "x";
  std::vector<std::uint8_t> bytes = transport::encode_handshake(hs);
  const std::size_t len_at = 4 + 4 + 4 + 8;  // magic+proto+format+pid
  bytes[len_at] = 0xFF;
  bytes[len_at + 1] = 0xFF;
  bytes[len_at + 2] = 0xFF;
  bytes[len_at + 3] = 0x7F;
  EXPECT_THROW(transport::try_decode_handshake(bytes), TransportError);

  Handshake long_name;
  long_name.process_name.assign(transport::kMaxProcessNameBytes + 1, 'n');
  EXPECT_THROW(transport::encode_handshake(long_name), TransportError);
}

TEST_F(TransportTest, ControlCodecRoundtrip) {
  transport::ControlDirective d;
  d.seq = 42;
  d.mode = 2;
  d.sample_rate_index = monitor::sample_rate_index_for(10);
  d.enabled = true;
  d.muted_interfaces = std::vector<std::string>{"Stock::Pricing", "Job::Run"};
  const std::vector<std::uint8_t> bytes = transport::encode_control(d);

  auto decoded = transport::try_decode_control(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->second, bytes.size());
  EXPECT_EQ(decoded->first.seq, 42u);
  ASSERT_TRUE(decoded->first.mode.has_value());
  EXPECT_EQ(*decoded->first.mode, 2);
  ASSERT_TRUE(decoded->first.sample_rate_index.has_value());
  EXPECT_EQ(*decoded->first.sample_rate_index,
            monitor::sample_rate_index_for(10));
  ASSERT_TRUE(decoded->first.enabled.has_value());
  EXPECT_TRUE(*decoded->first.enabled);
  ASSERT_TRUE(decoded->first.muted_interfaces.has_value());
  EXPECT_EQ(*decoded->first.muted_interfaces,
            (std::vector<std::string>{"Stock::Pricing", "Job::Run"}));

  // Every strict prefix is "incomplete", never an error.
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(transport::try_decode_control(std::span(bytes.data(), n)))
        << "prefix length " << n;
  }
  // Trailing bytes beyond the frame are the next frame's problem.
  std::vector<std::uint8_t> more = bytes;
  more.push_back(0xAB);
  auto with_tail = transport::try_decode_control(more);
  ASSERT_TRUE(with_tail.has_value());
  EXPECT_EQ(with_tail->second, bytes.size());

  // The hello (all fields absent) must survive the wire as exactly that.
  transport::ControlDirective hello;
  hello.seq = 1;
  auto hello_rt = transport::try_decode_control(transport::encode_control(hello));
  ASSERT_TRUE(hello_rt.has_value());
  EXPECT_EQ(hello_rt->first.seq, 1u);
  EXPECT_TRUE(hello_rt->first.empty());
}

TEST_F(TransportTest, StatusCodecRoundtrip) {
  transport::ControlStatus st;
  st.applied_seq = 9;
  st.sampled_out = 123456789ull;
  st.sample_rate_index = 5;
  st.mode = 1;
  const std::vector<std::uint8_t> bytes = transport::encode_status(st);
  auto decoded = transport::try_decode_status(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->second, bytes.size());
  EXPECT_EQ(decoded->first.applied_seq, 9u);
  EXPECT_EQ(decoded->first.sampled_out, 123456789ull);
  EXPECT_EQ(decoded->first.sample_rate_index, 5);
  EXPECT_EQ(decoded->first.mode, 1);
  for (std::size_t n = 0; n < bytes.size(); ++n) {
    EXPECT_FALSE(transport::try_decode_status(std::span(bytes.data(), n)))
        << "prefix length " << n;
  }
}

TEST_F(TransportTest, DropNoticeCodecRoundtrip) {
  const std::vector<std::uint8_t> bytes =
      transport::encode_drop_notice({123456789ull, 17ull});
  EXPECT_EQ(bytes.size(), transport::kDropNoticeBytes);
  auto decoded = transport::try_decode_drop_notice(bytes);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->first.records, 123456789ull);
  EXPECT_EQ(decoded->first.segments, 17ull);
  EXPECT_FALSE(transport::try_decode_drop_notice(
      std::span(bytes.data(), bytes.size() - 1)));
}

// Address parsing is the transport's configure-time gate: every accepted
// spelling round-trips, every malformed spec is a clear error before a
// socket exists.
TEST_F(TransportTest, EndpointParsing) {
  const transport::EndpointAddress unix_addr =
      transport::parse_endpoint("unix:/tmp/cw.sock");
  EXPECT_EQ(unix_addr.kind, EndpointKind::kUnix);
  EXPECT_EQ(unix_addr.path, "/tmp/cw.sock");
  EXPECT_EQ(unix_addr.to_string(), "unix:/tmp/cw.sock");

  // Bare paths stay valid: the pre-TCP spelling keeps working.
  EXPECT_EQ(transport::parse_endpoint("/tmp/bare.sock").kind,
            EndpointKind::kUnix);

  const transport::EndpointAddress tcp_addr =
      transport::parse_endpoint("tcp:collect.example:9917");
  EXPECT_EQ(tcp_addr.kind, EndpointKind::kTcp);
  EXPECT_EQ(tcp_addr.host, "collect.example");
  EXPECT_EQ(tcp_addr.port, 9917);
  EXPECT_EQ(tcp_addr.to_string(), "tcp:collect.example:9917");
  // IPv6 hosts split on the *last* colon.
  EXPECT_EQ(transport::parse_endpoint("tcp:::1:80").host, "::1");

  EXPECT_THROW(transport::parse_endpoint(""), TransportError);
  EXPECT_THROW(transport::parse_endpoint("unix:"), TransportError);
  EXPECT_THROW(transport::parse_endpoint("tcp:nohost"), TransportError);
  EXPECT_THROW(transport::parse_endpoint("tcp:host:"), TransportError);
  EXPECT_THROW(transport::parse_endpoint("tcp:host:notaport"),
               TransportError);
  EXPECT_THROW(transport::parse_endpoint("tcp:host:70000"), TransportError);
  EXPECT_THROW(transport::parse_endpoint("udp:host:1"), TransportError);
}

// A Unix socket path that cannot fit sockaddr_un::sun_path must fail at
// configuration time -- publisher construction and daemon construction
// alike -- with the length in the message, never a silent truncation.
TEST_F(TransportTest, OversizedUnixPathRejectedAtConfigTime) {
  const std::string oversized = "unix:/tmp/" + std::string(200, 'x') + ".sock";
  try {
    transport::parse_endpoint(oversized);
    FAIL() << "oversized unix path must not parse";
  } catch (const TransportError& e) {
    EXPECT_NE(std::string(e.what()).find("too long"), std::string::npos);
  }

  orb::Fabric fabric;
  workload::SyntheticSystem system(fabric, synthetic_config(3));
  monitor::Collector collector;
  system.attach_collector(collector);
  PublisherConfig config;
  config.address = oversized;
  config.process_name = "toolong";
  EXPECT_THROW(EpochPublisher(collector, config), TransportError);

  RecordingSink sink;
  EXPECT_THROW(CollectorDaemon({{oversized}, 0}, sink), TransportError);
}

// One daemon, two transports at once: a Unix listener for local
// publishers and a TCP listener for remote ones, each accounted per kind.
TEST_F(TransportTest, MultiListenerServesBothTransports) {
  const std::string unix_address = unix_spec("multi");
  RecordingSink sink;
  CollectorDaemon daemon({{unix_address, "tcp:127.0.0.1:0"}, 0}, sink);
  daemon.start();
  const std::vector<transport::EndpointAddress> bound =
      daemon.listen_addresses();
  ASSERT_EQ(bound.size(), 2u);
  EXPECT_EQ(bound[0].kind, EndpointKind::kUnix);
  EXPECT_EQ(bound[1].kind, EndpointKind::kTcp);
  EXPECT_NE(bound[1].port, 0) << "ephemeral port must resolve";

  for (const transport::EndpointAddress& address : bound) {
    RawClient client(address.to_string());
    ASSERT_TRUE(client.connected()) << address.to_string();
    Handshake hs;
    hs.process_name = std::string("via-") +
                      transport::endpoint_kind_name(address.kind);
    ASSERT_TRUE(client.send(transport::encode_handshake(hs)));
    monitor::CollectedLogs empty;
    ASSERT_TRUE(client.send(analysis::encode_trace(empty)));
    client.close();
  }
  ASSERT_TRUE(wait_for([&] { return sink.segments_seen() == 2; }));
  daemon.stop();

  const CollectorDaemon::Stats stats = daemon.stats();
  EXPECT_EQ(stats.connections_unix, 1u);
  EXPECT_EQ(stats.connections_tcp, 1u);
  EXPECT_EQ(stats.connections_total, 2u);
  std::lock_guard lk(sink.mu);
  ASSERT_EQ(sink.connects.size(), 2u);
  EXPECT_EQ(sink.connects[0].transport == EndpointKind::kUnix ? 1 : 0,
            sink.connects[0].process_name == "via-unix" ? 1 : 0);
}

// A handshake claiming a protocol newer than this build must be rejected:
// the unit decoder throws, and the daemon closes exactly that connection
// while a concurrent well-behaved publisher is untouched.
TEST_P(TransportSocketTest, FutureProtocolVersionRejectedCleanly) {
  Handshake hs;
  hs.process_name = "from-the-future";
  std::vector<std::uint8_t> bytes = transport::encode_handshake(hs);
  bytes[4] = 0xFF;  // protocol u32 follows the magic; LSB first
  EXPECT_THROW(transport::try_decode_handshake(bytes), TransportError);

  RecordingSink sink;
  CollectorDaemon daemon({{listen_spec("future")}, 0}, sink);
  daemon.start();
  const std::string address = bound_address(daemon);

  RawClient future(address);
  ASSERT_TRUE(future.connected());
  ASSERT_TRUE(future.send(bytes));
  ASSERT_TRUE(wait_for([&] { return daemon.stats().protocol_errors == 1; }));

  // Per-connection containment: the daemon still serves a current peer.
  RawClient good(address);
  ASSERT_TRUE(good.connected());
  Handshake current;
  current.process_name = "current";
  ASSERT_TRUE(good.send(transport::encode_handshake(current)));
  monitor::CollectedLogs empty;
  ASSERT_TRUE(good.send(analysis::encode_trace(empty)));
  ASSERT_TRUE(wait_for([&] { return sink.segments_seen() == 1; }));
  good.close();
  future.close();
  daemon.stop();
  EXPECT_EQ(daemon.stats().protocol_errors, 1u);
  ASSERT_EQ(sink.connects.size(), 1u);  // the future peer never handshook
  EXPECT_EQ(sink.connects[0].process_name, "current");
}

// A daemon that accepts the connection but never reads -- wedged, not dead
// -- must not stall finish() past its flush deadline.  The publisher fills
// the socket buffers, hits the deadline, counts the rest as dropped and
// returns.
TEST_P(TransportSocketTest, WedgedDaemonCannotStallFinish) {
  // A bound, listening endpoint nobody ever accepts or reads from: bytes
  // pile up in the kernel until the publisher's writes stall on EAGAIN.
  // Shrink both kernel buffers -- the listener's receive side (inherited
  // by the never-accepted connection) and, below, the publisher's send
  // side -- so the wedge bites at kilobytes; TCP would otherwise autotune
  // several megabytes of invisible capacity and absorb the whole workload.
  transport::Listener wedged(
      transport::parse_endpoint(listen_spec("wedged")));
  const int tiny_rcvbuf = 4096;
  ::setsockopt(wedged.fd(), SOL_SOCKET, SO_RCVBUF, &tiny_rcvbuf,
               sizeof tiny_rcvbuf);
  const std::string address = wedged.address().to_string();

  orb::Fabric fabric;
  workload::SyntheticSystem system(fabric, synthetic_config(13));
  monitor::Collector collector;
  system.attach_collector(collector);

  PublisherConfig config;
  config.address = address;
  config.process_name = "wedged-feeder";
  config.interval_ms = 1;
  config.flush_timeout_ms = 250;
  config.sndbuf_bytes = 32 * 1024;
  EpochPublisher publisher(collector, config);
  publisher.start();
  // Enough volume to overflow the kernel socket buffers (a few hundred KB)
  // so the flush genuinely cannot complete.
  system.run_transactions(1500);
  system.wait_quiescent();

  const auto t0 = std::chrono::steady_clock::now();
  EXPECT_FALSE(publisher.finish());
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - t0)
                           .count();
  EXPECT_LT(elapsed, 5000) << "finish() must respect flush_timeout_ms";

  const EpochPublisher::Stats stats = publisher.stats();
  EXPECT_GT(stats.dropped_records, 0u);  // the undeliverable tail
}

// The tentpole loopback: a workload published over the socket must yield
// (a) a pipeline report and (b) a merged-trace report both byte-identical
// to collecting the identical workload in-process.
TEST_P(TransportSocketTest, LoopbackPublishMatchesOfflineCollection) {
  const std::string merged = ::testing::TempDir() + "cw_loopback_merged_" +
                             transport::endpoint_kind_name(GetParam()) +
                             ".cwt";

  // Offline reference: same seed, same workload, collected in-process.
  std::string reference;
  std::size_t reference_records = 0;
  {
    orb::Fabric fabric;
    workload::SyntheticSystem system(fabric, synthetic_config(77));
    system.run_transactions(5);
    system.wait_quiescent();
    analysis::AnalysisPipeline pipeline;
    const monitor::CollectedLogs logs = system.collect();
    reference_records = logs.records.size();
    pipeline.ingest(logs);
    reference = pipeline.report();
  }
  ASSERT_GT(reference_records, 0u);
  monitor::tss_clear();

  // Transport run: daemon with live pipeline + merged file.
  analysis::AnalysisPipeline live;
  IngestSink::Options options;
  options.pipeline = &live;
  options.merged_path = merged;
  IngestSink sink(std::move(options));
  CollectorDaemon daemon({{listen_spec("loopback")}, 0}, sink);
  daemon.start();
  {
    orb::Fabric fabric;
    workload::SyntheticSystem system(fabric, synthetic_config(77));
    monitor::Collector collector;
    system.attach_collector(collector);
    PublisherConfig config;
    config.address = bound_address(daemon);
    config.process_name = "loopback";
    config.interval_ms = 5;
    EpochPublisher publisher(collector, config);
    publisher.start();
    system.run_transactions(5);
    system.wait_quiescent();
    EXPECT_TRUE(publisher.finish());
    const EpochPublisher::Stats stats = publisher.stats();
    EXPECT_EQ(stats.records_sent, reference_records);
    EXPECT_EQ(stats.dropped_records, 0u);
    // Everything sent must land before we stop the daemon.
    ASSERT_TRUE(wait_for([&] {
      return sink.totals().records >= stats.records_sent;
    }));
  }
  daemon.stop();
  const IngestSink::Totals totals = sink.finalize();
  EXPECT_EQ(totals.records, reference_records);
  EXPECT_EQ(totals.publish_dropped_records, 0u);
  EXPECT_EQ(daemon.stats().protocol_errors, 0u);

  // Live pipeline saw the same system the offline collect did.
  EXPECT_EQ(live.report(), reference);

  // And the merged file re-analyzes to the same bytes.
  analysis::AnalysisPipeline from_file;
  analysis::read_trace_file(merged, from_file.database());
  from_file.refresh();
  EXPECT_EQ(from_file.report(), reference);
  ::unlink(merged.c_str());
}

// No daemon at all: the publisher must never block the workload, must keep
// memory bounded, and must account every discarded record.
TEST_P(TransportSocketTest, BackpressureDropsNotBlocks) {
  orb::Fabric fabric;
  workload::SyntheticSystem system(fabric, synthetic_config(31));
  monitor::Collector collector;
  system.attach_collector(collector);

  PublisherConfig config;
  config.address = dead_spec("nowhere");  // nothing listens here
  config.process_name = "lonely";
  config.interval_ms = 1;
  config.max_inflight_bytes = 512;  // absurdly small: force drops fast
  config.reconnect_initial_ms = 1;
  config.reconnect_max_ms = 8;
  config.flush_timeout_ms = 50;
  EpochPublisher publisher(collector, config);
  publisher.start();
  system.run_transactions(6);
  system.wait_quiescent();
  EXPECT_FALSE(publisher.finish());  // nothing could be delivered

  const EpochPublisher::Stats stats = publisher.stats();
  EXPECT_EQ(stats.segments_sent, 0u);
  EXPECT_GT(stats.dropped_segments, 0u);
  // Conservation: every drained record was either sent or counted dropped.
  const monitor::CollectedLogs rest = collector.collect();
  EXPECT_EQ(rest.records.size(), 0u);  // drains consumed everything
  EXPECT_GT(stats.dropped_records, 0u);
}

// Drop notices synthesize publish_dropped bundles: the loss shows up in
// the database counter and as a kPublishDrop anomaly event, distinct from
// ring overflow.
TEST_P(TransportSocketTest, DropNoticeReachesPipelineAndAnomalies) {
  analysis::AnalysisPipeline live;
  std::atomic<int> publish_drop_events{0};
  analysis::CallbackAnomalySink anomaly_sink(
      [&](const analysis::AnomalyEvent& event) {
        if (event.kind == analysis::AnomalyKind::kPublishDrop) {
          ++publish_drop_events;
        }
      });
  live.add_sink(&anomaly_sink);

  IngestSink::Options options;
  options.pipeline = &live;
  IngestSink sink(std::move(options));
  CollectorDaemon daemon({{listen_spec("notice")}, 0}, sink);
  daemon.start();

  RawClient client(bound_address(daemon));
  ASSERT_TRUE(client.connected());
  Handshake hs;
  hs.trace_format = analysis::kTraceFormatV4;
  hs.pid = 7;
  hs.process_name = "dropper";
  ASSERT_TRUE(client.send(transport::encode_handshake(hs)));
  ASSERT_TRUE(client.send(transport::encode_drop_notice({41, 3})));
  client.close();

  ASSERT_TRUE(wait_for([&] { return sink.totals().publish_dropped_records == 41; }));
  daemon.stop();
  EXPECT_EQ(sink.totals().publish_dropped_segments, 3u);
  EXPECT_EQ(live.database().publish_dropped(), 41u);
  EXPECT_EQ(live.database().overflow_dropped(), 0u);  // distinct ledgers
  EXPECT_EQ(publish_drop_events.load(), 1);
  EXPECT_EQ(daemon.stats().drop_notices, 1u);
}

// A connection that violates the protocol is closed; the daemon and its
// other publishers are unharmed.
TEST_P(TransportSocketTest, ProtocolErrorClosesOnlyThatConnection) {
  RecordingSink sink;
  CollectorDaemon daemon({{listen_spec("protoerr")}, 0}, sink);
  daemon.start();
  const std::string address = bound_address(daemon);

  RawClient bad(address);
  ASSERT_TRUE(bad.connected());
  const std::vector<std::uint8_t> garbage(64, 0x99);
  ASSERT_TRUE(bad.send(garbage));
  ASSERT_TRUE(wait_for([&] { return daemon.stats().protocol_errors == 1; }));

  // The daemon still accepts and serves a well-behaved publisher.
  RawClient good(address);
  ASSERT_TRUE(good.connected());
  Handshake hs;
  hs.process_name = "wellbehaved";
  ASSERT_TRUE(good.send(transport::encode_handshake(hs)));
  monitor::CollectedLogs empty;
  ASSERT_TRUE(good.send(analysis::encode_trace(empty)));
  ASSERT_TRUE(wait_for([&] { return sink.segments_seen() == 1; }));
  good.close();
  bad.close();
  daemon.stop();
  EXPECT_EQ(daemon.stats().protocol_errors, 1u);
  ASSERT_EQ(sink.connects.size(), 1u);  // garbage never completed handshake
  EXPECT_EQ(sink.connects[0].process_name, "wellbehaved");
}

// A publisher that dies mid-frame leaves a partial tail; the daemon keeps
// the complete prefix and discards the torn frame -- TraceTail's
// clean-prefix discipline on a socket.
TEST_P(TransportSocketTest, PartialFrameDiscardedOnAbruptClose) {
  RecordingSink sink;
  CollectorDaemon daemon({{listen_spec("partial")}, 0}, sink);
  daemon.start();

  monitor::CollectedLogs empty;
  const std::vector<std::uint8_t> segment = analysis::encode_trace(empty);
  ASSERT_GT(segment.size(), 8u);

  RawClient client(bound_address(daemon));
  ASSERT_TRUE(client.connected());
  Handshake hs;
  hs.process_name = "crasher";
  ASSERT_TRUE(client.send(transport::encode_handshake(hs)));
  ASSERT_TRUE(client.send(segment));  // one whole segment: the clean prefix
  ASSERT_TRUE(client.send(
      std::span(segment.data(), segment.size() / 2)));  // torn frame
  client.close();

  ASSERT_TRUE(wait_for([&] {
    std::lock_guard lk(sink.mu);
    return sink.disconnects == 1;
  }));
  daemon.stop();
  EXPECT_EQ(sink.segments_seen(), 1u);  // the whole one, not the torn one
  EXPECT_EQ(sink.unclean_disconnects, 1);
  EXPECT_EQ(daemon.stats().protocol_errors, 0u);  // torn != corrupt
  EXPECT_GT(daemon.stats().partial_tail_bytes, 0u);
}

// A writer that never reads -- so the daemon's CWCT hello sits unread in
// its receive queue -- and closes right after its last segment must still
// deliver every segment.  A bare close() over unread bytes resets the
// connection, and the daemon's kernel then discards whatever of the
// stream the daemon had not read yet; the graceful close half-closes,
// drains the hello, and waits for the daemon's EOF instead.
TEST_P(TransportSocketTest, NonReadingWriterDeliversEverySegment) {
  RecordingSink sink;
  CollectorDaemon daemon({{listen_spec("noread")}, 0}, sink);
  daemon.start();

  analysis::LogDatabase source;
  workload::LogSynthConfig synth;
  synth.total_calls = 2000;
  workload::synthesize_logs(synth, source);
  monitor::CollectedLogs logs;
  logs.records = source.records();
  const std::vector<std::uint8_t> segment = analysis::encode_trace(logs);
  constexpr std::uint64_t kSegments = 64;

  RawClient client(bound_address(daemon));
  ASSERT_TRUE(client.connected());
  Handshake hs;
  hs.process_name = "never-reads";
  ASSERT_GE(hs.protocol, 2u);  // the daemon answers with a CWCT hello
  ASSERT_TRUE(client.send(transport::encode_handshake(hs)));
  for (std::uint64_t i = 0; i < kSegments; ++i) {
    ASSERT_TRUE(client.send(segment));
  }
  EXPECT_TRUE(client.close_gracefully(10000));

  ASSERT_TRUE(wait_for([&] {
    std::lock_guard lk(sink.mu);
    return sink.disconnects == 1;
  }));
  daemon.stop();
  EXPECT_EQ(sink.segments_seen(), kSegments);
  EXPECT_EQ(sink.records_seen(), kSegments * logs.records.size());
  EXPECT_EQ(sink.unclean_disconnects, 0);
  EXPECT_EQ(daemon.stats().partial_tail_bytes, 0u);
}

// Daemon restart: the publisher reconnects with backoff, re-handshakes,
// resends from a frame boundary, and everything drained after the outage
// still arrives.  The pre-restart clean prefix stays ingested.
TEST_P(TransportSocketTest, PublisherReconnectsAcrossDaemonRestart) {
  RecordingSink sink;

  orb::Fabric fabric;
  workload::SyntheticSystem system(fabric, synthetic_config(55));
  monitor::Collector collector;
  system.attach_collector(collector);

  auto daemon1 = std::make_unique<CollectorDaemon>(
      CollectorDaemon::Options{{listen_spec("restart")}, 0}, sink);
  daemon1->start();
  // The restarted daemon must come back on the same concrete address, so
  // resolve the ephemeral port once and reuse it.
  const std::string address = bound_address(*daemon1);

  PublisherConfig config;
  config.address = address;
  config.process_name = "phoenix-feeder";
  config.interval_ms = 2;
  config.reconnect_initial_ms = 1;
  config.reconnect_max_ms = 16;
  EpochPublisher publisher(collector, config);
  publisher.start();

  system.run_transactions(3);
  system.wait_quiescent();
  // Quiesce phase 1: everything sent has been read and decoded, so the
  // restart cannot eat in-flight bytes.
  ASSERT_TRUE(wait_for([&] {
    return publisher.stats().records_sent > 0 &&
           sink.records_seen() == publisher.stats().records_sent;
  }));
  const std::uint64_t phase1_records = sink.records_seen();

  daemon1->stop();
  daemon1.reset();

  // Outage: the workload keeps running; drained segments queue up (or the
  // first may hit the dead socket and be rewound -- either way nothing is
  // lost, the queue is far under the back-pressure bound).
  system.run_transactions(3);
  system.wait_quiescent();
  std::this_thread::sleep_for(std::chrono::milliseconds(20));

  CollectorDaemon daemon2({{address}, 0}, sink);
  daemon2.start();
  EXPECT_TRUE(publisher.finish());

  const EpochPublisher::Stats stats = publisher.stats();
  EXPECT_GE(stats.reconnects, 1u);
  EXPECT_EQ(stats.dropped_records, 0u);
  ASSERT_TRUE(
      wait_for([&] { return sink.records_seen() >= stats.records_sent; }));
  daemon2.stop();

  // Clean prefix survived and the outage window was fully recovered.
  EXPECT_GE(sink.records_seen(), phase1_records);
  EXPECT_EQ(sink.records_seen(), stats.records_sent);
  {
    std::lock_guard lk(sink.mu);
    ASSERT_GE(sink.connects.size(), 2u);  // original + post-restart handshake
    for (const PeerInfo& peer : sink.connects) {
      EXPECT_EQ(peer.process_name, "phoenix-feeder");
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Transports, TransportSocketTest,
    ::testing::Values(EndpointKind::kUnix, EndpointKind::kTcp),
    [](const ::testing::TestParamInfo<EndpointKind>& info) {
      return std::string(transport::endpoint_kind_name(info.param));
    });

}  // namespace
}  // namespace causeway
