#include "transport/publisher.h"

#include <algorithm>
#include <chrono>

#include "analysis/trace_io.h"

namespace causeway::transport {

namespace {

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

UplinkConfig EpochPublisher::uplink_config(const PublisherConfig& config,
                                           std::uint32_t trace_format) {
  UplinkConfig uc;
  uc.address = config.address;
  uc.process_name = config.process_name;
  uc.trace_format = trace_format;
  uc.max_inflight_bytes = config.max_inflight_bytes;
  uc.reconnect_initial_ms = config.reconnect_initial_ms;
  uc.reconnect_max_ms = config.reconnect_max_ms;
  uc.backoff_jitter = config.backoff_jitter;
  uc.sndbuf_bytes = config.sndbuf_bytes;
  return uc;
}

EpochPublisher::EpochPublisher(monitor::Collector& collector,
                               PublisherConfig config)
    : collector_(collector),
      config_(std::move(config)),
      trace_format_(config_.trace_format != 0 ? config_.trace_format
                                              : analysis::kTraceFormatDefault),
      uplink_(uplink_config(config_, trace_format_),
              [this](const ControlDirective& d) { handle_directive(d); }) {
  if (config_.interval_ms == 0) config_.interval_ms = 1;
}

EpochPublisher::~EpochPublisher() { finish(); }

void EpochPublisher::start() {
  std::lock_guard lk(mutex_);
  if (started_) return;
  started_ = true;
  uplink_.start();
  worker_ = std::thread([this] { run(); });
}

bool EpochPublisher::finish() {
  {
    std::lock_guard lk(mutex_);
    if (finished_) return flushed_clean_;
    finished_ = true;
    if (!started_) {
      // Never started: run the worker just for the final drain.
      started_ = true;
      worker_ = std::thread([this] { run(); });
    }
    stop_requested_ = true;
  }
  cv_.notify_all();
  worker_.join();
  // The final epoch is queued by now; the uplink owns the bounded flush
  // (and, when the daemon never answered, the drop accounting).
  const bool clean = uplink_.finish(config_.flush_timeout_ms);
  std::lock_guard lk(mutex_);
  flushed_clean_ = clean;
  return clean;
}

EpochPublisher::Stats EpochPublisher::stats() const {
  const Uplink::Stats u = uplink_.stats();
  Stats s;
  s.epochs_drained = epochs_drained_.load(std::memory_order_relaxed);
  s.segments_sent = u.segments_sent;
  s.records_sent = u.records_sent;
  s.bytes_sent = u.bytes_sent;
  s.dropped_segments = u.dropped_segments;
  s.dropped_records = u.dropped_records;
  s.reconnects = u.reconnects;
  s.directives_received = u.directives_received;
  s.sampled_out_records = sampled_out_records_.load(std::memory_order_relaxed);
  s.last_applied_seq = last_applied_seq_.load(std::memory_order_relaxed);
  return s;
}

void EpochPublisher::run() {
  std::uint64_t interval = config_.interval_ms;
  std::uint64_t next_drain = steady_ms() + interval;
  for (;;) {
    {
      std::lock_guard lk(mutex_);
      if (stop_requested_) break;
    }
    if (steady_ms() >= next_drain) {
      drain_once(false);
      if (config_.adaptive) {
        interval = monitor::adaptive_interval_ms(
            interval, config_.interval_ms, last_drain_dropped_,
            last_drain_utilization_);
      }
      next_drain = steady_ms() + interval;
    }
    std::unique_lock lk(mutex_);
    if (stop_requested_) break;
    const std::uint64_t now = steady_ms();
    const std::uint64_t wait = next_drain > now ? next_drain - now : 1;
    cv_.wait_for(lk, std::chrono::milliseconds(std::max<std::uint64_t>(
                         wait, 1)));
  }
  // Shutdown: ship the final epoch -- always, even when empty, so the
  // daemon learns the full domain inventory.
  drain_once(true);
}

void EpochPublisher::drain_once(bool final_drain) {
  // Everything staged up to here -- directive seq staged_seq_ -- is what
  // this drain boundary applies.  (Directives landing mid-drain are applied
  // and acknowledged by the next epoch.)
  const std::uint64_t applied_seq =
      staged_seq_.load(std::memory_order_acquire);
  monitor::CollectedLogs logs = collector_.drain();
  epochs_drained_.fetch_add(1, std::memory_order_relaxed);
  last_applied_seq_.store(applied_seq, std::memory_order_relaxed);
  sampled_out_records_.fetch_add(logs.sampled_out, std::memory_order_relaxed);
  last_drain_dropped_ = logs.dropped;
  last_drain_utilization_ = logs.ring_utilization;

  // Control acknowledgement / sampled-out accounting.  The uplink ships a
  // CWST when its control channel is live and there is something to say;
  // otherwise it holds the delta (across reconnects) for a later status.
  // A publisher that refuses control never speaks CWST at all.
  if (config_.accept_control) {
    const std::uint8_t mode =
        logs.domains.empty() ? 0
                             : static_cast<std::uint8_t>(logs.domains[0].mode);
    uplink_.offer_status(applied_seq, logs.sampled_out,
                         current_rate_index_.load(std::memory_order_relaxed),
                         mode);
  }

  // Empty intermediate epochs carry nothing a later epoch will not repeat
  // (every drain re-lists every domain), so skip the wire traffic.  The
  // final epoch always ships: it is the domain inventory of record for a
  // process that logged nothing.
  if (!final_drain && logs.records.empty() && logs.dropped == 0) return;
  // encode_trace gathers the drained records into columns and emits them
  // through the batch varint column writer -- the publisher's per-epoch
  // encode cost is the columnar writer's, not a per-record byte loop.
  const std::uint64_t records = logs.records.size();
  uplink_.offer_segment(analysis::encode_trace(logs, trace_format_), records);
}

void EpochPublisher::handle_directive(const ControlDirective& directive) {
  if (!config_.accept_control) return;  // decoded for framing, then ignored
  staged_seq_.store(directive.seq, std::memory_order_release);
  monitor::ControlUpdate update;
  if (directive.mode && *directive.mode <= 2) {
    update.mode = static_cast<monitor::ProbeMode>(*directive.mode);
  }
  if (directive.sample_rate_index &&
      *directive.sample_rate_index < monitor::kSampleRateCount) {
    update.sample_rate_index = *directive.sample_rate_index;
    current_rate_index_.store(*directive.sample_rate_index,
                              std::memory_order_relaxed);
  }
  if (directive.enabled) update.enabled = *directive.enabled;
  if (directive.muted_interfaces) {
    update.muted_interfaces = *directive.muted_interfaces;
  }
  if (!update.empty()) collector_.stage_control(update);
}

}  // namespace causeway::transport
