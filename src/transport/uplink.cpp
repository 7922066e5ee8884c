#include "transport/uplink.h"

#include <chrono>

#include <unistd.h>

#include "common/rng.h"
#include "common/wire_io.h"

namespace causeway::transport {

namespace {

std::uint64_t steady_ms() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

Uplink::Uplink(UplinkConfig config,
               std::function<void(const ControlDirective&)> on_directive)
    : config_(std::move(config)),
      address_(parse_endpoint(config_.address)),
      on_directive_(std::move(on_directive)),
      jitter_state_(static_cast<std::uint64_t>(::getpid()) ^
                    reinterpret_cast<std::uintptr_t>(this) ^ steady_ms()) {}

Uplink::~Uplink() { finish(flush_timeout_ms_); }

void Uplink::start() {
  std::lock_guard lk(mutex_);
  if (started_) return;
  started_ = true;
  worker_ = std::thread([this] { run(); });
}

bool Uplink::finish(std::uint64_t flush_timeout_ms) {
  {
    std::lock_guard lk(mutex_);
    if (finished_) return flushed_clean_;
    finished_ = true;
    flush_timeout_ms_ = flush_timeout_ms;
    if (!started_) {
      // Never started: run the worker just for the bounded flush.
      started_ = true;
      worker_ = std::thread([this] { run(); });
    }
    stop_requested_ = true;
  }
  cv_.notify_all();
  worker_.join();
  return flushed_clean_;
}

Uplink::Stats Uplink::stats() const {
  Stats s;
  s.segments_sent = segments_sent_.load(std::memory_order_relaxed);
  s.records_sent = records_sent_.load(std::memory_order_relaxed);
  s.bytes_sent = bytes_sent_.load(std::memory_order_relaxed);
  s.dropped_segments = dropped_segments_.load(std::memory_order_relaxed);
  s.dropped_records = dropped_records_.load(std::memory_order_relaxed);
  s.reconnects = reconnects_.load(std::memory_order_relaxed);
  s.directives_received = directives_received_.load(std::memory_order_relaxed);
  return s;
}

bool Uplink::queue_empty() const {
  for (const Entry& e : queue_) {
    if (e.is_segment) return false;
  }
  return true;
}

bool Uplink::offer_segment(std::vector<std::uint8_t> bytes,
                           std::uint64_t records) {
  {
    std::lock_guard lk(mutex_);
    if (inflight_segment_bytes_ + bytes.size() > config_.max_inflight_bytes) {
      // Back-pressure: the daemon (or the socket to it) is behind.  Drop
      // the *new* segment whole -- the queued clean prefix is never
      // cannibalized -- and remember the loss for the next drop notice.
      dropped_segments_.fetch_add(1, std::memory_order_relaxed);
      dropped_records_.fetch_add(records, std::memory_order_relaxed);
      pending_drop_records_ += records;
      pending_drop_segments_ += 1;
      return false;
    }
    inflight_segment_bytes_ += bytes.size();
    queue_.push_back(Entry{std::move(bytes), records, /*is_segment=*/true});
  }
  cv_.notify_all();
  return true;
}

void Uplink::note_drops(std::uint64_t records, std::uint64_t segments) {
  if (records == 0 && segments == 0) return;
  {
    std::lock_guard lk(mutex_);
    pending_drop_records_ += records;
    pending_drop_segments_ += segments;
  }
  cv_.notify_all();
}

void Uplink::enqueue_status_locked(std::uint64_t applied_seq) {
  ControlStatus status;
  status.applied_seq = applied_seq;
  status.sampled_out = pending_status_sampled_out_;
  status.sample_rate_index = last_rate_index_;
  status.mode = last_mode_;
  Entry e{encode_status(status), 0, /*is_segment=*/false};
  e.is_status = true;
  e.status_sampled_out = pending_status_sampled_out_;
  queue_.push_back(std::move(e));
  pending_status_sampled_out_ = 0;
  last_status_seq_ = applied_seq;
}

void Uplink::offer_status(std::uint64_t applied_seq, std::uint64_t sampled_out,
                          std::uint8_t sample_rate_index, std::uint8_t mode) {
  {
    std::lock_guard lk(mutex_);
    pending_status_sampled_out_ += sampled_out;
    last_offered_seq_ = applied_seq;
    last_rate_index_ = sample_rate_index;
    last_mode_ = mode;
    // A status ships when there is something to say (a directive newly
    // applied, or records suppressed) and the channel is live; otherwise
    // the delta is held so a later status -- possibly on the next
    // connection -- carries it.
    if (!control_live_ ||
        (applied_seq == last_status_seq_ && pending_status_sampled_out_ == 0)) {
      return;
    }
    enqueue_status_locked(applied_seq);
  }
  cv_.notify_all();
}

void Uplink::run() {
  for (;;) {
    const std::uint64_t now = steady_ms();
    {
      std::lock_guard lk(mutex_);
      if (stop_requested_) break;
    }
    ensure_connected(now);
    if (connected_.load(std::memory_order_relaxed)) read_endpoint();
    if (connected_.load(std::memory_order_relaxed)) pump_endpoint();

    // Sleep until the next reconnect attempt, a short retry tick when the
    // socket pushed back (EAGAIN with data queued), or a producer kick.
    // The wait is computed under the lock so an offer_* racing this point
    // either sees the lock held (and its notify lands inside the wait) or
    // enqueued before the queue check.
    std::unique_lock lk(mutex_);
    std::uint64_t wait = 100;
    if (!connected_.load(std::memory_order_relaxed)) {
      wait = next_connect_ms_ > now ? next_connect_ms_ - now : 1;
    } else if (!queue_.empty()) {
      wait = 2;
    }
    if (!stop_requested_) {
      cv_.wait_for(lk, std::chrono::milliseconds(
                           std::max<std::uint64_t>(wait, 1)));
    }
  }

  // Shutdown: flush with a deadline; whatever cannot be delivered in time
  // is counted as dropped, never waited on forever.
  const std::uint64_t deadline = steady_ms() + flush_timeout_ms_;
  for (;;) {
    const std::uint64_t now = steady_ms();
    ensure_connected(now);
    if (connected_.load(std::memory_order_relaxed)) read_endpoint();
    if (connected_.load(std::memory_order_relaxed)) pump_endpoint();
    {
      std::lock_guard lk(mutex_);
      if (queue_empty() && pending_drop_records_ == 0 &&
          pending_drop_segments_ == 0) {
        break;
      }
      // Loss with no live connection to report it on: the deadline below
      // is the only bound (note_drops folds back on disconnect).
    }
    if (now >= deadline) break;
    std::unique_lock lk(mutex_);
    cv_.wait_for(lk, std::chrono::milliseconds(1));
  }
  {
    std::lock_guard lk(mutex_);
    flushed_clean_ = queue_empty() && pending_drop_records_ == 0 &&
                     pending_drop_segments_ == 0;
    if (!flushed_clean_) {
      for (const Entry& e : queue_) {
        if (!e.is_segment) continue;
        dropped_segments_.fetch_add(1, std::memory_order_relaxed);
        dropped_records_.fetch_add(e.records, std::memory_order_relaxed);
      }
      queue_.clear();
      inflight_segment_bytes_ = 0;
      front_offset_ = 0;
    }
  }
  // Half-close and drain instead of a bare close: a CWCT the daemon sent
  // after our last read would otherwise sit unread, and closing over it
  // resets the connection, discarding the tail the daemon has not read.
  const std::uint64_t now = steady_ms();
  endpoint_.close_gracefully(deadline > now ? deadline - now : 0);
  connected_.store(false, std::memory_order_relaxed);
}

void Uplink::schedule_reconnect(std::uint64_t now_ms) {
  backoff_ms_ = backoff_ms_ == 0
                    ? config_.reconnect_initial_ms
                    : std::min(backoff_ms_ * 2, config_.reconnect_max_ms);
  std::uint64_t delay = backoff_ms_;
  if (config_.backoff_jitter && delay > 0) {
    // ±25%: after a daemon restart, N publishers spread their retries
    // instead of hammering the accept queue in lockstep.
    SplitMix64 rng(jitter_state_);
    jitter_state_ = rng.next();
    delay = delay * (750 + jitter_state_ % 501) / 1000;
  }
  next_connect_ms_ = now_ms + std::max<std::uint64_t>(delay, 1);
}

bool Uplink::ensure_connected(std::uint64_t now_ms) {
  if (connected_.load(std::memory_order_relaxed)) return true;
  if (now_ms < next_connect_ms_) return false;
  StreamEndpoint endpoint = connect_endpoint(
      address_, config_.connect_timeout_ms, config_.sndbuf_bytes);
  if (!endpoint.valid()) {
    schedule_reconnect(now_ms);
    return false;
  }
  endpoint_ = std::move(endpoint);
  backoff_ms_ = 0;
  if (ever_connected_) {
    reconnects_.fetch_add(1, std::memory_order_relaxed);
  }
  ever_connected_ = true;
  Handshake hs;
  hs.trace_format = config_.trace_format;
  hs.pid = config_.pid != 0 ? config_.pid
                            : static_cast<std::uint64_t>(::getpid());
  hs.process_name = config_.process_name;
  {
    std::lock_guard lk(mutex_);
    // The handshake leads every connection; front_offset_ is 0 here
    // (reset on disconnect), so prepending keeps frame boundaries.
    queue_.push_front(Entry{encode_handshake(hs), 0, /*is_segment=*/false});
  }
  connected_.store(true, std::memory_order_relaxed);
  return true;
}

void Uplink::read_endpoint() {
  std::uint8_t chunk[4096];
  for (;;) {
    const long got = io_read_some(endpoint_.fd(), chunk, sizeof(chunk));
    if (got < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      handle_disconnect();
      return;
    }
    if (got == 0) {  // daemon closed its end
      handle_disconnect();
      return;
    }
    in_buffer_.insert(in_buffer_.end(), chunk, chunk + got);
    try {
      std::size_t consumed = 0;
      for (;;) {
        const std::span<const std::uint8_t> rest(in_buffer_.data() + consumed,
                                                 in_buffer_.size() - consumed);
        if (rest.empty()) break;
        auto directive = try_decode_control(rest);
        if (!directive) break;
        consumed += directive->second;
        directives_received_.fetch_add(1, std::memory_order_relaxed);
        {
          // The first CWCT is the daemon's proof that it speaks protocol 2;
          // a sampled-out delta held from before (or from a previous
          // connection) can ship now.
          std::lock_guard lk(mutex_);
          if (!control_live_) {
            control_live_ = true;
            if (pending_status_sampled_out_ > 0 ||
                last_offered_seq_ != last_status_seq_) {
              enqueue_status_locked(last_offered_seq_);
            }
          }
        }
        if (on_directive_) on_directive_(directive->first);
      }
      if (consumed > 0) {
        in_buffer_.erase(
            in_buffer_.begin(),
            in_buffer_.begin() + static_cast<std::ptrdiff_t>(consumed));
      }
    } catch (const std::exception&) {
      // Garbage on the control channel: same containment as the daemon's --
      // drop the connection, reconnect fresh.
      handle_disconnect();
      return;
    }
    if (static_cast<std::size_t>(got) < sizeof(chunk)) return;
  }
}

void Uplink::pump_endpoint() {
  {
    std::lock_guard lk(mutex_);
    if (pending_drop_records_ != 0 || pending_drop_segments_ != 0) {
      DropNotice notice{pending_drop_records_, pending_drop_segments_};
      Entry e{encode_drop_notice(notice), pending_drop_records_,
              /*is_segment=*/false};
      e.notice_segments = pending_drop_segments_;
      queue_.push_back(std::move(e));
      pending_drop_records_ = 0;
      pending_drop_segments_ = 0;
    }
  }
  for (;;) {
    std::vector<std::uint8_t>* bytes = nullptr;
    std::size_t offset = 0;
    {
      std::lock_guard lk(mutex_);
      if (queue_.empty()) return;
      bytes = &queue_.front().bytes;
      offset = front_offset_;
    }
    const long sent = io_write_some(endpoint_.fd(), bytes->data() + offset,
                                    bytes->size() - offset);
    if (sent < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) return;
      handle_disconnect();
      return;
    }
    bytes_sent_.fetch_add(static_cast<std::uint64_t>(sent),
                          std::memory_order_relaxed);
    std::lock_guard lk(mutex_);
    front_offset_ += static_cast<std::size_t>(sent);
    if (front_offset_ == queue_.front().bytes.size()) {
      const Entry& e = queue_.front();
      if (e.is_segment) {
        segments_sent_.fetch_add(1, std::memory_order_relaxed);
        records_sent_.fetch_add(e.records, std::memory_order_relaxed);
        inflight_segment_bytes_ -= e.bytes.size();
      }
      queue_.pop_front();
      front_offset_ = 0;
    }
  }
}

void Uplink::handle_disconnect() {
  endpoint_.close();
  connected_.store(false, std::memory_order_relaxed);
  in_buffer_.clear();
  schedule_reconnect(steady_ms());
  std::lock_guard lk(mutex_);
  // The control channel died with the socket: the next daemon may be an
  // older build, so CWST stays quiet until a fresh CWCT proves otherwise.
  // Any directive already delivered keeps its effect -- control state is
  // the producer's, the connection only transports it.
  control_live_ = false;
  // The daemon discarded whatever partial frame was in flight; rewind the
  // front entry so the whole segment is resent on the next connection, and
  // shed stale envelope frames (a fresh handshake will be prepended; drop
  // notices and statuses fold back into the pending counters so no loss --
  // and no suppressed-record count -- goes unreported).
  front_offset_ = 0;
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->is_segment) {
      ++it;
      continue;
    }
    if (it->is_status) {
      pending_status_sampled_out_ += it->status_sampled_out;
    } else if (it->notice_segments != 0 || it->records != 0) {
      pending_drop_records_ += it->records;
      pending_drop_segments_ += it->notice_segments;
    }
    it = queue_.erase(it);
  }
}

}  // namespace causeway::transport
