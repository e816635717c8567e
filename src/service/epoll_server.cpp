#include "service/epoll_server.hpp"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/timerfd.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

namespace paramount::service {

namespace {

bool make_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

}  // namespace

bool EpollServer::start(std::string* error, ListenUnixError* why) {
  if (started_) return true;
  listener_ = listen_endpoint(options_.endpoint, options_.backlog, error, why);
  if (!listener_.valid()) return false;
  if (!make_nonblocking(listener_.get())) {
    if (error != nullptr) {
      *error = std::string("fcntl(listener): ") + std::strerror(errno);
    }
    listener_.reset();
    return false;
  }
  if (options_.endpoint.kind == Endpoint::Kind::kTcp) {
    tcp_port_ = local_tcp_port(listener_.get());
  } else {
    bound_unix_path_ = options_.endpoint.path;
  }
  loop_ = std::make_unique<EventLoop>();
  if (!loop_->valid()) {
    if (error != nullptr) *error = loop_->error();
    listener_.reset();
    loop_.reset();
    return false;
  }
  loop_->add(listener_.get(), EventLoop::kReadable,
             [this](std::uint32_t) { on_acceptable(); });
  loop_thread_ = std::thread([this] { loop_main(); });
  started_ = true;
  return true;
}

void EpollServer::loop_main() { loop_->run(); }

void EpollServer::stop() {
  if (!started_) return;
  started_ = false;
  loop_->stop();
  loop_thread_.join();
  // The reactor is down: this thread is now the only one touching
  // connection state. Finish every live session (drains detectors,
  // releases pins, seals counts) and drop the connections. A blocked
  // session's queued gate callback may still post() to the stopped loop —
  // harmless; the task queue dies with loop_ below.
  std::vector<std::uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) ids.push_back(id);
  for (const std::uint64_t id : ids) teardown(id, ReadStatus::kEof);
  // With the reactor down nobody is left to finish a linger: close now (the
  // peers already got their half-close).
  lingering_.clear();
  listener_.reset();
  if (!bound_unix_path_.empty()) ::unlink(bound_unix_path_.c_str());
  tenant_gates_.clear();
  {
    MutexLock lock(stats_mutex_);
    stats_.reactor_wakes = loop_->wakes();
  }
  loop_.reset();
}

void EpollServer::on_acceptable() {
  while (true) {
    const int raw = ::accept4(listener_.get(), nullptr, nullptr,
                              SOCK_NONBLOCK | SOCK_CLOEXEC);
    if (raw < 0) {
      if (errno == EINTR) continue;
      return;  // EAGAIN (drained) or listener shut down
    }
    const std::uint64_t conn_id = next_conn_id_++;
    auto conn = std::make_shared<Connection>(UniqueFd(raw));
    connections_.emplace(conn_id, conn);
    conn_by_fd_.emplace(raw, conn_id);
    {
      MutexLock lock(stats_mutex_);
      ++stats_.connections_accepted;
    }
    loop_->add(raw, conn->interest,
               [this, conn_id](std::uint32_t ready) {
                 on_connection_ready(conn_id, ready);
               });
  }
}

void EpollServer::on_connection_ready(std::uint64_t conn_id,
                                      std::uint32_t ready) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  std::shared_ptr<Connection> conn = it->second;
  if (ready & EventLoop::kWritable) {
    switch (conn->channel.flush()) {
      case FrameChannel::FlushStatus::kError:
        teardown(conn_id, ReadStatus::kError);
        return;
      case FrameChannel::FlushStatus::kDrained:
        if (conn->close_after_flush) {
          teardown(conn_id, ReadStatus::kEof);
          return;
        }
        break;
      case FrameChannel::FlushStatus::kPending:
        break;
    }
  }
  if ((ready & EventLoop::kReadable) && !conn->blocked &&
      !conn->close_after_flush) {
    read_quantum(conn, conn_id);
    if (connections_.find(conn_id) == connections_.end()) return;
  } else if (ready & EventLoop::kHangup) {
    // The peer died while this connection was deliberately not reading
    // (gate-blocked, or draining a final reply). ERR/HUP are unmaskable
    // and level-triggered: ignoring them here would re-fire the event
    // forever — a busy-spinning reactor pinned to a dead peer that can
    // never be torn down if its gate never frees. Tear it down now; the
    // stashed pending event was never charged, so nothing leaks.
    teardown(conn_id, ReadStatus::kError);
    return;
  }
  update_interest(conn_id, *conn);
}

void EpollServer::read_quantum(const std::shared_ptr<Connection>& conn,
                               std::uint64_t conn_id) {
  std::span<const std::uint8_t> payload;
  std::uint32_t stream_id = 0;
  // Bounded work per dispatch: a connection with a deep backlog yields
  // after kReadQuantum frames so its neighbours' Polls stay prompt.
  for (int i = 0; i < kReadQuantum; ++i) {
    const ReadStatus status = conn->channel.read_frame(&payload, &stream_id);
    switch (status) {
      case ReadStatus::kFrame:
        if (!dispatch_frame(conn, conn_id, stream_id, payload)) return;
        if (conn->blocked) return;  // retry_blocked() resumes the buffer
        break;
      case ReadStatus::kWouldBlock:
        return;
      case ReadStatus::kEof:
      case ReadStatus::kTruncated:
      case ReadStatus::kOversized:
      case ReadStatus::kError:
        teardown(conn_id, status);
        return;
    }
  }
  // Level-triggered epoll re-fires for the bytes still in the kernel, but
  // not for the frames already in the read buffer.
  if (conn->channel.has_buffered_frame()) schedule_read(conn_id, *conn);
}

void EpollServer::schedule_read(std::uint64_t conn_id, Connection& conn) {
  if (conn.read_scheduled) return;
  conn.read_scheduled = true;
  loop_->post([this, conn_id] {
    const auto it = connections_.find(conn_id);
    if (it == connections_.end()) return;
    it->second->read_scheduled = false;
    on_connection_ready(conn_id, EventLoop::kReadable);
  });
}

bool EpollServer::dispatch_frame(const std::shared_ptr<Connection>& conn,
                                 std::uint64_t conn_id,
                                 std::uint32_t stream_id,
                                 std::span<const std::uint8_t> payload) {
  if (conn->rejected_streams.count(stream_id) != 0) return true;  // drop
  SessionCore* core = nullptr;
  const auto it = conn->streams.find(stream_id);
  if (it != conn->streams.end()) {
    core = it->second.get();
  } else {
    core = open_stream(conn, conn_id, stream_id);
    if (core == nullptr) {
      // Rejected; the typed Error already went out. On stream 0 the refused
      // session was the connection's only one, so the connection ends with
      // it. A connection that keeps opening streams past the session limit
      // is hostile or broken: once its rejected set hits the cap, close it
      // instead of tracking ids without bound.
      if (stream_id != 0 &&
          conn->rejected_streams.size() < kMaxRejectedStreams) {
        return true;
      }
      close_when_flushed(conn_id, *conn);
      return false;
    }
  }
  switch (core->on_payload(payload)) {
    case SessionCore::Disposition::kContinue:
      return true;
    case SessionCore::Disposition::kBlocked:
      conn->blocked = true;
      conn->blocked_stream = stream_id;
      return true;
    case SessionCore::Disposition::kClose:
      finish_stream(*conn, stream_id);
      if (stream_id != 0) return true;
      // Plain single-session connection: the session's end closes it.
      close_when_flushed(conn_id, *conn);
      return false;
  }
  return true;
}

void EpollServer::close_when_flushed(std::uint64_t conn_id, Connection& conn) {
  if (conn.channel.has_pending_write()) {
    conn.close_after_flush = true;
  } else {
    teardown(conn_id, ReadStatus::kEof);
  }
}

SessionCore* EpollServer::open_stream(const std::shared_ptr<Connection>& conn,
                                      std::uint64_t conn_id,
                                      std::uint32_t stream_id) {
  {
    MutexLock lock(stats_mutex_);
    ++stats_.sessions_accepted;
    if (live_sessions_ >= options_.max_sessions) {
      ++stats_.sessions_rejected;
    }
  }
  if (live_sessions_ >= options_.max_sessions) {
    conn->channel.write_frame(
        encode_error(ErrorCode::kSessionLimit,
                     "server at --max-sessions=" +
                         std::to_string(options_.max_sessions)),
        stream_id);
    conn->rejected_streams.insert(stream_id);
    return nullptr;
  }
  SessionCore::Limits limits;
  limits.eviction_alert_threshold = options_.eviction_alert_threshold;
  // The send callback holds a raw Connection pointer: the core is owned by
  // conn->streams, so it can never outlive the connection it writes to.
  Connection* raw_conn = conn.get();
  auto core = std::make_unique<SessionCore>(
      next_session_id_++, limits,
      [raw_conn, stream_id](std::span<const std::uint8_t> reply) {
        return raw_conn->channel.write_frame(reply, stream_id);
      });
  core->set_gate_provider(
      [this](const HelloBody& hello) { return gate_for(hello); });
  // Fired from whatever thread releases submit budget: a pool worker
  // retiring a multi-state interval, or this loop thread itself when a
  // single-state interval finished inside submit(). Either way, post to the
  // loop so the retry runs after the current frame's handling returns.
  core->set_gate_ready([this, conn_id] {
    loop_->post([this, conn_id] { retry_blocked(conn_id); });
  });
  SessionCore* out = core.get();
  conn->streams.emplace(stream_id, std::move(core));
  ++live_sessions_;
  return out;
}

void EpollServer::finish_stream(Connection& conn, std::uint32_t stream_id) {
  const auto it = conn.streams.find(stream_id);
  if (it == conn.streams.end()) return;
  finish_session(*it->second);
  conn.streams.erase(it);
  --live_sessions_;
  if (conn.blocked && conn.blocked_stream == stream_id) conn.blocked = false;
}

void EpollServer::finish_session(SessionCore& core) {
  core.finish();
  const SessionCore::Result& result = core.result();
  MutexLock lock(stats_mutex_);
  ++stats_.sessions_completed;
  if (result.clean_shutdown) ++stats_.clean_shutdowns;
  stats_.protocol_errors += result.protocol_errors;
  stats_.frames += result.frames;
  stats_.leaked_pins += result.counts.outstanding_pins;
  stats_.submit_stalls += result.submit_stalls;
  if (result.hello_seen) {
    stats_.last_session = result.counts;
    stats_.last_racy_vars = result.racy_vars;
  }
  stats_cv_.notify_all();
}

void EpollServer::update_interest(std::uint64_t conn_id, Connection& conn) {
  (void)conn_id;
  std::uint32_t interest = 0;
  if (!conn.blocked && !conn.close_after_flush) {
    interest |= EventLoop::kReadable;
  }
  if (conn.channel.has_pending_write()) interest |= EventLoop::kWritable;
  if (interest != conn.interest &&
      loop_->modify(conn.channel.fd(), interest)) {
    conn.interest = interest;
  }
}

void EpollServer::teardown(std::uint64_t conn_id, ReadStatus why) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  std::shared_ptr<Connection> conn = it->second;
  // Each session on the connection gets the typed farewell for `why`
  // (truncated/oversized frames; EOF and socket errors finish silently),
  // drains its detector and releases every pin. A connection with no
  // session answers an unreadable frame itself, on stream 0.
  if (conn->streams.empty()) {
    if (const std::optional<ErrorBody> error = transport_error(why)) {
      conn->channel.write_frame(encode_error(error->code, error->message));
      MutexLock lock(stats_mutex_);
      ++stats_.protocol_errors;
    }
  }
  {
    const FrameChannel::IoCounts& io = conn->channel.io_counts();
    MutexLock lock(stats_mutex_);
    stats_.recv_calls += io.recv_calls;
    stats_.bytes_received += io.bytes_received;
    stats_.reactor_wakes = loop_->wakes();
  }
  std::vector<std::uint32_t> stream_ids;
  stream_ids.reserve(conn->streams.size());
  for (const auto& [sid, core] : conn->streams) stream_ids.push_back(sid);
  for (const std::uint32_t sid : stream_ids) {
    conn->streams.at(sid)->on_transport_status(why);
    finish_stream(*conn, sid);
  }
  // Best-effort: push out whatever reply bytes are still buffered (the
  // Error frames above, a Goodbye that was waiting on EPOLLOUT).
  conn->channel.flush();
  loop_->remove(conn->channel.fd());
  conn_by_fd_.erase(conn->channel.fd());
  connections_.erase(conn_id);
  linger(std::move(conn->channel));
}

void EpollServer::linger(FrameChannel channel) {
  channel.shutdown_write();
  Lingering entry{std::move(channel), UniqueFd(), 0};
  // Returning early closes the socket: the peer is already done, or no
  // timer bounds the wait.
  if (!entry.channel.discard_input(&entry.discarded)) return;
  entry.timer =
      UniqueFd(::timerfd_create(CLOCK_MONOTONIC, TFD_NONBLOCK | TFD_CLOEXEC));
  itimerspec deadline = {};
  deadline.it_value.tv_sec = kLingerTimeout.count() / 1000;
  deadline.it_value.tv_nsec = kLingerTimeout.count() % 1000 * 1000000;
  if (!entry.timer.valid() ||
      ::timerfd_settime(entry.timer.get(), 0, &deadline, nullptr) != 0) {
    return;
  }
  const int fd = entry.channel.fd();
  const int timer = entry.timer.get();
  lingering_.emplace(fd, std::move(entry));
  loop_->add(fd, EventLoop::kReadable, [this, fd](std::uint32_t) {
    const auto it = lingering_.find(fd);
    if (it != lingering_.end() &&
        !it->second.channel.discard_input(&it->second.discarded)) {
      end_linger(fd);
    }
  });
  loop_->add(timer, EventLoop::kReadable,
             [this, fd](std::uint32_t) { end_linger(fd); });
}

void EpollServer::end_linger(int fd) {
  const auto it = lingering_.find(fd);
  if (it == lingering_.end()) return;
  loop_->remove(fd);
  loop_->remove(it->second.timer.get());
  lingering_.erase(it);
}

void EpollServer::retry_blocked(std::uint64_t conn_id) {
  const auto it = connections_.find(conn_id);
  if (it == connections_.end()) return;
  Connection& conn = *it->second;
  if (!conn.blocked) return;
  const auto sit = conn.streams.find(conn.blocked_stream);
  if (sit == conn.streams.end()) {
    conn.blocked = false;
  } else {
    switch (sit->second->retry_pending()) {
      case SessionCore::Disposition::kBlocked:
        return;  // re-queued on the gate; stay paused
      case SessionCore::Disposition::kClose:
        finish_stream(conn, conn.blocked_stream);
        break;
      case SessionCore::Disposition::kContinue:
        conn.blocked = false;
        break;
    }
  }
  // Frames that arrived while the connection was paused may already sit in
  // its read buffer, where epoll will not report them: read on now.
  on_connection_ready(conn_id, EventLoop::kReadable);
}

std::shared_ptr<SubmitGate> EpollServer::gate_for(const HelloBody& hello) {
  if (options_.tenant_budget_bytes == 0) {
    return std::make_shared<SubmitGate>(options_.submit_budget_bytes);
  }
  auto& slot = tenant_gates_[hello.tenant_id];
  if (std::shared_ptr<SubmitGate> gate = slot.lock()) return gate;
  auto gate = std::make_shared<SubmitGate>(options_.tenant_budget_bytes);
  slot = gate;
  return gate;
}

ServerStats EpollServer::stats() const {
  MutexLock lock(stats_mutex_);
  return stats_;
}

bool EpollServer::wait_sessions_completed(
    std::uint64_t n, std::chrono::milliseconds timeout) const {
  const auto deadline = std::chrono::steady_clock::now() + timeout;
  MutexLock lock(stats_mutex_);
  while (stats_.sessions_completed < n) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return false;
    stats_cv_.wait_for(
        stats_mutex_, std::chrono::duration_cast<std::chrono::milliseconds>(
                          deadline - now));
  }
  return true;
}

}  // namespace paramount::service
