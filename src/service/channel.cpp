#include "service/channel.hpp"

#include "service/frame.hpp"

#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

namespace paramount::service {

namespace {

// Fills a sockaddr_un for `path`; returns false if it does not fit.
bool make_addr(const std::string& path, sockaddr_un* addr) {
  if (path.empty() || path.size() >= sizeof(addr->sun_path)) return false;
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return true;
}

// Frame header: u32 LE payload length, then u32 LE stream id.
constexpr std::size_t kFrameHeaderBytes = 8;

std::string errno_string(const char* what) {
  return std::string(what) + ": " + std::strerror(errno);
}

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void store_le32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
  p[2] = static_cast<std::uint8_t>(v >> 16);
  p[3] = static_cast<std::uint8_t>(v >> 24);
}

}  // namespace

void UniqueFd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

bool valid_socket_path(const std::string& path) {
  sockaddr_un addr;
  return make_addr(path, &addr);
}

const char* to_string(ListenUnixError error) {
  switch (error) {
    case ListenUnixError::kNone: return "none";
    case ListenUnixError::kBadPath: return "bad-path";
    case ListenUnixError::kSocket: return "socket";
    case ListenUnixError::kLiveListener: return "live-listener";
    case ListenUnixError::kBind: return "bind";
    case ListenUnixError::kListen: return "listen";
  }
  return "?";
}

UniqueFd listen_unix(const std::string& path, int backlog, std::string* error,
                     ListenUnixError* why) {
  const auto fail = [&](ListenUnixError code, std::string message) {
    if (why != nullptr) *why = code;
    *error = std::move(message);
    return UniqueFd();
  };
  if (why != nullptr) *why = ListenUnixError::kNone;
  sockaddr_un addr;
  if (!make_addr(path, &addr)) {
    return fail(ListenUnixError::kBadPath,
                "socket path empty or longer than sun_path: " + path);
  }
  // A file may already sit at `path`: either a stale socket a crashed daemon
  // left behind (bind would fail EADDRINUSE even though nobody listens) or a
  // *live* daemon's socket. Unlinking unconditionally would silently steal
  // the live daemon's socket, so probe with connect() first: an answer means
  // live — refuse with a typed error; no answer means stale — unlink and
  // rebind.
  {
    UniqueFd probe(::socket(AF_UNIX, SOCK_STREAM, 0));
    if (!probe.valid()) {
      return fail(ListenUnixError::kSocket, errno_string("socket"));
    }
    if (::connect(probe.get(), reinterpret_cast<const sockaddr*>(&addr),
                  sizeof(addr)) == 0) {
      return fail(ListenUnixError::kLiveListener,
                  "a live daemon is listening on " + path +
                      " (refusing to steal its socket)");
    }
    if (errno != ENOENT) {
      // Exists but nobody answered (ECONNREFUSED and friends): stale file.
      ::unlink(path.c_str());
    }
  }
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    return fail(ListenUnixError::kSocket, errno_string("socket"));
  }
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
             sizeof(addr)) != 0) {
    return fail(ListenUnixError::kBind, errno_string("bind"));
  }
  if (::listen(fd.get(), backlog) != 0) {
    return fail(ListenUnixError::kListen, errno_string("listen"));
  }
  return fd;
}

UniqueFd connect_unix(const std::string& path, std::string* error) {
  sockaddr_un addr;
  if (!make_addr(path, &addr)) {
    *error = "socket path empty or longer than sun_path: " + path;
    return UniqueFd();
  }
  UniqueFd fd(::socket(AF_UNIX, SOCK_STREAM, 0));
  if (!fd.valid()) {
    *error = errno_string("socket");
    return UniqueFd();
  }
  if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr),
                sizeof(addr)) != 0) {
    *error = errno_string("connect");
    return UniqueFd();
  }
  return fd;
}

bool parse_endpoint(const std::string& spec, Endpoint* endpoint,
                    std::string* error) {
  if (spec.rfind("tcp:", 0) == 0) {
    const std::string rest = spec.substr(4);
    const std::size_t colon = rest.rfind(':');
    if (colon == std::string::npos) {
      *error = "tcp endpoint must be tcp:HOST:PORT, got '" + spec + "'";
      return false;
    }
    const std::string port_text = rest.substr(colon + 1);
    if (port_text.empty() ||
        port_text.find_first_not_of("0123456789") != std::string::npos) {
      *error = "tcp endpoint port must be numeric, got '" + port_text + "'";
      return false;
    }
    unsigned long port = 0;
    try {
      port = std::stoul(port_text);
    } catch (...) {
      port = 65536;
    }
    if (port > 65535) {
      *error = "tcp endpoint port out of range: " + port_text;
      return false;
    }
    endpoint->kind = Endpoint::Kind::kTcp;
    endpoint->host = rest.substr(0, colon);
    endpoint->port = static_cast<std::uint16_t>(port);
    endpoint->path.clear();
    return true;
  }
  std::string path = spec;
  if (spec.rfind("unix:", 0) == 0) path = spec.substr(5);
  if (!valid_socket_path(path)) {
    *error = "socket path empty or longer than sun_path: " + path;
    return false;
  }
  endpoint->kind = Endpoint::Kind::kUnix;
  endpoint->path = std::move(path);
  endpoint->host.clear();
  endpoint->port = 0;
  return true;
}

namespace {

// getaddrinfo wrapper shared by listen_tcp/connect_tcp; returns the first
// address that the operation (bind or connect) succeeds on.
UniqueFd tcp_socket_for(const std::string& host, std::uint16_t port,
                        bool for_listen, std::string* error) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  if (for_listen) hints.ai_flags = AI_PASSIVE;
  const char* node =
      (host.empty() || host == "*") ? nullptr : host.c_str();
  const std::string port_text = std::to_string(port);
  addrinfo* result = nullptr;
  const int rc = ::getaddrinfo(node, port_text.c_str(), &hints, &result);
  if (rc != 0) {
    *error = std::string("getaddrinfo: ") + ::gai_strerror(rc);
    return UniqueFd();
  }
  UniqueFd fd;
  std::string last_error = "no usable address";
  for (addrinfo* ai = result; ai != nullptr; ai = ai->ai_next) {
    UniqueFd candidate(
        ::socket(ai->ai_family, ai->ai_socktype, ai->ai_protocol));
    if (!candidate.valid()) {
      last_error = errno_string("socket");
      continue;
    }
    if (for_listen) {
      const int one = 1;
      ::setsockopt(candidate.get(), SOL_SOCKET, SO_REUSEADDR, &one,
                   sizeof(one));
      if (::bind(candidate.get(), ai->ai_addr, ai->ai_addrlen) != 0) {
        last_error = errno_string("bind");
        continue;
      }
    } else {
      if (::connect(candidate.get(), ai->ai_addr, ai->ai_addrlen) != 0) {
        last_error = errno_string("connect");
        continue;
      }
    }
    fd = std::move(candidate);
    break;
  }
  ::freeaddrinfo(result);
  if (!fd.valid()) *error = last_error;
  return fd;
}

void set_tcp_nodelay(int fd) {
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

UniqueFd listen_tcp(const std::string& host, std::uint16_t port, int backlog,
                    std::string* error) {
  UniqueFd fd = tcp_socket_for(host, port, /*for_listen=*/true, error);
  if (!fd.valid()) return fd;
  if (::listen(fd.get(), backlog) != 0) {
    *error = errno_string("listen");
    return UniqueFd();
  }
  return fd;
}

UniqueFd connect_tcp(const std::string& host, std::uint16_t port,
                     std::string* error) {
  const std::string node = host.empty() ? "127.0.0.1" : host;
  UniqueFd fd = tcp_socket_for(node, port, /*for_listen=*/false, error);
  if (fd.valid()) set_tcp_nodelay(fd.get());
  return fd;
}

std::uint16_t local_tcp_port(int fd) {
  sockaddr_storage addr{};
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    return 0;
  }
  if (addr.ss_family == AF_INET) {
    return ntohs(reinterpret_cast<const sockaddr_in*>(&addr)->sin_port);
  }
  if (addr.ss_family == AF_INET6) {
    return ntohs(reinterpret_cast<const sockaddr_in6*>(&addr)->sin6_port);
  }
  return 0;
}

UniqueFd listen_endpoint(const Endpoint& endpoint, int backlog,
                         std::string* error, ListenUnixError* why) {
  if (endpoint.kind == Endpoint::Kind::kTcp) {
    if (why != nullptr) *why = ListenUnixError::kNone;
    return listen_tcp(endpoint.host, endpoint.port, backlog, error);
  }
  return listen_unix(endpoint.path, backlog, error, why);
}

UniqueFd connect_endpoint(const Endpoint& endpoint, std::string* error) {
  if (endpoint.kind == Endpoint::Kind::kTcp) {
    return connect_tcp(endpoint.host, endpoint.port, error);
  }
  return connect_unix(endpoint.path, error);
}

const char* to_string(ReadStatus status) {
  switch (status) {
    case ReadStatus::kFrame: return "frame";
    case ReadStatus::kEof: return "eof";
    case ReadStatus::kTruncated: return "truncated";
    case ReadStatus::kOversized: return "oversized";
    case ReadStatus::kWouldBlock: return "would-block";
    case ReadStatus::kError: return "error";
  }
  return "?";
}

FrameChannel::FrameChannel(UniqueFd fd) : fd_(std::move(fd)) {
  // The reactor's fds come from accept4(SOCK_NONBLOCK), a client's from a
  // plain connect(): the fd itself says which write path applies.
  const int flags = fd_.valid() ? ::fcntl(fd_.get(), F_GETFL, 0) : -1;
  nonblocking_ = flags >= 0 && (flags & O_NONBLOCK) != 0;
}

FrameChannel::~FrameChannel() { flush_if_blocking(); }

ReadStatus FrameChannel::read_frame(std::span<const std::uint8_t>* payload,
                                    std::uint32_t* stream_id) {
  // Frames come out of the read buffer; the socket is read only when the
  // buffer holds no complete frame, one recv() per pass. Partial progress
  // stays in the buffer, so a kWouldBlock return loses nothing whatever
  // the split point.
  while (true) {
    std::size_t need = kFrameHeaderBytes;
    if (in_end_ - in_begin_ >= kFrameHeaderBytes) {
      const std::uint8_t* frame = in_.get() + in_begin_;
      const std::uint32_t len = load_le32(frame);
      // Reject before sizing the buffer: a hostile prefix must not size it.
      if (len > kMaxFramePayload) return ReadStatus::kOversized;
      need += len;
      if (in_end_ - in_begin_ >= need) {
        *payload = {frame + kFrameHeaderBytes, len};
        if (stream_id != nullptr) *stream_id = load_le32(frame + 4);
        in_begin_ += need;
        return ReadStatus::kFrame;
      }
    }
    if (const std::optional<ReadStatus> status = fill(need)) return *status;
  }
}

ReadStatus FrameChannel::read_frame(std::vector<std::uint8_t>* payload,
                                    std::uint32_t* stream_id) {
  std::span<const std::uint8_t> view;
  const ReadStatus status = read_frame(&view, stream_id);
  if (status == ReadStatus::kFrame) {
    payload->assign(view.begin(), view.end());
    // Nothing views the buffer now: a drained one goes at once, so a
    // blocking client waiting for its next reply holds none.
    if (in_begin_ == in_end_) release_input();
  }
  return status;
}

bool FrameChannel::has_buffered_frame() const {
  const std::size_t buffered = in_end_ - in_begin_;
  if (buffered < kFrameHeaderBytes) return false;
  const std::uint32_t len = load_le32(in_.get() + in_begin_);
  return len > kMaxFramePayload || buffered - kFrameHeaderBytes >= len;
}

std::optional<ReadStatus> FrameChannel::fill(std::size_t need) {
  const std::size_t buffered = in_end_ - in_begin_;
  const std::size_t cap = std::max(kReadChunk, need);
  if (in_cap_ != cap) {
    // First read, a frame longer than the chunk, or back to the chunk size
    // after one.
    std::unique_ptr<std::uint8_t[]> fresh(new std::uint8_t[cap]);
    if (buffered > 0) std::memcpy(fresh.get(), in_.get() + in_begin_, buffered);
    in_ = std::move(fresh);
    in_cap_ = cap;
  } else if (in_begin_ > 0 && buffered > 0) {
    std::memmove(in_.get(), in_.get() + in_begin_, buffered);
  }
  in_begin_ = 0;
  in_end_ = buffered;
  // A blocking read may wait for a reply to the frames still held here. A
  // failed flush does not fail the read: what the peer sent before the
  // failure (its Error, then EOF) is still there to read.
  flush_if_blocking();
  while (true) {
    ++counts_.recv_calls;
    const ssize_t n = ::recv(fd_.get(), in_.get() + in_end_, cap - in_end_, 0);
    if (n > 0) {
      in_end_ += static_cast<std::size_t>(n);
      counts_.bytes_received += static_cast<std::size_t>(n);
      return std::nullopt;
    }
    if (n < 0 && errno == EINTR) continue;
    ReadStatus status = ReadStatus::kError;
    if (n == 0) {
      // EOF between frames is orderly; anywhere inside one, it cut it short.
      status = buffered == 0 ? ReadStatus::kEof : ReadStatus::kTruncated;
    } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
      status = ReadStatus::kWouldBlock;
    }
    if (buffered == 0) release_input();
    return status;
  }
}

void FrameChannel::release_input() {
  in_.reset();
  in_cap_ = 0;
  in_begin_ = 0;
  in_end_ = 0;
}

bool FrameChannel::write_frame(std::span<const std::uint8_t> payload,
                               std::uint32_t stream_id) {
  if (write_failed_) return false;
  std::uint8_t header[kFrameHeaderBytes];
  store_le32(header, static_cast<std::uint32_t>(payload.size()));
  store_le32(header + 4, stream_id);
  out_.insert(out_.end(), header, header + sizeof(header));
  ++counts_.frames_sent;
  if (!nonblocking_ && pending_write_bytes() + payload.size() < kWriteChunk) {
    // Held for a flush point: the frame still fits in the chunk.
    out_.insert(out_.end(), payload.begin(), payload.end());
    return true;
  }
  // The payload rides behind the buffered bytes (its header among them) in
  // one sendmsg, uncopied: on TCP_NODELAY a lone frame is one packet, not a
  // header packet and a payload packet.
  return send_buffered(payload) != FlushStatus::kError;
}

FrameChannel::FlushStatus FrameChannel::flush() { return send_buffered({}); }

FrameChannel::FlushStatus FrameChannel::send_buffered(
    std::span<const std::uint8_t> tail) {
  if (write_failed_) return FlushStatus::kError;
  std::size_t tail_sent = 0;
  while (out_pos_ < out_.size() || tail_sent < tail.size()) {
    iovec iov[2];
    int iovcnt = 0;
    if (out_pos_ < out_.size()) {
      iov[iovcnt].iov_base = out_.data() + out_pos_;
      iov[iovcnt].iov_len = out_.size() - out_pos_;
      ++iovcnt;
    }
    if (tail_sent < tail.size()) {
      iov[iovcnt].iov_base = const_cast<std::uint8_t*>(tail.data()) + tail_sent;
      iov[iovcnt].iov_len = tail.size() - tail_sent;
      ++iovcnt;
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = static_cast<std::size_t>(iovcnt);
    ++counts_.send_calls;
    const ssize_t w = ::sendmsg(fd_.get(), &msg, MSG_NOSIGNAL);
    if (w >= 0) {
      const std::size_t sent = static_cast<std::size_t>(w);
      counts_.bytes_sent += sent;
      const std::size_t from_buffer = std::min(sent, out_.size() - out_pos_);
      out_pos_ += from_buffer;
      tail_sent += sent - from_buffer;
      continue;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      // The kernel pushed back (a non-blocking fd, or a blocking one with a
      // send timeout): queue the unsent tail behind the backlog; the caller
      // flush()es when the fd turns writable.
      out_.insert(out_.end(),
                  tail.begin() + static_cast<std::ptrdiff_t>(tail_sent),
                  tail.end());
      return FlushStatus::kPending;
    }
    write_failed_ = true;
    out_.clear();
    out_pos_ = 0;
    return FlushStatus::kError;
  }
  out_.clear();
  out_pos_ = 0;
  return FlushStatus::kDrained;
}

void FrameChannel::flush_if_blocking() {
  if (!nonblocking_ && has_pending_write()) flush();
}

bool FrameChannel::set_nonblocking(bool enabled) {
  const int flags = ::fcntl(fd_.get(), F_GETFL, 0);
  if (flags < 0) return false;
  const int wanted = enabled ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd_.get(), F_SETFL, wanted) != 0) return false;
  nonblocking_ = enabled;
  return true;
}

void FrameChannel::shutdown_write() {
  flush_if_blocking();
  ::shutdown(fd_.get(), SHUT_WR);
}

bool FrameChannel::discard_input(std::size_t* discarded) {
  release_input();
  std::uint8_t scratch[16384];
  while (*discarded < kLingerDiscardCap) {
    const ssize_t n = ::recv(fd_.get(), scratch, sizeof(scratch), MSG_DONTWAIT);
    if (n > 0) {
      *discarded += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK);
  }
  return false;
}

}  // namespace paramount::service
