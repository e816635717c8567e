// Socket plumbing for paramountd: RAII fds, Unix-domain and TCP
// listen/connect helpers, endpoint parsing, and the length-prefixed,
// stream-multiplexed frame channel.
//
// This directory is the only place in the tree allowed to touch raw socket
// send/recv (tools/lint/paramount_lint.py rule `raw-socket`); everything
// above it — sessions, the server, tools, tests — speaks frames through
// FrameChannel, so the partial-read/partial-write/EINTR/SIGPIPE handling
// lives in exactly one spot.
//
// Wire framing (protocol v2): every frame is an 8-byte little-endian header
// — u32 payload length, u32 stream id — followed by the payload. Stream ids
// let many logical enumeration sessions share one connection (EpollServer
// demultiplexes on them); single-session users leave the id 0.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace paramount::service {

// Owns a file descriptor; closes on destruction. -1 = empty.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(other.release()) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.release();
    }
    return *this;
  }
  UniqueFd(const UniqueFd&) = delete;
  UniqueFd& operator=(const UniqueFd&) = delete;
  ~UniqueFd() { reset(); }

  int get() const { return fd_; }
  bool valid() const { return fd_ >= 0; }
  int release() { return std::exchange(fd_, -1); }
  void reset();

 private:
  int fd_ = -1;
};

// True iff `path` fits a sockaddr_un (the ~108-byte sun_path limit) and is
// non-empty; the daemons validate Unix --listen specs with this before
// binding.
bool valid_socket_path(const std::string& path);

// Why listen_unix failed; kLiveListener is the typed "socket stealing"
// refusal — a daemon is answering on that path, so a second instance must
// not unlink it.
enum class ListenUnixError {
  kNone,
  kBadPath,       // empty or longer than sun_path
  kSocket,        // socket() failed
  kLiveListener,  // something connect()ed — a live daemon owns the path
  kBind,
  kListen,
};

const char* to_string(ListenUnixError error);

// Binds + listens on a Unix-domain stream socket. A pre-existing file at
// `path` is probed with connect() first: if anything answers the path
// belongs to a live daemon and this fails with kLiveListener (no unlink —
// a second daemon must never steal a live daemon's socket); a stale file
// nobody answers on is unlinked and rebound. Returns an invalid fd with
// *error set on failure; *why (optional) carries the typed reason.
UniqueFd listen_unix(const std::string& path, int backlog, std::string* error,
                     ListenUnixError* why = nullptr);

// Connects to a listening Unix-domain socket.
UniqueFd connect_unix(const std::string& path, std::string* error);

// ---- endpoints: "tcp:HOST:PORT" or a Unix-socket path ----

struct Endpoint {
  enum class Kind { kUnix, kTcp };
  Kind kind = Kind::kUnix;
  std::string path;           // kUnix
  std::string host;           // kTcp
  std::uint16_t port = 0;     // kTcp (0 = ephemeral, for tests/bench)
};

// Parses "tcp:HOST:PORT" (host may be empty for wildcard) or "unix:PATH";
// anything without a scheme prefix is a Unix path. Returns false with
// *error on a malformed spec (bad port, empty path).
bool parse_endpoint(const std::string& spec, Endpoint* endpoint,
                    std::string* error);

// Listens on a TCP socket (SO_REUSEADDR; host "" or "*" binds the
// wildcard address). Returns an invalid fd with *error set on failure.
UniqueFd listen_tcp(const std::string& host, std::uint16_t port, int backlog,
                    std::string* error);

// Connects to host:port over TCP and sets TCP_NODELAY: a FrameChannel
// already batches its frames into chunk-sized writes and sends the rest at
// a flush point, where Nagle would only hold them back.
UniqueFd connect_tcp(const std::string& host, std::uint16_t port,
                     std::string* error);

// The port a TCP listener actually bound (resolves port 0), or 0 on error.
std::uint16_t local_tcp_port(int fd);

// Dispatch on Endpoint::kind.
UniqueFd listen_endpoint(const Endpoint& endpoint, int backlog,
                         std::string* error, ListenUnixError* why = nullptr);
UniqueFd connect_endpoint(const Endpoint& endpoint, std::string* error);

enum class ReadStatus {
  kFrame,       // *payload holds one complete frame payload
  kEof,         // orderly close at a frame boundary
  kTruncated,   // stream died mid-frame (header or payload)
  kOversized,   // length prefix above kMaxFramePayload
  kWouldBlock,  // non-blocking fd: frame incomplete, call again on readable
  kError,       // transport error (errno-level)
};

const char* to_string(ReadStatus status);

// Bounds of a lingering close. Closing a socket that still holds unread
// input makes the kernel reset the connection, and the peer then reads a
// reset error in place of the EOF after the server's last frame (over TCP
// the reset can even destroy that frame). So a server half-closes first and
// discards input until the peer's EOF, at most this many bytes and for at
// most this long, and only then closes.
inline constexpr std::size_t kLingerDiscardCap = std::size_t{1} << 20;
inline constexpr std::chrono::milliseconds kLingerTimeout{2000};

// Frame transport over a connected socket.
//
// Reads are buffered: when the read buffer holds no complete frame, one
// recv() asks for up to kReadChunk bytes (more only when a single frame is
// longer, and only once its header passed the kMaxFramePayload check), and
// read_frame then hands out the buffered frames one by one as spans into
// the buffer. A span stays valid until the next read_frame or
// discard_input call on the channel. The buffer is freed whenever a read
// finds it drained and the socket empty too (kWouldBlock, kEof, kError),
// so an idle non-blocking connection holds none.
//
// Writes on a blocking fd are buffered too, so that a stream of small
// frames costs one kernel send per kWriteChunk bytes, not one per frame.
// write_frame appends the frame to the write buffer, and the buffer goes to
// the kernel in one send at the first of these flush points:
//   - the buffered bytes reach kWriteChunk (a frame that does not fit in a
//     chunk goes out with them, in the same sendmsg, uncopied);
//   - read_frame is about to read the socket;
//   - flush() is called;
//   - shutdown_write() is called;
//   - the channel is destroyed.
// So a frame may wait in the buffer until a flush point. A client that
// writes requests and then reads their replies needs nothing more; a
// producer that stops writing without reading (a paused live feed) must
// call flush(), or its last frames never reach the peer. A failed send is
// sticky: every later write_frame returns false and flush() kError, and the
// unsendable bytes are dropped. A failed flush inside read_frame does not
// fail the read, so the reply the peer sent before it closed (a typed
// Error, say) is still read.
//
// On a blocking fd every call runs to completion. On a non-blocking fd
// (set_nonblocking, or an fd opened with O_NONBLOCK: the mode is read from
// the fd) the channel keeps partial progress between calls: read_frame
// returns kWouldBlock mid-frame and resumes where it left off, and
// write_frame sends at once, queueing whatever the kernel would not take —
// flush() retries the backlog when the fd signals writable. Level-triggered
// epoll fires for bytes still in the kernel, not for frames already in the
// read buffer: a reactor that stops reading while has_buffered_frame()
// holds must come back to the channel on its own.
class FrameChannel {
 public:
  // Bytes one recv() asks for while the buffered frame fits in them.
  static constexpr std::size_t kReadChunk = std::size_t{16} << 10;
  // Bytes a blocking channel buffers before it sends them.
  static constexpr std::size_t kWriteChunk = kReadChunk;

  // What the channel asked of the kernel: each send or recv call counts
  // once, however many bytes it moved (recv calls made to discard a
  // lingering peer's input are not counted). frames_sent counts the frames
  // write_frame accepted.
  struct IoCounts {
    std::uint64_t send_calls = 0;
    std::uint64_t bytes_sent = 0;
    std::uint64_t recv_calls = 0;
    std::uint64_t bytes_received = 0;
    std::uint64_t frames_sent = 0;
  };

  explicit FrameChannel(UniqueFd fd);
  // Flushes a blocking channel's buffered frames (best effort; call flush()
  // first to learn whether they went out).
  ~FrameChannel();
  FrameChannel(FrameChannel&&) noexcept = default;
  // Assigning over a channel would drop its buffered frames.
  FrameChannel& operator=(FrameChannel&&) = delete;

  // Reads one frame; *payload views the read buffer (see above for how
  // long). An oversized header poisons the stream (the payload is unread,
  // so framing is lost); callers must close after
  // kOversized/kTruncated/kError. kWouldBlock (non-blocking fds only) keeps
  // the partial frame buffered; call again when the fd is readable.
  // *stream_id (optional) receives the frame's stream id.
  ReadStatus read_frame(std::span<const std::uint8_t>* payload,
                        std::uint32_t* stream_id = nullptr);

  // The same read, with the payload copied out of the buffer for callers
  // that keep it past the next read; a buffer this drains is freed at once.
  ReadStatus read_frame(std::vector<std::uint8_t>* payload,
                        std::uint32_t* stream_id = nullptr);

  // True iff the next read_frame answers from the read buffer without
  // touching the socket: a complete frame, or a header it rejects as
  // oversized, is buffered.
  bool has_buffered_frame() const;

  // Writes the 8-byte header plus the payload: buffered on a blocking fd
  // (see the flush points above), sent at once on a non-blocking one. A
  // send puts the buffered bytes and the payload into one sendmsg. Partial
  // writes are retried; on a non-blocking fd the unsent tail is buffered
  // (call flush() when writable) and the call still returns true. Returns
  // false only on a transport error, now or at an earlier send (including
  // EPIPE — sends use MSG_NOSIGNAL, so a half-closed peer can never SIGPIPE
  // the server).
  bool write_frame(std::span<const std::uint8_t> payload,
                   std::uint32_t stream_id = 0);

  enum class FlushStatus { kDrained, kPending, kError };

  // Sends the write buffer. kPending means the kernel is still pushing back
  // (re-arm for writability); kDrained means nothing is queued; kError
  // means this or an earlier send failed.
  FlushStatus flush();

  bool has_pending_write() const { return out_pos_ < out_.size(); }
  std::size_t pending_write_bytes() const { return out_.size() - out_pos_; }

  // Switches the fd's O_NONBLOCK flag. Returns false on fcntl failure.
  bool set_nonblocking(bool enabled);

  // Flushes a blocking channel, then half-closes the write side: the peer
  // reads EOF after the frames already sent.
  void shutdown_write();

  const IoCounts& io_counts() const { return counts_; }

  // Drops the read buffer, then reads and discards whatever input the
  // kernel holds, without blocking, adding that byte count to *discarded.
  // Returns true while a linger should go on: false once the peer's EOF
  // arrived, the socket failed, or *discarded reached kLingerDiscardCap.
  bool discard_input(std::size_t* discarded);

  int fd() const { return fd_.get(); }

 private:
  // One recv() toward a frame of `need` bytes (header included), after
  // moving the buffered part of that frame to the front of a buffer sized
  // max(kReadChunk, need). Returns nullopt once bytes arrived; otherwise
  // the status read_frame reports.
  std::optional<ReadStatus> fill(std::size_t need);
  void release_input();
  // Sends the write buffer and then `tail` in as few sendmsg calls as the
  // kernel allows; on a push-back the unsent part of `tail` joins the
  // buffer (kPending).
  FlushStatus send_buffered(std::span<const std::uint8_t> tail);
  // The flush a blocking channel owes before it reads, half-closes or
  // closes; a non-blocking channel's backlog waits for writability.
  void flush_if_blocking();

  // Read buffer: bytes [in_begin_, in_end_) are received but not yet
  // returned as frames. Null while empty.
  std::unique_ptr<std::uint8_t[]> in_;
  std::size_t in_cap_ = 0;
  std::size_t in_begin_ = 0;
  std::size_t in_end_ = 0;

  // Write buffer: bytes [out_pos_, size) are written but not yet sent —
  // frames held for a flush point on a blocking fd, the bytes the kernel
  // refused on a non-blocking one.
  std::vector<std::uint8_t> out_;
  std::size_t out_pos_ = 0;
  bool nonblocking_ = false;  // the fd's O_NONBLOCK, as last read or set
  bool write_failed_ = false;

  IoCounts counts_;
  UniqueFd fd_;
};

}  // namespace paramount::service
