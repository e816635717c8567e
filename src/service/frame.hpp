// paramountd wire protocol: length-prefixed binary frames.
//
// Every frame on the wire is a little-endian u32 payload length followed by
// the payload; the payload's first byte is the opcode. The protocol is
// lock-step request/response except for Event frames, which are unacked —
// flow control for the event stream is the kernel socket buffer plus the
// server-side SubmitGate (the codec stops reading once the submit budget is
// exhausted, so a fast client blocks in send()).
//
//   client → server                server → client
//   ---------------                ---------------
//   Hello  {version, threads,      HelloAck {version, session id}
//           workers, gc policy}
//   Event  {tid, kind, object,     (no reply)
//           clock delta, accesses}
//   Poll   {}                      Stats    {counts, telemetry JSON}
//   Drain  {}                      Drained  {counts}
//   Shutdown {}                    Goodbye  {counts}; server closes
//   (any protocol violation)       Error    {code, message}; server closes
//
// Vector clocks travel as deltas against the sending thread's previous
// event: a list of (component, new value) pairs. The session reconstructs
// the absolute clock and validates it (monotone per thread, references only
// published events) before it ever reaches OnlinePoset::insert — a byte
// stream can produce an Error frame, never an abort.
//
// Decoding never reads out of bounds: every field goes through the
// bounds-checked ByteReader, and element counts are validated against the
// remaining payload before any allocation (a hostile length cannot force an
// oversized reserve). tests/test_service_codec.cpp fuzzes this contract
// under ASan.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "poset/event.hpp"

namespace paramount::service {

// v2: 8-byte frame header (length + stream id) for multi-stream
// multiplexing, Hello carries a tenant id for per-tenant submit quotas, and
// Stats replies carry the window_evictions alert threshold.
inline constexpr std::uint32_t kProtocolVersion = 2;

// Hard ceiling on a frame payload; a length prefix above this is rejected
// before any buffer is sized from it.
inline constexpr std::size_t kMaxFramePayload = std::size_t{1} << 20;

enum class Op : std::uint8_t {
  // client → server
  kHello = 0x01,
  kEvent = 0x02,
  kPoll = 0x03,
  kDrain = 0x04,
  kShutdown = 0x05,
  // server → client
  kHelloAck = 0x81,
  kStats = 0x82,
  kDrained = 0x83,
  kGoodbye = 0x84,
  kError = 0xff,
};

const char* to_string(Op op);

enum class ErrorCode : std::uint16_t {
  kOversizedFrame = 1,   // length prefix above kMaxFramePayload
  kTruncatedFrame = 2,   // payload ended mid-field (or stream died mid-frame)
  kUnknownOpcode = 3,    // first payload byte names no opcode
  kMalformedFrame = 4,   // structurally invalid body (bad counts, trailing bytes)
  kUnexpectedFrame = 5,  // valid frame, wrong direction or session state
  kBadHello = 6,         // unsupported version or out-of-range parameters
  kDuplicateHello = 7,   // second Hello on an established session
  kExpectedHello = 8,    // non-Hello frame before the handshake
  kBadEvent = 9,         // tid/component/object out of range
  kClockRegression = 10, // reconstructed clock violates monotonicity
  kSessionLimit = 11,    // server at --max-sessions
  kShuttingDown = 12,    // event received after Shutdown began draining
  kBadStream = 13,       // frame on a stream this session does not own
  kStorageFull = 14,     // a thread's event or access storage is full
};

const char* to_string(ErrorCode code);

// ---- frame bodies ----

struct HelloBody {
  std::uint32_t version = kProtocolVersion;
  std::uint32_t num_threads = 0;    // width of the event stream
  std::uint32_t async_workers = 0;  // 0 = enumerate inline on the session thread
  std::uint64_t gc_every = 0;       // sliding-window GC cadence (0 = off)
  std::uint64_t window_bytes = 0;   // byte-budget GC trigger (0 = off)
  // Sessions with the same tenant id share one submit-budget quota when the
  // server runs with a per-tenant budget (--tenant-budget): one tenant's
  // event flood stalls that tenant's own streams, not the whole daemon.
  std::uint32_t tenant_id = 0;

  friend bool operator==(const HelloBody&, const HelloBody&) = default;
};

struct ClockDelta {
  std::uint32_t component = 0;
  std::uint64_t value = 0;

  friend bool operator==(const ClockDelta&, const ClockDelta&) = default;
};

struct AccessRecord {
  std::uint32_t var = 0;
  bool is_write = false;
  bool is_init = false;

  friend bool operator==(const AccessRecord&, const AccessRecord&) = default;
};

struct EventBody {
  std::uint32_t tid = 0;
  OpKind kind = OpKind::kInternal;
  std::uint32_t object = 0;
  std::vector<ClockDelta> delta;        // vs. the thread's previous clock
  std::vector<AccessRecord> accesses;   // only meaningful for kCollection

  friend bool operator==(const EventBody&, const EventBody&) = default;
};

struct HelloAckBody {
  std::uint32_t version = kProtocolVersion;
  std::uint64_t session_id = 0;

  friend bool operator==(const HelloAckBody&, const HelloAckBody&) = default;
};

// Shared by Stats, Drained, and Goodbye. Poll replies mid-stream are merely
// fresh (pooled intervals may still be in flight); Drained/Goodbye counts
// are exact — the server drains before answering.
struct CountsBody {
  std::uint64_t events = 0;            // events accepted into the poset
  std::uint64_t states = 0;            // consistent states enumerated
  std::uint64_t intervals = 0;         // intervals fully enumerated
  std::uint64_t racy_vars = 0;         // variables with detected races
  std::uint64_t resident_bytes = 0;    // poset storage currently resident
  std::uint64_t reclaimed_events = 0;  // cumulative window-GC reclamations
  std::uint64_t window_evictions = 0;  // detector pairs dropped to the window
  std::uint64_t outstanding_pins = 0;  // live EnumGuards (0 once drained)

  friend bool operator==(const CountsBody&, const CountsBody&) = default;
};

struct StatsBody {
  CountsBody counts;
  // window_evictions alerting: the server's configured threshold travels in
  // every Stats reply, and eviction_alert is set once counts.window_evictions
  // reaches it — clients learn they are outrunning the detector window
  // without parsing the JSON. Threshold 0 = alerting off.
  std::uint64_t eviction_alert_threshold = 0;
  bool eviction_alert = false;
  std::string metrics_json;  // obs::Telemetry metrics snapshot

  friend bool operator==(const StatsBody&, const StatsBody&) = default;
};

struct ErrorBody {
  ErrorCode code = ErrorCode::kMalformedFrame;
  std::string message;

  friend bool operator==(const ErrorBody&, const ErrorBody&) = default;
};

// ---- bounds-checked primitives ----

class ByteWriter {
 public:
  void u8(std::uint8_t v) { buf_.push_back(v); }
  void u16(std::uint16_t v) {
    u8(static_cast<std::uint8_t>(v));
    u8(static_cast<std::uint8_t>(v >> 8));
  }
  void u32(std::uint32_t v) {
    u16(static_cast<std::uint16_t>(v));
    u16(static_cast<std::uint16_t>(v >> 16));
  }
  void u64(std::uint64_t v) {
    u32(static_cast<std::uint32_t>(v));
    u32(static_cast<std::uint32_t>(v >> 32));
  }
  void bytes(const void* data, std::size_t len) {
    const auto* p = static_cast<const std::uint8_t*>(data);
    buf_.insert(buf_.end(), p, p + len);
  }

  std::vector<std::uint8_t> take() && { return std::move(buf_); }

 private:
  std::vector<std::uint8_t> buf_;
};

// Every read checks the remaining length first and fails (returns false)
// instead of walking past the end.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> data)
      : p_(data.data()), end_(data.data() + data.size()) {}

  std::size_t remaining() const { return static_cast<std::size_t>(end_ - p_); }
  bool done() const { return p_ == end_; }

  bool u8(std::uint8_t* out) {
    if (remaining() < 1) return false;
    *out = *p_++;
    return true;
  }
  bool u16(std::uint16_t* out) {
    if (remaining() < 2) return false;
    *out = static_cast<std::uint16_t>(p_[0] | (p_[1] << 8));
    p_ += 2;
    return true;
  }
  bool u32(std::uint32_t* out) {
    if (remaining() < 4) return false;
    *out = static_cast<std::uint32_t>(p_[0]) |
           (static_cast<std::uint32_t>(p_[1]) << 8) |
           (static_cast<std::uint32_t>(p_[2]) << 16) |
           (static_cast<std::uint32_t>(p_[3]) << 24);
    p_ += 4;
    return true;
  }
  bool u64(std::uint64_t* out) {
    std::uint32_t lo = 0;
    std::uint32_t hi = 0;
    if (!u32(&lo) || !u32(&hi)) return false;
    *out = static_cast<std::uint64_t>(lo) |
           (static_cast<std::uint64_t>(hi) << 32);
    return true;
  }
  // Length-prefixed string (u32 length, raw bytes); the length is validated
  // against the remaining payload before the copy.
  bool str(std::string* out) {
    std::uint32_t len = 0;
    if (!u32(&len)) return false;
    if (remaining() < len) return false;
    out->assign(reinterpret_cast<const char*>(p_), len);
    p_ += len;
    return true;
  }

 private:
  const std::uint8_t* p_;
  const std::uint8_t* end_;
};

// ---- encode (payload only; FrameChannel adds the length prefix) ----

std::vector<std::uint8_t> encode_hello(const HelloBody& body);
std::vector<std::uint8_t> encode_event(const EventBody& body);
std::vector<std::uint8_t> encode_poll();
std::vector<std::uint8_t> encode_drain();
std::vector<std::uint8_t> encode_shutdown();
std::vector<std::uint8_t> encode_hello_ack(const HelloAckBody& body);
std::vector<std::uint8_t> encode_stats(const StatsBody& body);
std::vector<std::uint8_t> encode_counts(Op op, const CountsBody& body);
std::vector<std::uint8_t> encode_error(ErrorCode code,
                                       const std::string& message);

// ---- decode ----

// A decoded frame: `op` selects which body member is meaningful (bodies of
// the empty frames Poll/Drain/Shutdown carry no payload at all).
struct DecodedFrame {
  Op op = Op::kPoll;
  HelloBody hello;
  EventBody event;
  HelloAckBody hello_ack;
  StatsBody stats;
  CountsBody counts;  // for kDrained / kGoodbye
  ErrorBody error;
};

struct DecodeError {
  ErrorCode code = ErrorCode::kMalformedFrame;
  std::string message;
};

// Parses one payload. Returns std::nullopt on success (with *out filled) or
// a typed error. Never aborts, never reads outside `payload`, and rejects
// trailing bytes after a well-formed body.
std::optional<DecodeError> decode_frame(std::span<const std::uint8_t> payload,
                                        DecodedFrame* out);

}  // namespace paramount::service
