#include "service/frame.hpp"

namespace paramount::service {

namespace {

// Per-element wire sizes, used to validate counts against the remaining
// payload before reserving.
constexpr std::size_t kDeltaWireBytes = 4 + 8;   // component + value
constexpr std::size_t kAccessWireBytes = 4 + 1;  // var + flags

constexpr std::uint8_t kAccessWriteBit = 0x01;
constexpr std::uint8_t kAccessInitBit = 0x02;

bool valid_op_kind(std::uint8_t kind) {
  return kind <= static_cast<std::uint8_t>(OpKind::kCollection);
}

std::optional<DecodeError> malformed(const std::string& message) {
  return DecodeError{ErrorCode::kMalformedFrame, message};
}

std::optional<DecodeError> truncated(const char* what) {
  return DecodeError{ErrorCode::kTruncatedFrame,
                     std::string("payload ended inside ") + what};
}

}  // namespace

const char* to_string(Op op) {
  switch (op) {
    case Op::kHello: return "Hello";
    case Op::kEvent: return "Event";
    case Op::kPoll: return "Poll";
    case Op::kDrain: return "Drain";
    case Op::kShutdown: return "Shutdown";
    case Op::kHelloAck: return "HelloAck";
    case Op::kStats: return "Stats";
    case Op::kDrained: return "Drained";
    case Op::kGoodbye: return "Goodbye";
    case Op::kError: return "Error";
  }
  return "?";
}

const char* to_string(ErrorCode code) {
  switch (code) {
    case ErrorCode::kOversizedFrame: return "oversized-frame";
    case ErrorCode::kTruncatedFrame: return "truncated-frame";
    case ErrorCode::kUnknownOpcode: return "unknown-opcode";
    case ErrorCode::kMalformedFrame: return "malformed-frame";
    case ErrorCode::kUnexpectedFrame: return "unexpected-frame";
    case ErrorCode::kBadHello: return "bad-hello";
    case ErrorCode::kDuplicateHello: return "duplicate-hello";
    case ErrorCode::kExpectedHello: return "expected-hello";
    case ErrorCode::kBadEvent: return "bad-event";
    case ErrorCode::kClockRegression: return "clock-regression";
    case ErrorCode::kSessionLimit: return "session-limit";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kBadStream: return "bad-stream";
    case ErrorCode::kStorageFull: return "storage-full";
  }
  return "?";
}

std::vector<std::uint8_t> encode_hello(const HelloBody& body) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kHello));
  w.u32(body.version);
  w.u32(body.num_threads);
  w.u32(body.async_workers);
  w.u64(body.gc_every);
  w.u64(body.window_bytes);
  w.u32(body.tenant_id);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_event(const EventBody& body) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kEvent));
  w.u32(body.tid);
  w.u8(static_cast<std::uint8_t>(body.kind));
  w.u32(body.object);
  w.u16(static_cast<std::uint16_t>(body.delta.size()));
  for (const ClockDelta& d : body.delta) {
    w.u32(d.component);
    w.u64(d.value);
  }
  w.u16(static_cast<std::uint16_t>(body.accesses.size()));
  for (const AccessRecord& a : body.accesses) {
    w.u32(a.var);
    std::uint8_t flags = 0;
    if (a.is_write) flags |= kAccessWriteBit;
    if (a.is_init) flags |= kAccessInitBit;
    w.u8(flags);
  }
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_poll() {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kPoll));
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_drain() {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kDrain));
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_shutdown() {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kShutdown));
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_hello_ack(const HelloAckBody& body) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kHelloAck));
  w.u32(body.version);
  w.u64(body.session_id);
  return std::move(w).take();
}

namespace {

void put_counts(ByteWriter& w, const CountsBody& c) {
  w.u64(c.events);
  w.u64(c.states);
  w.u64(c.intervals);
  w.u64(c.racy_vars);
  w.u64(c.resident_bytes);
  w.u64(c.reclaimed_events);
  w.u64(c.window_evictions);
  w.u64(c.outstanding_pins);
}

bool get_counts(ByteReader& r, CountsBody* c) {
  return r.u64(&c->events) && r.u64(&c->states) && r.u64(&c->intervals) &&
         r.u64(&c->racy_vars) && r.u64(&c->resident_bytes) &&
         r.u64(&c->reclaimed_events) && r.u64(&c->window_evictions) &&
         r.u64(&c->outstanding_pins);
}

}  // namespace

std::vector<std::uint8_t> encode_stats(const StatsBody& body) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kStats));
  put_counts(w, body.counts);
  w.u64(body.eviction_alert_threshold);
  w.u8(body.eviction_alert ? 1 : 0);
  w.u32(static_cast<std::uint32_t>(body.metrics_json.size()));
  w.bytes(body.metrics_json.data(), body.metrics_json.size());
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_counts(Op op, const CountsBody& body) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(op));
  put_counts(w, body);
  return std::move(w).take();
}

std::vector<std::uint8_t> encode_error(ErrorCode code,
                                       const std::string& message) {
  ByteWriter w;
  w.u8(static_cast<std::uint8_t>(Op::kError));
  w.u16(static_cast<std::uint16_t>(code));
  w.u32(static_cast<std::uint32_t>(message.size()));
  w.bytes(message.data(), message.size());
  return std::move(w).take();
}

std::optional<DecodeError> decode_frame(std::span<const std::uint8_t> payload,
                                        DecodedFrame* out) {
  if (payload.size() > kMaxFramePayload) {
    return DecodeError{ErrorCode::kOversizedFrame, "payload above 1 MiB"};
  }
  ByteReader r(payload);
  std::uint8_t opcode = 0;
  if (!r.u8(&opcode)) return truncated("opcode");

  switch (static_cast<Op>(opcode)) {
    case Op::kHello: {
      out->op = Op::kHello;
      HelloBody& b = out->hello;
      if (!r.u32(&b.version) || !r.u32(&b.num_threads) ||
          !r.u32(&b.async_workers) || !r.u64(&b.gc_every) ||
          !r.u64(&b.window_bytes) || !r.u32(&b.tenant_id)) {
        return truncated("Hello");
      }
      break;
    }
    case Op::kEvent: {
      out->op = Op::kEvent;
      EventBody& b = out->event;
      std::uint8_t kind = 0;
      if (!r.u32(&b.tid) || !r.u8(&kind) || !r.u32(&b.object)) {
        return truncated("Event header");
      }
      if (!valid_op_kind(kind)) return malformed("unknown event kind");
      b.kind = static_cast<OpKind>(kind);
      std::uint16_t ndelta = 0;
      if (!r.u16(&ndelta)) return truncated("Event delta count");
      if (r.remaining() < ndelta * kDeltaWireBytes) {
        return truncated("Event clock delta");
      }
      b.delta.clear();
      b.delta.reserve(ndelta);
      for (std::uint16_t i = 0; i < ndelta; ++i) {
        ClockDelta d;
        if (!r.u32(&d.component) || !r.u64(&d.value)) {
          return truncated("Event clock delta");
        }
        b.delta.push_back(d);
      }
      std::uint16_t naccess = 0;
      if (!r.u16(&naccess)) return truncated("Event access count");
      if (r.remaining() < naccess * kAccessWireBytes) {
        return truncated("Event accesses");
      }
      b.accesses.clear();
      b.accesses.reserve(naccess);
      for (std::uint16_t i = 0; i < naccess; ++i) {
        AccessRecord a;
        std::uint8_t flags = 0;
        if (!r.u32(&a.var) || !r.u8(&flags)) return truncated("Event accesses");
        if ((flags & ~(kAccessWriteBit | kAccessInitBit)) != 0) {
          return malformed("unknown access flags");
        }
        a.is_write = (flags & kAccessWriteBit) != 0;
        a.is_init = (flags & kAccessInitBit) != 0;
        b.accesses.push_back(a);
      }
      break;
    }
    case Op::kPoll:
      out->op = Op::kPoll;
      break;
    case Op::kDrain:
      out->op = Op::kDrain;
      break;
    case Op::kShutdown:
      out->op = Op::kShutdown;
      break;
    case Op::kHelloAck: {
      out->op = Op::kHelloAck;
      HelloAckBody& b = out->hello_ack;
      if (!r.u32(&b.version) || !r.u64(&b.session_id)) {
        return truncated("HelloAck");
      }
      break;
    }
    case Op::kStats: {
      out->op = Op::kStats;
      StatsBody& b = out->stats;
      if (!get_counts(r, &b.counts)) return truncated("Stats counts");
      std::uint8_t alert = 0;
      if (!r.u64(&b.eviction_alert_threshold) || !r.u8(&alert)) {
        return truncated("Stats alert");
      }
      if (alert > 1) return malformed("eviction_alert must be 0 or 1");
      b.eviction_alert = alert != 0;
      if (!r.str(&b.metrics_json)) return truncated("Stats JSON");
      break;
    }
    case Op::kDrained:
    case Op::kGoodbye: {
      out->op = static_cast<Op>(opcode);
      if (!get_counts(r, &out->counts)) return truncated("counts");
      break;
    }
    case Op::kError: {
      out->op = Op::kError;
      std::uint16_t code = 0;
      if (!r.u16(&code)) return truncated("Error code");
      out->error.code = static_cast<ErrorCode>(code);
      if (!r.str(&out->error.message)) return truncated("Error message");
      break;
    }
    default:
      return DecodeError{ErrorCode::kUnknownOpcode,
                         "opcode " + std::to_string(opcode)};
  }

  if (!r.done()) return malformed("trailing bytes after frame body");
  return std::nullopt;
}

}  // namespace paramount::service
