#include "trace/format.hpp"

namespace paramount::trace {

const char* to_string(TraceErrorCode code) {
  switch (code) {
    case TraceErrorCode::kIoError: return "io-error";
    case TraceErrorCode::kBadMagic: return "bad-magic";
    case TraceErrorCode::kBadVersion: return "bad-version";
    case TraceErrorCode::kBadHeader: return "bad-header";
    case TraceErrorCode::kTruncated: return "truncated";
    case TraceErrorCode::kBadCrc: return "bad-crc";
    case TraceErrorCode::kBadFooter: return "bad-footer";
    case TraceErrorCode::kBadChunk: return "bad-chunk";
    case TraceErrorCode::kBadEvent: return "bad-event";
    case TraceErrorCode::kBadThread: return "bad-thread";
    case TraceErrorCode::kClockRegression: return "clock-regression";
    case TraceErrorCode::kStorageFull: return "storage-full";
    case TraceErrorCode::kClockNotClosed: return "clock-not-closed";
  }
  return "unknown";
}

std::string TraceError::to_string() const {
  return std::string("[") + trace::to_string(code) + "] " + message;
}

}  // namespace paramount::trace
