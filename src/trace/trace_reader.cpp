#include "trace/trace_reader.hpp"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <limits>
#include <utility>

#include "trace/crc32.hpp"
#include "trace/varint.hpp"

namespace paramount::trace {

namespace {

std::uint32_t load_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint64_t load_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(load_u32(p)) |
         (static_cast<std::uint64_t>(load_u32(p + 4)) << 32);
}

bool set_error(TraceError* error, TraceErrorCode code, std::string message) {
  error->code = code;
  error->message = std::move(message);
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// TraceReader

TraceReader::~TraceReader() { close(); }

TraceReader::TraceReader(TraceReader&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      num_threads_(std::exchange(other.num_threads_, 0)),
      total_events_(std::exchange(other.total_events_, 0)),
      index_offset_(std::exchange(other.index_offset_, 0)),
      chunks_(std::move(other.chunks_)) {
  other.chunks_.clear();
}

TraceReader& TraceReader::operator=(TraceReader&& other) noexcept {
  if (this != &other) {
    close();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    num_threads_ = std::exchange(other.num_threads_, 0);
    total_events_ = std::exchange(other.total_events_, 0);
    index_offset_ = std::exchange(other.index_offset_, 0);
    chunks_ = std::move(other.chunks_);
    other.chunks_.clear();
  }
  return *this;
}

void TraceReader::close() {
  if (data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
    data_ = nullptr;
  }
  size_ = 0;
  num_threads_ = 0;
  total_events_ = 0;
  index_offset_ = 0;
  chunks_.clear();
}

bool TraceReader::open(const std::string& path, TraceError* error) {
  PM_CHECK_MSG(!is_open(), "TraceReader::open on an open reader");

  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return set_error(error, TraceErrorCode::kIoError,
                     path + ": " + std::strerror(errno));
  }
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    const int err = errno;
    ::close(fd);
    return set_error(error, TraceErrorCode::kIoError,
                     path + ": fstat: " + std::strerror(err));
  }
  const std::uint64_t file_size = static_cast<std::uint64_t>(st.st_size);
  if (file_size < kFileHeaderBytes + kFileTrailerBytes) {
    ::close(fd);
    return set_error(error, TraceErrorCode::kTruncated,
                     "file smaller than header + trailer (" +
                         std::to_string(file_size) + " bytes)");
  }
  void* map = ::mmap(nullptr, file_size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);  // the mapping keeps the file alive
  if (map == MAP_FAILED) {
    return set_error(error, TraceErrorCode::kIoError,
                     path + ": mmap: " + std::strerror(errno));
  }
  data_ = static_cast<const std::uint8_t*>(map);
  size_ = file_size;

  // File header.
  if (load_u64(data_) != kFileMagic) {
    const TraceError e{TraceErrorCode::kBadMagic, "not a .pmt trace file"};
    close();
    *error = e;
    return false;
  }
  const std::uint32_t version = load_u32(data_ + 8);
  const std::uint32_t num_threads = load_u32(data_ + 12);
  const std::uint64_t header_flags = load_u64(data_ + 16);
  if (version != kFormatVersion) {
    const TraceError e{TraceErrorCode::kBadVersion,
                       "format version " + std::to_string(version) +
                           ", this reader speaks " +
                           std::to_string(kFormatVersion)};
    close();
    *error = e;
    return false;
  }
  if (num_threads == 0 || num_threads > kMaxThreads) {
    const TraceError e{TraceErrorCode::kBadHeader,
                       "thread count " + std::to_string(num_threads) +
                           " out of range"};
    close();
    *error = e;
    return false;
  }
  if (header_flags != 0) {
    const TraceError e{TraceErrorCode::kBadHeader,
                       "reserved header flags set"};
    close();
    *error = e;
    return false;
  }
  num_threads_ = num_threads;

  // Trailer.
  const std::uint8_t* trailer = data_ + size_ - kFileTrailerBytes;
  TraceError defect;
  bool ok = true;
  const std::uint64_t total_events = load_u64(trailer);
  const std::uint32_t num_chunks = load_u32(trailer + 8);
  const std::uint32_t index_crc = load_u32(trailer + 12);
  const std::uint64_t index_offset = load_u64(trailer + 16);
  const std::uint64_t index_bytes = load_u64(trailer + 24);
  if (load_u64(trailer + 32) != kFooterMagic) {
    ok = set_error(&defect, TraceErrorCode::kBadFooter,
                   "trailer magic mismatch (file truncated or not finished)");
  } else if (num_chunks > kMaxChunks) {
    ok = set_error(&defect, TraceErrorCode::kBadFooter,
                   "chunk count " + std::to_string(num_chunks) +
                       " out of range");
  } else if (index_offset < kFileHeaderBytes ||
             index_bytes > size_ - kFileHeaderBytes - kFileTrailerBytes ||
             index_offset + index_bytes != size_ - kFileTrailerBytes) {
    ok = set_error(&defect, TraceErrorCode::kBadFooter,
                   "footer index does not tile the file");
  } else if (crc32(data_ + index_offset, index_bytes) != index_crc) {
    ok = set_error(&defect, TraceErrorCode::kBadCrc,
                   "footer index CRC mismatch");
  }
  if (!ok) {
    close();
    *error = defect;
    return false;
  }

  // Footer index: num_chunks entries of (offset, first_event, count,
  // num_threads x published_base), consuming exactly index_bytes.
  const std::uint8_t* p = data_ + index_offset;
  const std::uint8_t* index_end = p + index_bytes;
  std::vector<ChunkInfo> chunks;
  chunks.reserve(num_chunks);
  std::uint64_t running_events = 0;
  std::uint64_t prev_end = kFileHeaderBytes;  // chunks tile [24, index_offset)
  for (std::uint32_t i = 0; ok && i < num_chunks; ++i) {
    ChunkInfo info;
    std::uint64_t count = 0;
    if (!get_varint(&p, index_end, &info.offset) ||
        !get_varint(&p, index_end, &info.first_event) ||
        !get_varint(&p, index_end, &count)) {
      ok = set_error(&defect, TraceErrorCode::kBadFooter,
                     "footer index truncated");
      break;
    }
    if (count == 0 || count > std::numeric_limits<std::uint32_t>::max()) {
      ok = set_error(&defect, TraceErrorCode::kBadFooter,
                     "chunk " + std::to_string(i) + " has bad event count");
      break;
    }
    info.event_count = static_cast<std::uint32_t>(count);
    if (info.offset != prev_end ||
        info.offset + kChunkHeaderBytes > index_offset) {
      ok = set_error(&defect, TraceErrorCode::kBadFooter,
                     "chunk " + std::to_string(i) + " offset inconsistent");
      break;
    }
    if (info.first_event != running_events) {
      ok = set_error(&defect, TraceErrorCode::kBadFooter,
                     "chunk " + std::to_string(i) + " event range inconsistent");
      break;
    }
    info.published_base.resize(num_threads_);
    std::uint64_t base_sum = 0;
    for (std::size_t t = 0; ok && t < num_threads_; ++t) {
      std::uint64_t published = 0;
      if (!get_varint(&p, index_end, &published) ||
          published > std::numeric_limits<EventIndex>::max()) {
        ok = set_error(&defect, TraceErrorCode::kBadFooter,
                       "footer index truncated");
        break;
      }
      info.published_base[t] = static_cast<EventIndex>(published);
      base_sum += published;
    }
    if (!ok) break;
    // The bases count events before the chunk, so they must sum to exactly
    // the preceding chunks' event total.
    if (base_sum != running_events) {
      ok = set_error(&defect, TraceErrorCode::kBadFooter,
                     "chunk " + std::to_string(i) + " published base " +
                         "inconsistent with its event range");
      break;
    }
    running_events += info.event_count;
    // Chunk payload length is validated lazily against the header when the
    // chunk is entered; here we only know the next chunk starts after it.
    const std::uint8_t* header = data_ + info.offset;
    const std::uint64_t payload_bytes = load_u32(header + 4);
    prev_end = info.offset + kChunkHeaderBytes + payload_bytes;
    if (payload_bytes > kMaxChunkPayload || prev_end > index_offset) {
      ok = set_error(&defect, TraceErrorCode::kBadChunk,
                     "chunk " + std::to_string(i) +
                         " payload overruns the footer index");
      break;
    }
    // Callers size buffers from total_events(): a chunk may not claim more
    // events than its payload has bytes, which bounds it by the file size.
    if (info.event_count > payload_bytes) {
      ok = set_error(&defect, TraceErrorCode::kBadChunk,
                     "chunk " + std::to_string(i) + " claims " +
                         std::to_string(info.event_count) + " events in " +
                         std::to_string(payload_bytes) + " bytes");
      break;
    }
    chunks.push_back(std::move(info));
  }
  if (ok && p != index_end) {
    ok = set_error(&defect, TraceErrorCode::kBadFooter,
                   "trailing bytes in footer index");
  }
  if (ok && prev_end != index_offset) {
    ok = set_error(&defect, TraceErrorCode::kBadFooter,
                   "gap between last chunk and footer index");
  }
  if (ok && running_events != total_events) {
    ok = set_error(&defect, TraceErrorCode::kBadFooter,
                   "trailer total_events disagrees with the index");
  }
  if (!ok) {
    close();
    *error = defect;
    return false;
  }

  total_events_ = total_events;
  index_offset_ = index_offset;
  chunks_ = std::move(chunks);
  return true;
}

// ---------------------------------------------------------------------------
// TraceCursor

TraceCursor::TraceCursor(const TraceReader* reader, std::size_t start_chunk)
    : reader_(reader),
      chunk_(start_chunk),
      validator_(reader->num_threads()),
      seen_in_chunk_(reader->num_threads(), 0) {
  if (start_chunk < reader->num_chunks()) {
    sequence_ = reader->chunk(start_chunk).first_event;
    if (start_chunk != 0) {
      // Seek: adopt the footer's published counts; per-thread previous
      // clocks are unknown until the thread's first (absolute) record.
      validator_.reset_published(reader->chunk(start_chunk).published_base);
    }
  } else {
    sequence_ = reader->total_events();
  }
}

TraceCursor::Status TraceCursor::fail(TraceError* error, TraceErrorCode code,
                                      std::string message) {
  failed_ = true;
  sticky_.code = code;
  sticky_.message = std::move(message);
  remaining_ = 0;
  *error = sticky_;
  return Status::kError;
}

bool TraceCursor::begin_chunk(TraceError* error) {
  const TraceReader::ChunkInfo& info = reader_->chunk(chunk_);
  const std::uint8_t* header = reader_->data_ + info.offset;
  // open() proved header + payload fit inside [24, index_offset).
  const std::uint32_t magic = load_u32(header);
  const std::uint32_t payload_bytes = load_u32(header + 4);
  const std::uint32_t event_count = load_u32(header + 8);
  const std::uint32_t crc = load_u32(header + 12);
  if (magic != kChunkMagic) {
    fail(error, TraceErrorCode::kBadMagic,
         "chunk " + std::to_string(chunk_) + " magic mismatch");
    return false;
  }
  if (event_count != info.event_count) {
    fail(error, TraceErrorCode::kBadChunk,
         "chunk " + std::to_string(chunk_) +
             " event count disagrees with the footer index");
    return false;
  }
  const std::uint8_t* payload = header + kChunkHeaderBytes;
  if (crc32(payload, payload_bytes) != crc) {
    fail(error, TraceErrorCode::kBadCrc,
         "chunk " + std::to_string(chunk_) + " payload CRC mismatch");
    return false;
  }
  p_ = payload;
  end_ = payload + payload_bytes;
  remaining_ = event_count;
  std::fill(seen_in_chunk_.begin(), seen_in_chunk_.end(), 0);
  return true;
}

TraceCursor::Status TraceCursor::next(TraceEvent* out, TraceError* error) {
  if (failed_) {
    *error = sticky_;
    return Status::kError;
  }
  while (remaining_ == 0) {
    if (p_ != nullptr && p_ != end_) {
      return fail(error, TraceErrorCode::kBadChunk,
                  "chunk " + std::to_string(chunk_ - 1) +
                      " has trailing bytes after its last record");
    }
    if (chunk_ >= reader_->num_chunks()) return Status::kEnd;
    if (!begin_chunk(error)) return Status::kError;
    ++chunk_;
  }
  if (!decode_event(out, error)) return Status::kError;
  --remaining_;
  ++sequence_;
  return Status::kOk;
}

bool TraceCursor::decode_event(TraceEvent* out, TraceError* error) {
  // Builds the failure message only; an intact record decodes into clock_
  // and accesses_, which allocate only while they grow to the trace's
  // widths, and *out is copy-assigned, which reuses its buffers.
  const auto at = [this] {
    return "event " + std::to_string(sequence_) + ": ";
  };
  std::uint64_t tid64 = 0;
  if (!get_varint(&p_, end_, &tid64)) {
    fail(error, TraceErrorCode::kBadEvent, at() + "record truncated");
    return false;
  }
  if (tid64 >= reader_->num_threads()) {
    fail(error, TraceErrorCode::kBadThread,
         at() + "tid " + std::to_string(tid64) + " out of range");
    return false;
  }
  const ThreadId tid = static_cast<ThreadId>(tid64);
  if (end_ - p_ < 2) {
    fail(error, TraceErrorCode::kBadEvent, at() + "record truncated");
    return false;
  }
  const std::uint8_t kind_byte = *p_++;
  const std::uint8_t flags = *p_++;
  if (kind_byte > static_cast<std::uint8_t>(OpKind::kCollection)) {
    fail(error, TraceErrorCode::kBadEvent,
         at() + "unknown op kind " + std::to_string(kind_byte));
    return false;
  }
  const OpKind kind = static_cast<OpKind>(kind_byte);
  if ((flags & ~kKnownRecordFlags) != 0) {
    fail(error, TraceErrorCode::kBadEvent, at() + "unknown record flags");
    return false;
  }
  if ((flags & kHasAccesses) != 0 && kind != OpKind::kCollection) {
    fail(error, TraceErrorCode::kBadEvent,
         at() + "access list on a non-collection event");
    return false;
  }
  std::uint64_t object = 0;
  if (!get_varint(&p_, end_, &object) ||
      object > std::numeric_limits<std::uint32_t>::max()) {
    fail(error, TraceErrorCode::kBadEvent, at() + "bad object field");
    return false;
  }

  const bool absolute = (flags & kAbsoluteClock) != 0;
  if (!absolute && seen_in_chunk_[tid] == 0) {
    // Chunks must be self-contained: a delta has no base after a seek.
    fail(error, TraceErrorCode::kBadEvent,
         at() + "delta record without an absolute base in this chunk");
    return false;
  }
  const std::size_t n = reader_->num_threads();
  if (absolute) {
    clock_.assign_zero(n);
  } else {
    clock_ = validator_.prev_clock(tid);
  }
  std::uint64_t num_components = 0;
  if (!get_varint(&p_, end_, &num_components) || num_components > n) {
    fail(error, TraceErrorCode::kBadEvent, at() + "bad clock component count");
    return false;
  }
  std::uint64_t component = 0;
  for (std::uint64_t c = 0; c < num_components; ++c) {
    std::uint64_t gap = 0;
    std::uint64_t value = 0;
    if (!get_varint(&p_, end_, &gap) || !get_varint(&p_, end_, &value)) {
      fail(error, TraceErrorCode::kBadEvent, at() + "clock truncated");
      return false;
    }
    component = (c == 0) ? gap : component + 1 + gap;
    if (component >= n) {
      fail(error, TraceErrorCode::kBadEvent,
           at() + "clock component index out of range");
      return false;
    }
    if (!absolute && value == 0) {
      fail(error, TraceErrorCode::kBadEvent,
           at() + "zero clock increment in a delta record");
      return false;
    }
    const std::uint64_t base = absolute ? 0 : clock_[component];
    const std::uint64_t updated = base + value;
    if (updated > std::numeric_limits<EventIndex>::max()) {
      fail(error, TraceErrorCode::kBadEvent,
           at() + "clock component above 2^32-1");
      return false;
    }
    clock_[component] = static_cast<EventIndex>(updated);
  }

  accesses_.clear();
  if ((flags & kHasAccesses) != 0) {
    std::uint64_t num_accesses = 0;
    // Each encoded access is at least 2 bytes, so the payload bounds the
    // count. Nothing is reserved from the raw value: the scratch grows by
    // push_back and keeps its capacity for later events.
    if (!get_varint(&p_, end_, &num_accesses) ||
        num_accesses > static_cast<std::uint64_t>(end_ - p_)) {
      fail(error, TraceErrorCode::kBadEvent, at() + "bad access count");
      return false;
    }
    for (std::uint64_t a = 0; a < num_accesses; ++a) {
      std::uint64_t var = 0;
      if (!get_varint(&p_, end_, &var) ||
          var > std::numeric_limits<VarId>::max() || p_ == end_) {
        fail(error, TraceErrorCode::kBadEvent, at() + "access list truncated");
        return false;
      }
      const std::uint8_t aflags = *p_++;
      if ((aflags & ~kKnownAccessFlags) != 0) {
        fail(error, TraceErrorCode::kBadEvent, at() + "unknown access flags");
        return false;
      }
      accesses_.push_back(TraceAccess{static_cast<VarId>(var),
                                      (aflags & kAccessIsWrite) != 0,
                                      (aflags & kAccessIsInit) != 0});
    }
  }

  const ClockValidator::Verdict verdict = validator_.validate(tid, clock_);
  if (verdict != ClockValidator::Verdict::kOk) {
    fail(error,
         verdict == ClockValidator::Verdict::kRegression
             ? TraceErrorCode::kClockRegression
             : TraceErrorCode::kBadEvent,
         at() + validator_.describe(tid, verdict));
    return false;
  }
  validator_.commit(tid, clock_);
  seen_in_chunk_[tid] = 1;

  out->tid = tid;
  out->kind = kind;
  out->object = static_cast<std::uint32_t>(object);
  out->clock = clock_;
  out->accesses = accesses_;
  return true;
}

}  // namespace paramount::trace
