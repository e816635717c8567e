// FrameChannel transport tests: the S3 partial-I/O contract and the S2
// listen_unix probe.
//
// The split-point suites drive a socketpair byte by byte: a non-blocking
// reader must return kWouldBlock at EVERY prefix of a frame (mid-header,
// at the header/body seam, mid-body) and resume to the identical payload
// once the rest arrives; a non-blocking writer whose kernel buffer is full
// must buffer the tail and flush() it out across arbitrary resume offsets
// with no byte reordered or dropped. The buffered-read cases put many
// frames, or one frame longer than the read chunk, behind a single recv().
// The listen_unix suite pins the socket-stealing fix: a stale socket file
// is reclaimed, a live daemon's socket gets a typed kLiveListener refusal
// and is left untouched.
//
// Raw ::read/::write/socketpair are used deliberately here to control
// exactly how many bytes cross the wire per step — that is the point of
// the suite. Frame-level I/O still goes through FrameChannel.
#include "service/channel.hpp"

#include <gtest/gtest.h>
#include <sys/ioctl.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "service/frame.hpp"

namespace paramount::service {
namespace {

// A connected socketpair wrapped as two FrameChannels.
struct Pair {
  Pair() {
    int fds[2] = {-1, -1};
    EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    a = std::make_unique<FrameChannel>(UniqueFd(fds[0]));
    b = std::make_unique<FrameChannel>(UniqueFd(fds[1]));
  }
  std::unique_ptr<FrameChannel> a;
  std::unique_ptr<FrameChannel> b;
};

// The exact v2 wire image of one frame: 8-byte LE header (length, stream)
// then the payload.
std::vector<std::uint8_t> wire_frame(const std::vector<std::uint8_t>& payload,
                                     std::uint32_t stream_id) {
  std::vector<std::uint8_t> out;
  const auto le32 = [&out](std::uint32_t v) {
    out.push_back(static_cast<std::uint8_t>(v));
    out.push_back(static_cast<std::uint8_t>(v >> 8));
    out.push_back(static_cast<std::uint8_t>(v >> 16));
    out.push_back(static_cast<std::uint8_t>(v >> 24));
  };
  le32(static_cast<std::uint32_t>(payload.size()));
  le32(stream_id);
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

void write_all(int fd, const std::uint8_t* data, std::size_t n) {
  while (n > 0) {
    const ssize_t wrote = ::write(fd, data, n);
    ASSERT_GT(wrote, 0);
    data += wrote;
    n -= static_cast<std::size_t>(wrote);
  }
}

std::vector<std::uint8_t> test_payload() {
  // Long enough to have interior body split points, short enough to loop
  // over every prefix.
  return {0x42, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12};
}

// ---- S3: every short-read split point ----

// For every proper prefix of (header + body), a non-blocking reader fed
// only that prefix must report kWouldBlock, then complete to the identical
// frame when the remainder arrives — and the channel must be clean for the
// next frame.
TEST(FrameChannelSplits, ReadResumesAtEveryPrefix) {
  const std::vector<std::uint8_t> payload = test_payload();
  const std::vector<std::uint8_t> wire = wire_frame(payload, 7);
  for (std::size_t split = 0; split < wire.size(); ++split) {
    Pair pair;
    ASSERT_TRUE(pair.b->set_nonblocking(true));
    if (split > 0) write_all(pair.a->fd(), wire.data(), split);
    std::vector<std::uint8_t> got;
    std::uint32_t stream = 0;
    ASSERT_EQ(pair.b->read_frame(&got, &stream), ReadStatus::kWouldBlock)
        << "split at byte " << split;
    write_all(pair.a->fd(), wire.data() + split, wire.size() - split);
    ASSERT_EQ(pair.b->read_frame(&got, &stream), ReadStatus::kFrame)
        << "split at byte " << split;
    EXPECT_EQ(got, payload) << "split at byte " << split;
    EXPECT_EQ(stream, 7u) << "split at byte " << split;
    // A second frame must decode cleanly: no stale partial state.
    const std::vector<std::uint8_t> wire2 = wire_frame({0x01}, 0);
    write_all(pair.a->fd(), wire2.data(), wire2.size());
    ASSERT_EQ(pair.b->read_frame(&got, &stream), ReadStatus::kFrame);
    EXPECT_EQ(got.size(), 1u);
    EXPECT_EQ(stream, 0u);
  }
}

// Byte-at-a-time delivery: kWouldBlock after every byte but the last.
TEST(FrameChannelSplits, ReadSurvivesByteByByteDelivery) {
  const std::vector<std::uint8_t> payload = test_payload();
  const std::vector<std::uint8_t> wire = wire_frame(payload, 3);
  Pair pair;
  ASSERT_TRUE(pair.b->set_nonblocking(true));
  std::vector<std::uint8_t> got;
  std::uint32_t stream = 0;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    write_all(pair.a->fd(), &wire[i], 1);
    ASSERT_EQ(pair.b->read_frame(&got, &stream), ReadStatus::kWouldBlock)
        << "after byte " << i;
  }
  write_all(pair.a->fd(), &wire[wire.size() - 1], 1);
  ASSERT_EQ(pair.b->read_frame(&got, &stream), ReadStatus::kFrame);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(stream, 3u);
}

TEST(FrameChannelSplits, EmptySocketWouldBlockRepeatedly) {
  Pair pair;
  ASSERT_TRUE(pair.b->set_nonblocking(true));
  std::vector<std::uint8_t> got;
  EXPECT_EQ(pair.b->read_frame(&got), ReadStatus::kWouldBlock);
  EXPECT_EQ(pair.b->read_frame(&got), ReadStatus::kWouldBlock);
}

// EOF exactly at a frame boundary is an orderly close; EOF at any interior
// byte is kTruncated.
TEST(FrameChannelSplits, EofAtBoundaryVersusTruncatedMidFrame) {
  const std::vector<std::uint8_t> wire = wire_frame(test_payload(), 1);
  {
    Pair pair;
    write_all(pair.a->fd(), wire.data(), wire.size());
    pair.a.reset();  // close at the boundary
    std::vector<std::uint8_t> got;
    EXPECT_EQ(pair.b->read_frame(&got), ReadStatus::kFrame);
    EXPECT_EQ(pair.b->read_frame(&got), ReadStatus::kEof);
  }
  for (const std::size_t cut : {std::size_t{1}, std::size_t{4},
                                std::size_t{8}, wire.size() - 1}) {
    Pair pair;
    write_all(pair.a->fd(), wire.data(), cut);
    pair.a.reset();  // die mid-frame
    std::vector<std::uint8_t> got;
    EXPECT_EQ(pair.b->read_frame(&got), ReadStatus::kTruncated)
        << "cut at byte " << cut;
  }
}

TEST(FrameChannelSplits, OversizedHeaderIsRejectedWithoutReadingBody) {
  Pair pair;
  const std::vector<std::uint8_t> header = wire_frame({}, 0);
  std::vector<std::uint8_t> bad(header);
  const std::uint32_t huge = static_cast<std::uint32_t>(kMaxFramePayload) + 1;
  std::memcpy(bad.data(), &huge, sizeof(huge));
  write_all(pair.a->fd(), bad.data(), bad.size());
  std::vector<std::uint8_t> got;
  EXPECT_EQ(pair.b->read_frame(&got), ReadStatus::kOversized);
}

TEST(FrameChannelSplits, StreamIdRoundTripsAndDefaultsToZero) {
  Pair pair;
  const std::vector<std::uint8_t> payload = {0xAB, 0xCD};
  ASSERT_TRUE(pair.a->write_frame(payload, 0xDEADBEEFu));
  ASSERT_TRUE(pair.a->write_frame(payload));
  // One thread plays both ends: send the held frames before reading them.
  ASSERT_EQ(pair.a->flush(), FrameChannel::FlushStatus::kDrained);
  std::vector<std::uint8_t> got;
  std::uint32_t stream = 0;
  ASSERT_EQ(pair.b->read_frame(&got, &stream), ReadStatus::kFrame);
  EXPECT_EQ(stream, 0xDEADBEEFu);
  EXPECT_EQ(got, payload);
  ASSERT_EQ(pair.b->read_frame(&got, &stream), ReadStatus::kFrame);
  EXPECT_EQ(stream, 0u);
}

// write_frame must put header+payload on the wire as one contiguous image
// in the documented layout (u32 LE length, u32 LE stream, payload).
TEST(FrameChannelSplits, WriteProducesTheDocumentedWireImage) {
  Pair pair;
  const std::vector<std::uint8_t> payload = test_payload();
  ASSERT_TRUE(pair.a->write_frame(payload, 9));
  ASSERT_EQ(pair.a->flush(), FrameChannel::FlushStatus::kDrained);
  std::vector<std::uint8_t> raw(8 + payload.size());
  std::size_t got = 0;
  while (got < raw.size()) {
    const ssize_t n = ::read(pair.b->fd(), raw.data() + got,
                             raw.size() - got);
    ASSERT_GT(n, 0);
    got += static_cast<std::size_t>(n);
  }
  EXPECT_EQ(raw, wire_frame(payload, 9));
}

// ---- buffered reads ----

// Many frames and the close arrive in one write(): one recv() brings them
// all into the read buffer, and read_frame must hand every frame out of it
// in order before it reports the orderly EOF.
TEST(FrameChannelSplits, FramesAndCloseInOneWriteComeOutInOrder) {
  constexpr std::uint32_t kFrames = 100;
  std::vector<std::uint8_t> wire;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    const std::vector<std::uint8_t> image =
        wire_frame(std::vector<std::uint8_t>(i % 7, static_cast<std::uint8_t>(i)),
                   i);
    wire.insert(wire.end(), image.begin(), image.end());
  }
  ASSERT_LT(wire.size(), FrameChannel::kReadChunk);
  Pair pair;
  write_all(pair.a->fd(), wire.data(), wire.size());
  pair.a.reset();
  std::span<const std::uint8_t> got;
  std::uint32_t stream = 0;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    ASSERT_EQ(pair.b->read_frame(&got, &stream), ReadStatus::kFrame)
        << "frame " << i;
    EXPECT_EQ(stream, i);
    EXPECT_EQ(std::vector<std::uint8_t>(got.begin(), got.end()),
              std::vector<std::uint8_t>(i % 7, static_cast<std::uint8_t>(i)))
        << "frame " << i;
    EXPECT_EQ(pair.b->has_buffered_frame(), i + 1 < kFrames) << "frame " << i;
  }
  EXPECT_EQ(pair.b->read_frame(&got, &stream), ReadStatus::kEof);
}

// A payload larger than the read chunk grows the buffer for that frame
// only; it must round-trip intact between two non-blocking ends whose
// kernel buffers cannot hold it at once, and the next frame must follow.
TEST(FrameChannelSplits, PayloadLargerThanTheReadChunkRoundTrips) {
  std::vector<std::uint8_t> big(std::size_t{256} << 10);
  for (std::size_t j = 0; j < big.size(); ++j) {
    big[j] = static_cast<std::uint8_t>((j * 131 + j / 251) & 0xFF);
  }
  ASSERT_GT(big.size(), FrameChannel::kReadChunk);
  const std::vector<std::uint8_t> small = test_payload();
  Pair pair;
  const int shrink = 4096;  // kernels clamp to a floor; any small value works
  ASSERT_EQ(::setsockopt(pair.a->fd(), SOL_SOCKET, SO_SNDBUF, &shrink,
                         sizeof(shrink)), 0);
  ASSERT_EQ(::setsockopt(pair.b->fd(), SOL_SOCKET, SO_RCVBUF, &shrink,
                         sizeof(shrink)), 0);
  ASSERT_TRUE(pair.a->set_nonblocking(true));
  ASSERT_TRUE(pair.b->set_nonblocking(true));
  ASSERT_TRUE(pair.a->write_frame(big, 5));
  ASSERT_TRUE(pair.a->write_frame(small, 6));
  std::span<const std::uint8_t> got;
  std::uint32_t stream = 0;
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint32_t> streams;
  int would_block = 0;
  while (frames.size() < 2) {
    ASSERT_NE(pair.a->flush(), FrameChannel::FlushStatus::kError);
    const ReadStatus status = pair.b->read_frame(&got, &stream);
    if (status == ReadStatus::kWouldBlock) {
      ++would_block;
      continue;
    }
    ASSERT_EQ(status, ReadStatus::kFrame) << to_string(status);
    frames.emplace_back(got.begin(), got.end());
    streams.push_back(stream);
  }
  EXPECT_GT(would_block, 0) << "the frame never had to wait for its tail";
  EXPECT_FALSE(pair.a->has_pending_write());
  EXPECT_EQ(frames[0], big);
  EXPECT_EQ(streams[0], 5u);
  EXPECT_EQ(frames[1], small);
  EXPECT_EQ(streams[1], 6u);
  EXPECT_EQ(pair.b->read_frame(&got, &stream), ReadStatus::kWouldBlock);
}

// ---- S3: every short-write split point ----

// Shrink both kernel buffers so a burst of large frames overruns them, then
// drain the reader in deliberately awkward chunk sizes while flushing: the
// buffered tail must resume at arbitrary offsets and every frame must
// arrive bit-exact and in order.
TEST(FrameChannelSplits, BufferedWritesFlushAcrossArbitraryResumeOffsets) {
  Pair pair;
  const int small = 4096;  // kernels clamp to a floor; any small value works
  ASSERT_EQ(::setsockopt(pair.a->fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)), 0);
  ASSERT_EQ(::setsockopt(pair.b->fd(), SOL_SOCKET, SO_RCVBUF, &small,
                         sizeof(small)), 0);
  ASSERT_TRUE(pair.a->set_nonblocking(true));
  ASSERT_TRUE(pair.b->set_nonblocking(true));

  // Distinct, verifiable payloads big enough to overrun the buffers.
  constexpr int kFrames = 24;
  std::vector<std::vector<std::uint8_t>> sent;
  for (int i = 0; i < kFrames; ++i) {
    std::vector<std::uint8_t> payload(3000 + i * 17);
    for (std::size_t j = 0; j < payload.size(); ++j) {
      payload[j] = static_cast<std::uint8_t>((i * 131 + j) & 0xFF);
    }
    sent.push_back(std::move(payload));
    ASSERT_TRUE(pair.a->write_frame(sent.back(),
                                    static_cast<std::uint32_t>(i)));
  }
  ASSERT_TRUE(pair.a->has_pending_write())
      << "buffers too large to force a short write; grow the payloads";

  // Interleave draining (odd chunk sizes, so flush resumes at many
  // different offsets) with flushing until the backlog is gone.
  std::vector<std::uint8_t> raw;
  std::uint8_t chunk[97];
  std::size_t last_pending = pair.a->pending_write_bytes();
  while (true) {
    const FrameChannel::FlushStatus status = pair.a->flush();
    ASSERT_NE(status, FrameChannel::FlushStatus::kError);
    EXPECT_LE(pair.a->pending_write_bytes(), last_pending)
        << "flush must never grow the backlog";
    last_pending = pair.a->pending_write_bytes();
    if (status == FrameChannel::FlushStatus::kDrained) break;
    const ssize_t n = ::read(pair.b->fd(), chunk, sizeof(chunk));
    if (n > 0) raw.insert(raw.end(), chunk, chunk + n);
  }
  EXPECT_FALSE(pair.a->has_pending_write());

  // Drain whatever is still in the kernel, then decode everything.
  for (;;) {
    const ssize_t n = ::read(pair.b->fd(), chunk, sizeof(chunk));
    if (n <= 0) break;
    raw.insert(raw.end(), chunk, chunk + n);
  }
  std::vector<std::uint8_t> expected;
  for (int i = 0; i < kFrames; ++i) {
    const std::vector<std::uint8_t> image =
        wire_frame(sent[static_cast<std::size_t>(i)],
                   static_cast<std::uint32_t>(i));
    expected.insert(expected.end(), image.begin(), image.end());
  }
  EXPECT_EQ(raw, expected);
}

// Writing to a peer-closed socket must fail without raising SIGPIPE (the
// test surviving is the assertion). The small frames wait in the write
// buffer, so the failure shows at the flush, and it sticks: the next
// write_frame fails too.
TEST(FrameChannelSplits, PeerCloseFailsWritesWithoutSigpipe) {
  Pair pair;
  pair.b.reset();
  const std::vector<std::uint8_t> payload = test_payload();
  for (int i = 0; i < 4; ++i) ASSERT_TRUE(pair.a->write_frame(payload));
  EXPECT_EQ(pair.a->flush(), FrameChannel::FlushStatus::kError);
  EXPECT_FALSE(pair.a->write_frame(payload));
  EXPECT_FALSE(pair.a->has_pending_write());
}

// flush() on a peer-closed socket with a backlog reports kError.
TEST(FrameChannelSplits, FlushReportsErrorAfterPeerClose) {
  Pair pair;
  const int small = 4096;
  ASSERT_EQ(::setsockopt(pair.a->fd(), SOL_SOCKET, SO_SNDBUF, &small,
                         sizeof(small)), 0);
  ASSERT_TRUE(pair.a->set_nonblocking(true));
  std::vector<std::uint8_t> payload(1 << 16, 0x5A);
  while (!pair.a->has_pending_write()) {
    ASSERT_TRUE(pair.a->write_frame(payload));
  }
  pair.b.reset();
  EXPECT_EQ(pair.a->flush(), FrameChannel::FlushStatus::kError);
}

// ---- write buffering on blocking fds ----

// Bounds every blocking send and recv on the channel's fd, so a channel
// that forgets a flush fails its test (kWouldBlock) instead of hanging it.
void bound_waits(const FrameChannel& channel) {
  timeval tv = {};
  tv.tv_sec = 10;
  ASSERT_EQ(::setsockopt(channel.fd(), SOL_SOCKET, SO_RCVTIMEO, &tv,
                         sizeof(tv)), 0);
  ASSERT_EQ(::setsockopt(channel.fd(), SOL_SOCKET, SO_SNDTIMEO, &tv,
                         sizeof(tv)), 0);
}

// Bytes waiting in the kernel to be read on `channel`'s fd.
std::size_t queued_bytes(const FrameChannel& channel) {
  int n = -1;
  EXPECT_EQ(::ioctl(channel.fd(), FIONREAD, &n), 0);
  return static_cast<std::size_t>(n);
}

// Frames that leave the chunk unfilled stay off the wire; the frame that
// fills it sends every held frame, in order, in one call.
TEST(FrameChannelWriteBuffer, SmallFramesWaitForTheFrameThatFillsTheChunk) {
  Pair pair;
  bound_waits(*pair.b);
  constexpr std::size_t kPayload = 200;
  constexpr std::size_t kFrameBytes = 8 + kPayload;
  const auto payload = [](std::uint32_t i) {
    return std::vector<std::uint8_t>(kPayload, static_cast<std::uint8_t>(i));
  };
  constexpr std::uint32_t kHeld =
      (FrameChannel::kWriteChunk - 1) / kFrameBytes;
  for (std::uint32_t i = 0; i < kHeld; ++i) {
    ASSERT_TRUE(pair.a->write_frame(payload(i), i));
    ASSERT_EQ(queued_bytes(*pair.b), 0u) << "frame " << i;
  }
  EXPECT_EQ(pair.a->pending_write_bytes(), kHeld * kFrameBytes);
  EXPECT_EQ(pair.a->io_counts().send_calls, 0u);
  ASSERT_TRUE(pair.a->write_frame(payload(kHeld), kHeld));
  EXPECT_FALSE(pair.a->has_pending_write());
  EXPECT_EQ(pair.a->io_counts().send_calls, 1u);
  EXPECT_EQ(pair.a->io_counts().bytes_sent, (kHeld + 1) * kFrameBytes);
  EXPECT_EQ(pair.a->io_counts().frames_sent, kHeld + 1);
  EXPECT_EQ(queued_bytes(*pair.b), (kHeld + 1) * kFrameBytes);
  std::vector<std::uint8_t> got;
  std::uint32_t stream = 0;
  for (std::uint32_t i = 0; i <= kHeld; ++i) {
    ASSERT_EQ(pair.b->read_frame(&got, &stream), ReadStatus::kFrame)
        << "frame " << i;
    EXPECT_EQ(stream, i);
    EXPECT_EQ(got, payload(i)) << "frame " << i;
  }
}

// A client writes its requests and then reads: read_frame must send the
// held frames before it waits, or the responder, which answers only once
// it has seen every frame, never answers.
TEST(FrameChannelWriteBuffer, ReadFrameSendsHeldFramesBeforeItWaits) {
  Pair pair;
  bound_waits(*pair.a);
  bound_waits(*pair.b);
  constexpr std::uint32_t kFrames = 10;
  std::thread responder([&pair] {
    std::vector<std::uint8_t> got;
    std::uint32_t stream = 0;
    for (std::uint32_t i = 0; i < kFrames; ++i) {
      if (pair.b->read_frame(&got, &stream) != ReadStatus::kFrame) return;
    }
    // It stops writing and does not read: it must flush.
    pair.b->write_frame(test_payload(), kFrames);
    pair.b->flush();
  });
  bool wrote = true;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    wrote = pair.a->write_frame(test_payload(), i) && wrote;
  }
  const std::uint64_t sends_before_read = pair.a->io_counts().send_calls;
  std::vector<std::uint8_t> reply;
  std::uint32_t stream = 0;
  const ReadStatus status = pair.a->read_frame(&reply, &stream);
  responder.join();
  EXPECT_TRUE(wrote);
  EXPECT_EQ(sends_before_read, 0u);
  ASSERT_EQ(status, ReadStatus::kFrame) << to_string(status);
  EXPECT_EQ(stream, kFrames);
  EXPECT_EQ(reply, test_payload());
  EXPECT_EQ(pair.a->io_counts().send_calls, 1u);
}

// shutdown_write() and the destructor each send the held frames first: the
// peer reads every frame, then EOF.
TEST(FrameChannelWriteBuffer, ShutdownWriteAndDestructorSendHeldFrames) {
  for (const bool destroy : {false, true}) {
    Pair pair;
    bound_waits(*pair.b);
    for (std::uint32_t i = 0; i < 3; ++i) {
      ASSERT_TRUE(pair.a->write_frame(test_payload(), i));
    }
    ASSERT_EQ(queued_bytes(*pair.b), 0u);
    if (destroy) {
      pair.a.reset();
    } else {
      pair.a->shutdown_write();
    }
    std::vector<std::uint8_t> got;
    std::uint32_t stream = 0;
    for (std::uint32_t i = 0; i < 3; ++i) {
      ASSERT_EQ(pair.b->read_frame(&got, &stream), ReadStatus::kFrame)
          << (destroy ? "destructor" : "shutdown_write") << ", frame " << i;
      EXPECT_EQ(stream, i);
      EXPECT_EQ(got, test_payload());
    }
    EXPECT_EQ(pair.b->read_frame(&got), ReadStatus::kEof)
        << (destroy ? "destructor" : "shutdown_write");
  }
}

// The server's shape on a protocol error: a typed Error, then close. The
// client's held frame cannot go out any more, but the flush failing inside
// read_frame must not hide the Error. The write error then sticks.
TEST(FrameChannelWriteBuffer, PeerErrorStaysReadableAfterAFailedFlush) {
  Pair pair;
  bound_waits(*pair.a);
  ASSERT_TRUE(pair.b->write_frame(
      encode_error(ErrorCode::kClockRegression, "clock went back")));
  pair.b.reset();  // flushes the Error, then closes
  ASSERT_TRUE(pair.a->write_frame(test_payload()));  // held: no send yet
  std::vector<std::uint8_t> got;
  ASSERT_EQ(pair.a->read_frame(&got), ReadStatus::kFrame);
  EXPECT_EQ(pair.a->io_counts().send_calls, 1u) << "read_frame never flushed";
  DecodedFrame frame;
  ASSERT_FALSE(decode_frame(got, &frame).has_value());
  EXPECT_EQ(frame.op, Op::kError);
  EXPECT_EQ(frame.error.code, ErrorCode::kClockRegression);
  EXPECT_EQ(pair.a->read_frame(&got), ReadStatus::kEof);
  EXPECT_FALSE(pair.a->write_frame(test_payload()));
  EXPECT_EQ(pair.a->flush(), FrameChannel::FlushStatus::kError);
  EXPECT_EQ(pair.a->io_counts().send_calls, 1u) << "a failed channel sent";
}

// A frame larger than the chunk goes out behind the held bytes in the same
// send, and round-trips intact between blocking ends.
TEST(FrameChannelWriteBuffer, FrameLargerThanTheChunkRoundTrips) {
  Pair pair;
  bound_waits(*pair.a);
  bound_waits(*pair.b);
  std::vector<std::uint8_t> big(std::size_t{1} << 20);
  for (std::size_t j = 0; j < big.size(); ++j) {
    big[j] = static_cast<std::uint8_t>((j * 131 + j / 251) & 0xFF);
  }
  const std::vector<std::uint8_t> small = test_payload();
  std::vector<std::vector<std::uint8_t>> frames;
  std::vector<std::uint32_t> streams;
  std::thread reader([&] {
    std::vector<std::uint8_t> got;
    std::uint32_t stream = 0;
    for (int i = 0; i < 3; ++i) {
      if (pair.b->read_frame(&got, &stream) != ReadStatus::kFrame) return;
      frames.push_back(got);
      streams.push_back(stream);
    }
  });
  const bool wrote_small = pair.a->write_frame(small, 1);
  const bool wrote_big = pair.a->write_frame(big, 2);
  // A blocking send returns once the kernel has taken every byte.
  const std::uint64_t sends_after_big = pair.a->io_counts().send_calls;
  const bool held_after_big = pair.a->has_pending_write();
  const bool wrote_last = pair.a->write_frame(small, 3);
  const FrameChannel::FlushStatus flushed = pair.a->flush();
  reader.join();
  EXPECT_TRUE(wrote_small && wrote_big && wrote_last);
  EXPECT_EQ(sends_after_big, 1u);
  EXPECT_FALSE(held_after_big);
  EXPECT_EQ(flushed, FrameChannel::FlushStatus::kDrained);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0], small);
  EXPECT_EQ(frames[1], big);
  EXPECT_EQ(frames[2], small);
  EXPECT_EQ(streams, (std::vector<std::uint32_t>{1, 2, 3}));
}

// The client shape perfbench and paramount-client share: a thousand Event
// frames of about 200 B, then a Poll, then its reply. The sends number one
// per chunk, plus the Poll's flush.
TEST(FrameChannelWriteBuffer, ThousandFramesAndAPollSendOncePerChunk) {
  Pair pair;
  bound_waits(*pair.a);
  bound_waits(*pair.b);
  constexpr std::uint32_t kFrames = 1000;
  std::uint32_t seen = 0;
  std::thread responder([&pair, &seen] {
    std::vector<std::uint8_t> got;
    while (seen <= kFrames) {
      if (pair.b->read_frame(&got) != ReadStatus::kFrame) return;
      ++seen;
    }
    pair.b->write_frame(encode_counts(Op::kStats, {}));
    pair.b->flush();
  });
  bool wrote = true;
  for (std::uint32_t i = 0; i < kFrames; ++i) {
    const std::vector<std::uint8_t> event(190 + i % 21,
                                          static_cast<std::uint8_t>(i));
    wrote = pair.a->write_frame(event) && wrote;
  }
  wrote = pair.a->write_frame(encode_poll()) && wrote;
  std::vector<std::uint8_t> reply;
  const ReadStatus status = pair.a->read_frame(&reply);
  responder.join();
  EXPECT_TRUE(wrote);
  ASSERT_EQ(status, ReadStatus::kFrame) << to_string(status);
  EXPECT_EQ(seen, kFrames + 1);
  const FrameChannel::IoCounts& io = pair.a->io_counts();
  EXPECT_EQ(io.frames_sent, kFrames + 1);
  const std::uint64_t chunks =
      (io.bytes_sent + FrameChannel::kWriteChunk - 1) /
      FrameChannel::kWriteChunk;
  EXPECT_LE(io.send_calls, chunks + 2)
      << io.bytes_sent << " bytes in " << io.send_calls << " sends";
  EXPECT_EQ(pair.b->io_counts().bytes_received, io.bytes_sent);
}

// ---- endpoint parsing ----

TEST(EndpointParse, UnixSpecsWithAndWithoutScheme) {
  Endpoint ep;
  std::string error;
  ASSERT_TRUE(parse_endpoint("/tmp/pm.sock", &ep, &error)) << error;
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/tmp/pm.sock");
  ASSERT_TRUE(parse_endpoint("unix:/run/pm.sock", &ep, &error)) << error;
  EXPECT_EQ(ep.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(ep.path, "/run/pm.sock");
}

TEST(EndpointParse, TcpSpecHostPortAndWildcard) {
  Endpoint ep;
  std::string error;
  ASSERT_TRUE(parse_endpoint("tcp:127.0.0.1:9000", &ep, &error)) << error;
  EXPECT_EQ(ep.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(ep.host, "127.0.0.1");
  EXPECT_EQ(ep.port, 9000);
  ASSERT_TRUE(parse_endpoint("tcp::0", &ep, &error)) << error;
  EXPECT_TRUE(ep.host.empty());
  EXPECT_EQ(ep.port, 0);
}

TEST(EndpointParse, RejectsMalformedSpecs) {
  Endpoint ep;
  std::string error;
  EXPECT_FALSE(parse_endpoint("", &ep, &error));
  EXPECT_FALSE(parse_endpoint("tcp:host", &ep, &error));
  EXPECT_FALSE(parse_endpoint("tcp:host:notaport", &ep, &error));
  EXPECT_FALSE(parse_endpoint("tcp:host:70000", &ep, &error));
  EXPECT_FALSE(parse_endpoint("unix:", &ep, &error));
  EXPECT_FALSE(parse_endpoint(std::string("unix:") + std::string(300, 'x'),
                              &ep, &error));
}

// ---- S2: listen_unix stale-file vs live-daemon ----

std::string unique_path(const char* tag) {
  static std::atomic<int> counter{0};
  return "/tmp/pm_chan_" + std::string(tag) + "_" +
         std::to_string(::getpid()) + "_" +
         std::to_string(counter.fetch_add(1)) + ".sock";
}

// A socket file whose listener is gone is stale: rebinding must reclaim it.
TEST(ListenUnix, ReclaimsStaleSocketFile) {
  const std::string path = unique_path("stale");
  std::string error;
  {
    UniqueFd first = listen_unix(path, 4, &error);
    ASSERT_TRUE(first.valid()) << error;
  }  // listener fd closed; the file stays behind — stale
  ListenUnixError why = ListenUnixError::kNone;
  UniqueFd second = listen_unix(path, 4, &error, &why);
  EXPECT_TRUE(second.valid()) << error;
  EXPECT_EQ(why, ListenUnixError::kNone);
  second.reset();
  ::unlink(path.c_str());
}

// A path with a live listener must get the typed refusal — and the live
// listener must keep working afterwards (nothing was unlinked).
TEST(ListenUnix, RefusesToStealALiveListenersSocket) {
  const std::string path = unique_path("live");
  std::string error;
  UniqueFd live = listen_unix(path, 4, &error);
  ASSERT_TRUE(live.valid()) << error;

  ListenUnixError why = ListenUnixError::kNone;
  UniqueFd thief = listen_unix(path, 4, &error, &why);
  EXPECT_FALSE(thief.valid());
  EXPECT_EQ(why, ListenUnixError::kLiveListener);
  EXPECT_NE(error.find("live"), std::string::npos) << error;

  // The probe must not have broken the live daemon: clients still connect.
  UniqueFd client = connect_unix(path, &error);
  EXPECT_TRUE(client.valid()) << error;
  client.reset();
  live.reset();
  ::unlink(path.c_str());
}

TEST(ListenUnix, RejectsBadPaths) {
  std::string error;
  ListenUnixError why = ListenUnixError::kNone;
  EXPECT_FALSE(listen_unix("", 4, &error, &why).valid());
  EXPECT_EQ(why, ListenUnixError::kBadPath);
  EXPECT_FALSE(listen_unix(std::string(300, 'x'), 4, &error, &why).valid());
  EXPECT_EQ(why, ListenUnixError::kBadPath);
}

// ---- TCP helpers ----

TEST(TcpEndpoint, ListenConnectAndExchangeFrames) {
  std::string error;
  UniqueFd listener = listen_tcp("127.0.0.1", 0, 4, &error);
  ASSERT_TRUE(listener.valid()) << error;
  const std::uint16_t port = local_tcp_port(listener.get());
  ASSERT_NE(port, 0);

  UniqueFd client_fd = connect_tcp("127.0.0.1", port, &error);
  ASSERT_TRUE(client_fd.valid()) << error;
  UniqueFd server_fd(::accept(listener.get(), nullptr, nullptr));
  ASSERT_TRUE(server_fd.valid());

  FrameChannel client(std::move(client_fd));
  FrameChannel server(std::move(server_fd));
  const std::vector<std::uint8_t> payload = test_payload();
  // One thread plays both ends: each side sends its held frame before the
  // other reads it.
  ASSERT_TRUE(client.write_frame(payload, 11));
  ASSERT_EQ(client.flush(), FrameChannel::FlushStatus::kDrained);
  std::vector<std::uint8_t> got;
  std::uint32_t stream = 0;
  ASSERT_EQ(server.read_frame(&got, &stream), ReadStatus::kFrame);
  EXPECT_EQ(got, payload);
  EXPECT_EQ(stream, 11u);
  ASSERT_TRUE(server.write_frame(payload, 12));
  ASSERT_EQ(server.flush(), FrameChannel::FlushStatus::kDrained);
  ASSERT_EQ(client.read_frame(&got, &stream), ReadStatus::kFrame);
  EXPECT_EQ(stream, 12u);
}

TEST(TcpEndpoint, ConnectEndpointDispatchesOnKind) {
  std::string error;
  UniqueFd listener = listen_tcp("127.0.0.1", 0, 4, &error);
  ASSERT_TRUE(listener.valid()) << error;
  Endpoint ep;
  ep.kind = Endpoint::Kind::kTcp;
  ep.host = "127.0.0.1";
  ep.port = local_tcp_port(listener.get());
  UniqueFd fd = connect_endpoint(ep, &error);
  EXPECT_TRUE(fd.valid()) << error;
}

}  // namespace
}  // namespace paramount::service
