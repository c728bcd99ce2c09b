// Wire frames of the network front-end: a length-prefixed binary envelope
// around text payloads.
//
//   [u32 LE payload length][u8 frame type][payload bytes]
//
// Client → server: HELLO (session setup), QUERY ("<tag> <query text>" — see
// plan/query_text.h for the grammar), CANCEL ("<tag>"), METRICS (empty).
// Server → client: BATCH ("<tag> r0c0,r0c1|r1c0,..."), DONE ("<tag>
// key=value..." carrying the full QueryResult with %.17g doubles so the
// simulated-cost accounting round-trips bit-identically), ERROR ("<tag>
// <message>"; tag 0 = connection-level), METRICS_TEXT (registry dump).
//
// The payload cap bounds a connection's buffering; an oversized or
// unrecognized header is unrecoverable framing (the decoder cannot resync a
// byte stream) and closes that connection — the server itself stays up.

#ifndef SMOOTHSCAN_NET_FRAME_H_
#define SMOOTHSCAN_NET_FRAME_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/tuple_batch.h"
#include "engine/query_engine.h"

namespace smoothscan {
namespace net {

enum class FrameType : uint8_t {
  // Client → server.
  kHello = 1,
  kQuery = 2,
  kCancel = 3,
  kMetrics = 4,
  // Server → client.
  kBatch = 16,
  kDone = 17,
  kError = 18,
  kMetricsText = 19,
};

/// Largest accepted payload (1 MiB). Result batches are far smaller; query
/// text larger than this is hostile input.
inline constexpr uint32_t kMaxFramePayload = 1u << 20;

struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Appends the wire encoding of `frame` to `wire`.
void EncodeFrame(const Frame& frame, std::string* wire);

/// Incremental decoder over a connection's byte stream. Feed() appends raw
/// bytes and validates each header as soon as it is complete; Pop() yields
/// finished frames. After a Feed() error the decoder is poisoned — the
/// stream cannot be resynchronized.
class FrameDecoder {
 public:
  /// kInvalidArgument on an oversized length or an unknown frame type.
  Status Feed(const char* data, size_t n);
  bool Pop(Frame* out);

  /// Bytes the decoder holds, including a consumed prefix not yet compacted
  /// away. Pop() drops that prefix once it is at least half the buffer, so
  /// a lagging reader retains at most about one partial frame plus what it
  /// fed since its last Pop().
  size_t buffered() const { return buf_.size(); }

 private:
  std::string buf_;
  size_t pos_ = 0;  ///< Consumption cursor (see buffered()).
  /// Start of the first frame Feed() has not yet seen whole (>= pos_): every
  /// header before it is validated, so each Feed() checks only new frames.
  size_t checked_ = 0;
  bool poisoned_ = false;
};

// --- payload codecs -------------------------------------------------------
// All request/response payloads start with a decimal client-chosen tag.

/// Strict unsigned decimal: digits only (no sign, no whitespace), and no
/// overflow. Every unsigned integer a peer sends goes through it.
Status ParseU64(std::string_view tok, uint64_t* out);

/// "<tag> <text>".
std::string EncodeTagged(uint64_t tag, std::string_view text);
/// Splits "<tag> <rest>"; rest may be empty.
Status ParseTagged(std::string_view payload, uint64_t* tag,
                   std::string_view* rest);

/// Result rows (all-INT64 tuples): "r0c0,r0c1|r1c0,r1c1|...".
std::string EncodeBatchPayload(uint64_t tag, const TupleBatch& batch);
Status ParseBatchPayload(std::string_view payload, uint64_t* tag,
                         std::vector<std::vector<int64_t>>* rows);

/// The full QueryResult as key=value pairs. Doubles are printed with %.17g,
/// so the simulated-cost fields parse back bit-identically — the property
/// the wire-vs-direct differential test pins.
std::string EncodeDonePayload(uint64_t tag, const QueryResult& result);
Status ParseDonePayload(std::string_view payload, uint64_t* tag,
                        QueryResult* result);

}  // namespace net
}  // namespace smoothscan

#endif  // SMOOTHSCAN_NET_FRAME_H_
