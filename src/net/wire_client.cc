#include "net/wire_client.h"

#include <cinttypes>
#include <cstdio>
#include <utility>

namespace smoothscan {
namespace net {
namespace {

void SendFrame(Transport* t, FrameType type, std::string payload) {
  Frame frame;
  frame.type = type;
  frame.payload = std::move(payload);
  std::string wire;
  EncodeFrame(frame, &wire);
  t->WriteAll(wire.data(), wire.size());
}

}  // namespace

void WireClient::Hello(const std::string& lane, uint32_t window) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "LANE=%s WINDOW=%u", lane.c_str(), window);
  SendFrame(transport_.get(), FrameType::kHello, buf);
}

uint64_t WireClient::Submit(const std::string& text) {
  const uint64_t tag = next_tag_++;
  pending_[tag];  // Open the accumulator before any frame can arrive.
  SendFrame(transport_.get(), FrameType::kQuery, EncodeTagged(tag, text));
  return tag;
}

void WireClient::Cancel(uint64_t tag) {
  SendFrame(transport_.get(), FrameType::kCancel, EncodeTagged(tag, {}));
}

WireResult WireClient::Wait(uint64_t tag) {
  auto it = pending_.find(tag);
  if (it == pending_.end()) return WireResult{};
  while (!it->second.complete && !down_) {
    if (!PumpOnce()) down_ = true;
  }
  WireResult result = std::move(it->second);
  pending_.erase(it);
  return result;
}

std::string WireClient::MetricsText() {
  metrics_ready_ = false;
  metrics_text_.clear();
  SendFrame(transport_.get(), FrameType::kMetrics, EncodeTagged(0, {}));
  while (!metrics_ready_ && !down_) {
    if (!PumpOnce()) down_ = true;
  }
  return std::move(metrics_text_);
}

void WireClient::Close() {
  if (transport_ != nullptr) transport_->Shutdown();
}

bool WireClient::PumpOnce() {
  char buf[4096];
  const int n = transport_->Read(buf, sizeof buf);
  if (n <= 0) return false;
  if (!decoder_.Feed(buf, static_cast<size_t>(n)).ok()) return false;
  Frame frame;
  while (decoder_.Pop(&frame)) Dispatch(frame);
  return true;
}

void WireClient::Dispatch(const Frame& frame) {
  switch (frame.type) {
    case FrameType::kBatch: {
      uint64_t tag = 0;
      std::vector<std::vector<int64_t>> rows;
      if (!ParseBatchPayload(frame.payload, &tag, &rows).ok()) return;
      auto it = pending_.find(tag);
      if (it == pending_.end()) return;
      for (auto& row : rows) it->second.rows.push_back(std::move(row));
      return;
    }
    case FrameType::kDone: {
      uint64_t tag = 0;
      QueryResult result;
      if (!ParseDonePayload(frame.payload, &tag, &result).ok()) return;
      auto it = pending_.find(tag);
      if (it == pending_.end()) return;
      it->second.complete = true;
      it->second.status = std::move(result.status);
      it->second.metrics = result.metrics;
      return;
    }
    case FrameType::kError: {
      uint64_t tag = 0;
      std::string_view message;
      if (!ParseTagged(frame.payload, &tag, &message).ok()) return;
      if (tag == 0) {
        // Connection-level error: every in-flight query is dead.
        for (auto& [t, r] : pending_) {
          if (!r.complete) {
            r.complete = true;
            r.status = Status::InvalidArgument(std::string(message));
          }
        }
        return;
      }
      auto it = pending_.find(tag);
      if (it == pending_.end()) return;
      it->second.complete = true;
      it->second.status = Status::InvalidArgument(std::string(message));
      return;
    }
    case FrameType::kMetricsText: {
      uint64_t tag = 0;
      std::string_view text;
      if (!ParseTagged(frame.payload, &tag, &text).ok()) return;
      metrics_text_ = std::string(text);
      metrics_ready_ = true;
      return;
    }
    default:
      return;  // Client-to-server type echoed back: ignore.
  }
}

}  // namespace net
}  // namespace smoothscan
