#include "engine/session.h"

namespace smoothscan {

// ---------------------------------------------------------------- QueryHandle

QueryHandle& QueryHandle::operator=(QueryHandle&& other) noexcept {
  if (this == &other) return *this;
  if (valid() && !waited_) {
    Cancel();
    Wait();
  }
  session_ = other.session_;
  id_ = other.id_;
  stream_ = std::move(other.stream_);
  waited_ = other.waited_;
  result_ = std::move(other.result_);
  other.session_ = nullptr;
  other.id_ = 0;
  other.waited_ = false;
  return *this;
}

QueryHandle::~QueryHandle() {
  if (valid() && !waited_) {
    // Abandoned handle (e.g. a dropped connection): cancel and reap, so the
    // engine record never leaks and the executor never blocks on a stream
    // nobody reads.
    Cancel();
    Wait();
  }
}

bool QueryHandle::NextBatch(TupleBatch* out) {
  if (stream_ == nullptr) return false;
  return stream_->Pop(out);
}

const QueryResult& QueryHandle::Wait() {
  SMOOTHSCAN_CHECK(valid());
  if (!waited_) {
    result_ = session_->engine()->WaitSpec(id_);
    waited_ = true;
  }
  return result_;
}

QueryResult QueryHandle::Take() {
  Wait();
  return std::move(result_);
}

void QueryHandle::Cancel() {
  if (!valid() || waited_) return;
  if (stream_ != nullptr) {
    // Unblock the producer first: a stream-stalled executor only re-polls
    // the cancel flag once its pending Push drains.
    stream_->CloseConsumer();
  }
  session_->engine()->Cancel(id_);
}

// -------------------------------------------------------------- QueryBuilder

QueryHandle QueryBuilder::Submit() {
  return session_->SubmitSpec(std::move(spec_), stream_);
}

// ------------------------------------------------------------------- Session

Session::Session(QueryEngine* engine, SessionOptions options)
    : engine_(engine), options_(std::move(options)) {
  SMOOTHSCAN_CHECK(engine_ != nullptr);
  SMOOTHSCAN_CHECK(options_.max_outstanding >= 1);
  latch::LatchGuard lock(mu_);
  window_ = options_.max_outstanding;
}

Session::~Session() {
  // Every query's completion callback has fired once outstanding_ drains, so
  // after this no engine thread can touch the session again.
  latch::UniqueLatch lock(mu_);
  while (outstanding_ != 0) cv_.wait(lock);
}

void Session::SetWindow(uint32_t window) {
  SMOOTHSCAN_CHECK(window >= 1);
  latch::LatchGuard lock(mu_);
  window_ = window;
  cv_.notify_all();
}

uint32_t Session::window() const {
  latch::LatchGuard lock(mu_);
  return window_;
}

uint32_t Session::outstanding() const {
  latch::LatchGuard lock(mu_);
  return outstanding_;
}

uint64_t Session::window_stalls() const {
  latch::LatchGuard lock(mu_);
  return window_stalls_;
}

QueryHandle Session::SubmitSpec(QuerySpec spec, bool stream) {
  {
    latch::UniqueLatch lock(mu_);
    if (outstanding_ >= window_) {
      ++window_stalls_;
      while (outstanding_ >= window_) cv_.wait(lock);
    }
    ++outstanding_;
  }
  std::unique_ptr<ResultStream> rs;
  if (stream) {
    rs = std::make_unique<ResultStream>(options_.stream_batches);
    spec.stream = rs.get();
  }
  spec.on_complete = [this](uint64_t) { OnComplete(); };
  const uint64_t id = engine_->SubmitSpec(std::move(spec));
  return QueryHandle(this, id, std::move(rs));
}

void Session::OnComplete() {
  // Notify under the latch: a ~Session waiter may destroy the session the
  // moment the count hits zero, so cv_ must not be touched after unlock.
  latch::LatchGuard lock(mu_);
  SMOOTHSCAN_CHECK(outstanding_ > 0);
  --outstanding_;
  cv_.notify_all();
}

}  // namespace smoothscan
