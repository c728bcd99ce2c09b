// Measurement primitives of the repo benchmark: percentiles with a stated
// sample count, named metrics, an in-memory span recorder with self-time
// accounting, and the result oracle every read is checked against.
//
// Everything here lives in the benchmark's own files: spans are recorded
// around the benchmark's calls into the engine's public functions, never
// inside the engine.

#ifndef PERFBENCH_LEDGER_H_
#define PERFBENCH_LEDGER_H_

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/types.h"
#include "storage/heap_file.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

// ------------------------------------------------------------ percentiles

/// Nearest-rank percentile (q in [0, 1]) of a non-empty sample.
double Percentile(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Samples strictly above the nearest-rank q-percentile of n samples.
size_t SamplesBeyond(size_t n, double q);

/// The highest of the standard percentiles (p99.9, p99, p95, p90, p75, p50)
/// that leaves at least `min_beyond` samples above it — the tail a run of
/// this size can actually support. `q` is 0 when even p50 is unsupported.
struct TailPercentile {
  double q = 0.0;
  double value = 0.0;
  size_t n = 0;
  size_t beyond = 0;
};
TailPercentile HighestSupportedPercentile(const std::vector<double>& values,
                                          size_t min_beyond = 10);

// ---------------------------------------------------------------- metrics

struct Metric {
  std::string name;
  std::string unit;
  double value = 0.0;
};

// ------------------------------------------------------------------ spans

/// One timed call: name, [start, end) in microseconds since the recorder
/// started, the enclosing span on the same thread (0 = root) and the query
/// the call served (0 = none).
struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t query = 0;
  std::string name;
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span recorder. Disabled recorders hand out no-op scopes, so the
/// untraced run pays one branch per call site. Thread-safe; nesting is
/// tracked per thread.
class SpanRecorder {
 public:
  explicit SpanRecorder(bool enabled) : enabled_(enabled) {}
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  bool enabled() const { return enabled_; }

  class Scope {
   public:
    Scope() = default;
    Scope(Scope&& other) noexcept { *this = std::move(other); }
    Scope& operator=(Scope&& other) noexcept {
      std::swap(rec_, other.rec_);
      std::swap(span_, other.span_);
      std::swap(saved_parent_, other.saved_parent_);
      return *this;
    }
    ~Scope() { End(); }
    /// Attributes the span to a query whose id became known after Open.
    void SetQuery(uint64_t query) { span_.query = query; }
    void End();

   private:
    friend class SpanRecorder;
    SpanRecorder* rec_ = nullptr;
    Span span_;
    uint64_t saved_parent_ = 0;
  };

  /// Opens a span that closes when the returned scope ends.
  Scope Open(std::string_view name, uint64_t query = 0);

  /// Spans recorded so far (copy).
  std::vector<Span> spans() const;

  /// Writes every span as one JSON document; false on I/O failure.
  bool WriteJson(const std::string& path) const;

 private:
  double NowUs() const {
    return std::chrono::duration<double, std::micro>(Clock::now() - origin_)
        .count();
  }

  const bool enabled_;
  const Clock::time_point origin_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;
  uint64_t next_id_ = 1;
};

/// Per-name totals: calls, inclusive time and self time (inclusive time
/// minus the part of the span covered by its child spans).
struct SelfTime {
  std::string name;
  uint64_t calls = 0;
  double total_us = 0.0;
  double self_us = 0.0;
};
std::vector<SelfTime> ComputeSelfTimes(const std::vector<Span>& spans);

// ----------------------------------------------------------------- oracle

/// Order-independent digest of a result: tuple count plus the sum of a
/// mixed hash of each tuple's primary key (column c1).
struct ResultDigest {
  uint64_t count = 0;
  uint64_t checksum = 0;

  void Add(int64_t primary_key);
  friend bool operator==(const ResultDigest&, const ResultDigest&) = default;
};

/// Reference answers for range predicates on the indexed column, computed
/// with HeapFile::ForEachDirect over the table's current snapshot.
class ResultOracle {
 public:
  /// Re-reads the whole table (free of simulated charges); `live` (optional)
  /// receives the Tid of every live tuple.
  void Rebuild(const smoothscan::HeapFile& heap, int key_column,
               std::vector<smoothscan::Tid>* live = nullptr);
  /// The digest of "key_column >= lo AND key_column < hi".
  ResultDigest Expect(int64_t lo, int64_t hi) const;
  uint64_t size() const { return keys_.size(); }

 private:
  std::vector<int64_t> keys_;        ///< Sorted key-column values.
  std::vector<uint64_t> prefix_;     ///< prefix_[i] = sum of hashes [0, i).
};

}  // namespace perfbench

#endif  // PERFBENCH_LEDGER_H_
