#include "ledger.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

namespace perfbench {

namespace {

/// Spans currently open on this thread (innermost last).
thread_local uint64_t t_current_span = 0;

uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

size_t NearestRank(size_t n, double q) {
  // 1-based rank ceil(q * n), clamped to [1, n].
  const double r = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<size_t>(static_cast<size_t>(std::max(r, 1.0)), 1, n);
}

}  // namespace

double Percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  const size_t rank = NearestRank(values.size(), q);
  std::nth_element(values.begin(), values.begin() + (rank - 1), values.end());
  return values[rank - 1];
}

double Median(std::vector<double> values) {
  return Percentile(std::move(values), 0.5);
}

size_t SamplesBeyond(size_t n, double q) {
  return n == 0 ? 0 : n - NearestRank(n, q);
}

TailPercentile HighestSupportedPercentile(const std::vector<double>& values,
                                          size_t min_beyond) {
  static constexpr double kCandidates[] = {0.999, 0.99, 0.95,
                                           0.90,  0.75, 0.50};
  TailPercentile tail;
  tail.n = values.size();
  for (const double q : kCandidates) {
    const size_t beyond = SamplesBeyond(values.size(), q);
    if (beyond >= min_beyond) {
      tail.q = q;
      tail.beyond = beyond;
      tail.value = Percentile(values, q);
      return tail;
    }
  }
  return tail;
}

// ------------------------------------------------------------------ spans

SpanRecorder::Scope SpanRecorder::Open(std::string_view name,
                                       uint64_t query) {
  Scope scope;
  if (!enabled_) return scope;
  scope.rec_ = this;
  scope.span_.name = std::string(name);
  scope.span_.query = query;
  scope.span_.parent = t_current_span;
  {
    std::lock_guard<std::mutex> lock(mu_);
    scope.span_.id = next_id_++;
  }
  scope.saved_parent_ = t_current_span;
  t_current_span = scope.span_.id;
  scope.span_.start_us = NowUs();
  return scope;
}

void SpanRecorder::Scope::End() {
  if (rec_ == nullptr) return;
  span_.end_us = rec_->NowUs();
  t_current_span = saved_parent_;
  {
    std::lock_guard<std::mutex> lock(rec_->mu_);
    rec_->spans_.push_back(std::move(span_));
  }
  rec_ = nullptr;
}

std::vector<Span> SpanRecorder::spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

bool SpanRecorder::WriteJson(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"spans\": [\n");
  const std::vector<Span> all = spans();
  for (size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "  {\"id\": %llu, \"parent\": %llu, \"query\": %llu, "
                 "\"name\": \"%s\", \"start_us\": %.3f, \"end_us\": %.3f}%s\n",
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.query), s.name.c_str(),
                 s.start_us, s.end_us, i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

std::vector<SelfTime> ComputeSelfTimes(const std::vector<Span>& spans) {
  // Children per parent id, as [start, end) intervals clipped to the parent.
  std::unordered_map<uint64_t, std::vector<std::pair<double, double>>> kids;
  for (const Span& s : spans) {
    if (s.parent != 0) kids[s.parent].emplace_back(s.start_us, s.end_us);
  }
  std::vector<SelfTime> out;
  std::unordered_map<std::string, size_t> slot;
  for (const Span& s : spans) {
    const double total = std::max(0.0, s.end_us - s.start_us);
    // Union of the child intervals inside [start, end): concurrent children
    // (parallel workers) must not be subtracted twice.
    double covered = 0.0;
    if (auto it = kids.find(s.id); it != kids.end()) {
      std::vector<std::pair<double, double>> iv = it->second;
      std::sort(iv.begin(), iv.end());
      double cur_lo = 0.0;
      double cur_hi = -1.0;
      for (auto [lo, hi] : iv) {
        lo = std::max(lo, s.start_us);
        hi = std::min(hi, s.end_us);
        if (hi <= lo) continue;
        if (lo > cur_hi) {
          if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
          cur_lo = lo;
          cur_hi = hi;
        } else {
          cur_hi = std::max(cur_hi, hi);
        }
      }
      if (cur_hi > cur_lo) covered += cur_hi - cur_lo;
    }
    auto [it, inserted] = slot.emplace(s.name, out.size());
    if (inserted) out.push_back(SelfTime{s.name, 0, 0.0, 0.0});
    SelfTime& t = out[it->second];
    ++t.calls;
    t.total_us += total;
    t.self_us += std::max(0.0, total - covered);
  }
  std::sort(out.begin(), out.end(), [](const SelfTime& a, const SelfTime& b) {
    return a.self_us > b.self_us;
  });
  return out;
}

// ----------------------------------------------------------------- oracle

void ResultDigest::Add(int64_t primary_key) {
  ++count;
  checksum += Mix64(static_cast<uint64_t>(primary_key));
}

void ResultOracle::Rebuild(const smoothscan::HeapFile& heap, int key_column,
                           std::vector<smoothscan::Tid>* live) {
  std::vector<std::pair<int64_t, uint64_t>> rows;
  rows.reserve(heap.num_tuples());
  if (live != nullptr) live->clear();
  heap.ForEachDirect([&](smoothscan::Tid tid, const smoothscan::Tuple& t) {
    if (live != nullptr) live->push_back(tid);
    rows.emplace_back(t[key_column].AsInt64(),
                      Mix64(static_cast<uint64_t>(t[0].AsInt64())));
  });
  std::sort(rows.begin(), rows.end());
  keys_.resize(rows.size());
  prefix_.assign(rows.size() + 1, 0);
  for (size_t i = 0; i < rows.size(); ++i) {
    keys_[i] = rows[i].first;
    prefix_[i + 1] = prefix_[i] + rows[i].second;
  }
}

ResultDigest ResultOracle::Expect(int64_t lo, int64_t hi) const {
  const size_t a = static_cast<size_t>(
      std::lower_bound(keys_.begin(), keys_.end(), lo) - keys_.begin());
  const size_t b = static_cast<size_t>(
      std::lower_bound(keys_.begin(), keys_.end(), hi) - keys_.begin());
  ResultDigest d;
  if (b <= a) return d;
  d.count = b - a;
  d.checksum = prefix_[b] - prefix_[a];
  return d;
}

}  // namespace perfbench
