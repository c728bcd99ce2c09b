// Network front-end testing: the frame codec (round-trip, including the
// %.17g DONE payload that carries simulated-cost accounting bit-identically),
// decoder hostility (oversized/unknown/truncated frames close only the
// offending connection), session-window backpressure made visible in server
// stats, wire cancellation detaching a shared-scan consumer without
// perturbing its peers' bit-identical accounting, and — the API-redesign
// invariant — a wire-vs-direct differential: every query submitted as text
// through a server connection reports exactly the simulated cost of the same
// QuerySpec run directly, reads and writes, across admission caps 1/2/8.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "engine/query_engine.h"
#include "engine/session.h"
#include "net/frame.h"
#include "net/server.h"
#include "net/transport.h"
#include "net/wire_client.h"
#include "plan/query_text.h"
#include "sharing/scan_sharing.h"
#include "workload/micro_bench.h"
#include "write/table_writer.h"

namespace smoothscan {
namespace net {
namespace {

// ----------------------------------------------------------- frame codec

TEST(FrameCodecTest, RoundTripsThroughByteDribble) {
  // Several frames, fed to the decoder one byte at a time — the harshest
  // fragmentation a stream transport can produce.
  std::string wire;
  EncodeFrame({FrameType::kHello, "LANE=sla WINDOW=3"}, &wire);
  EncodeFrame({FrameType::kQuery, EncodeTagged(42, "SELECT * FROM t")}, &wire);
  EncodeFrame({FrameType::kBatch, "7 1,2|3,4"}, &wire);
  EncodeFrame({FrameType::kDone, ""}, &wire);  // Empty payload is legal.

  FrameDecoder decoder;
  std::vector<Frame> out;
  for (char c : wire) {
    ASSERT_TRUE(decoder.Feed(&c, 1).ok());
    Frame f;
    while (decoder.Pop(&f)) out.push_back(f);
  }
  ASSERT_EQ(out.size(), 4u);
  EXPECT_EQ(out[0].type, FrameType::kHello);
  EXPECT_EQ(out[0].payload, "LANE=sla WINDOW=3");
  EXPECT_EQ(out[1].type, FrameType::kQuery);
  uint64_t tag = 0;
  std::string_view rest;
  ASSERT_TRUE(ParseTagged(out[1].payload, &tag, &rest).ok());
  EXPECT_EQ(tag, 42u);
  EXPECT_EQ(rest, "SELECT * FROM t");
  std::vector<std::vector<int64_t>> rows;
  ASSERT_TRUE(ParseBatchPayload(out[2].payload, &tag, &rows).ok());
  EXPECT_EQ(tag, 7u);
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0], (std::vector<int64_t>{1, 2}));
  EXPECT_EQ(rows[1], (std::vector<int64_t>{3, 4}));
  EXPECT_EQ(out[3].payload, "");
}

TEST(FrameCodecTest, DonePayloadRoundTripsBitIdentically) {
  // Doubles with no short decimal form: %.17g must reproduce them exactly.
  QueryResult result;
  result.status = Status::Cancelled("stopped mid-lap");
  result.metrics.sim_time = 1.0 / 3.0 * 12345.0;
  result.metrics.io_time = std::sqrt(2.0) * 100.0;
  result.metrics.cpu_time = 0.1 + 0.2;  // The classic non-representable sum.
  result.metrics.queue_wait_ms = 1e-9;
  result.metrics.exec_ms = 17.125;
  result.metrics.latency_ms = 1.0 / 7.0;
  result.metrics.io_requests = 123;
  result.metrics.random_ios = 45;
  result.metrics.seq_ios = 78;
  result.metrics.pages_read = 901;
  result.metrics.tuples = 23456;
  result.metrics.mem_peak_bytes = 1u << 20;
  result.metrics.mem_quota_breaches = 3;
  result.metrics.kind = PathKind::kSmoothScan;
  result.metrics.lane = QueryLane::kSla;
  result.metrics.parallel = true;
  result.metrics.cancelled = true;

  const std::string payload = EncodeDonePayload(99, result);
  uint64_t tag = 0;
  QueryResult back;
  ASSERT_TRUE(ParseDonePayload(payload, &tag, &back).ok());
  EXPECT_EQ(tag, 99u);
  EXPECT_EQ(back.status.code(), StatusCode::kCancelled);
  EXPECT_EQ(back.status.message(), "stopped mid-lap");
  EXPECT_EQ(back.metrics.sim_time, result.metrics.sim_time);  // Exact.
  EXPECT_EQ(back.metrics.io_time, result.metrics.io_time);
  EXPECT_EQ(back.metrics.cpu_time, result.metrics.cpu_time);
  EXPECT_EQ(back.metrics.queue_wait_ms, result.metrics.queue_wait_ms);
  EXPECT_EQ(back.metrics.exec_ms, result.metrics.exec_ms);
  EXPECT_EQ(back.metrics.latency_ms, result.metrics.latency_ms);
  EXPECT_EQ(back.metrics.io_requests, result.metrics.io_requests);
  EXPECT_EQ(back.metrics.random_ios, result.metrics.random_ios);
  EXPECT_EQ(back.metrics.seq_ios, result.metrics.seq_ios);
  EXPECT_EQ(back.metrics.pages_read, result.metrics.pages_read);
  EXPECT_EQ(back.metrics.tuples, result.metrics.tuples);
  EXPECT_EQ(back.metrics.mem_peak_bytes, result.metrics.mem_peak_bytes);
  EXPECT_EQ(back.metrics.mem_quota_breaches,
            result.metrics.mem_quota_breaches);
  EXPECT_EQ(back.metrics.kind, PathKind::kSmoothScan);
  EXPECT_EQ(back.metrics.lane, QueryLane::kSla);
  EXPECT_TRUE(back.metrics.parallel);
  EXPECT_TRUE(back.metrics.cancelled);

  // Hostile DONE payloads: a status outside StatusCode, or a sign or
  // whitespace in a decimal field, is rejected rather than cast or wrapped.
  for (const char* bad : {"5 status=99", "5 status=-1", "-1 status=0",
                          "5 tuples=-1", "5 kind=+1", "5 seq_ios=\t2"}) {
    QueryResult ignored;
    EXPECT_FALSE(ParseDonePayload(bad, &tag, &ignored).ok()) << bad;
  }
}

TEST(FrameCodecTest, LaggingReaderRetainsOnlyUnconsumedBytes) {
  // 2,000 BATCH frames of 10,000-byte payloads, arriving in 4,096-byte reads
  // and popped after every read: the decoder may hold at most the partial
  // frame it is assembling plus one read, never the bytes already popped.
  const std::string payload(10000, 'x');
  std::string frame;
  EncodeFrame({FrameType::kBatch, payload}, &frame);
  std::string wire;
  for (int i = 0; i < 2000; ++i) wire += frame;

  constexpr size_t kRead = 4096;
  FrameDecoder decoder;
  size_t popped = 0;
  size_t peak = 0;
  for (size_t off = 0; off < wire.size(); off += kRead) {
    const size_t n = std::min(kRead, wire.size() - off);
    ASSERT_TRUE(decoder.Feed(wire.data() + off, n).ok());
    peak = std::max(peak, decoder.buffered());
    Frame f;
    while (decoder.Pop(&f)) {
      ASSERT_EQ(f.payload.size(), payload.size());
      ++popped;
    }
  }
  EXPECT_EQ(popped, 2000u);
  EXPECT_LE(peak, frame.size() + kRead);
  EXPECT_EQ(decoder.buffered(), 0u);
}

TEST(FrameCodecTest, DecoderPoisonsOnHostileHeaders) {
  {
    // Oversized declared length: rejected as soon as the header completes,
    // before any payload is buffered.
    FrameDecoder decoder;
    std::string header;
    const uint32_t huge = kMaxFramePayload + 1;
    header.append(reinterpret_cast<const char*>(&huge), 4);
    header.push_back(static_cast<char>(FrameType::kQuery));
    EXPECT_FALSE(decoder.Feed(header.data(), header.size()).ok());
    Frame f;
    EXPECT_FALSE(decoder.Pop(&f));  // Poisoned: nothing ever pops again.
  }
  {
    // Unknown frame type: a stream this far out of sync cannot be resynced.
    FrameDecoder decoder;
    std::string wire;
    EncodeFrame({FrameType::kQuery, "x"}, &wire);
    wire[4] = 99;  // Corrupt the type byte.
    EXPECT_FALSE(decoder.Feed(wire.data(), wire.size()).ok());
  }
  {
    // Feed() validates each frame once, from a cursor past the frames it
    // has seen whole. A hostile header queued behind many never-popped
    // frames — also after a compaction, and split across reads — must still
    // be rejected by the Feed() that completes it.
    std::string frame;
    EncodeFrame({FrameType::kBatch, std::string(100, 'x')}, &frame);
    std::string hostile;
    const uint32_t huge = kMaxFramePayload + 1;
    hostile.append(reinterpret_cast<const char*>(&huge), 4);
    hostile.push_back(static_cast<char>(FrameType::kBatch));
    for (const size_t pops : {size_t{0}, size_t{1500}}) {
      FrameDecoder decoder;
      for (int i = 0; i < 2000; ++i) {
        ASSERT_TRUE(decoder.Feed(frame.data(), frame.size()).ok());
      }
      Frame f;
      for (size_t i = 0; i < pops; ++i) ASSERT_TRUE(decoder.Pop(&f));
      // Half a frame, then its rest with the first bytes of the hostile
      // header, then the header's last byte.
      const size_t half = frame.size() / 2;
      ASSERT_TRUE(decoder.Feed(frame.data(), half).ok());
      const std::string rest = frame.substr(half) + hostile.substr(0, 4);
      ASSERT_TRUE(decoder.Feed(rest.data(), rest.size()).ok()) << pops;
      EXPECT_FALSE(decoder.Feed(hostile.data() + 4, 1).ok()) << pops;
      EXPECT_FALSE(decoder.Pop(&f));
    }
  }
  {
    // A truncated frame is not an error — just an incomplete stream.
    FrameDecoder decoder;
    std::string wire;
    EncodeFrame({FrameType::kQuery, EncodeTagged(1, "SELECT")}, &wire);
    ASSERT_TRUE(decoder.Feed(wire.data(), wire.size() - 3).ok());
    Frame f;
    EXPECT_FALSE(decoder.Pop(&f));
    ASSERT_TRUE(decoder.Feed(wire.data() + wire.size() - 3, 3).ok());
    EXPECT_TRUE(decoder.Pop(&f));
  }
}

// ------------------------------------------------------------ query text

TEST(QueryTextTest, DopHintIsBounded) {
  // A parallel scan without a shared scheduler starts `dop` threads, so a
  // peer's DOP hint must be bounded at parse time — never truncated to
  // 32 bits, never wrapped from a sign.
  const std::string prefix =
      "SELECT * FROM t WHERE C1 >= 0 AND C1 < 9 WITH (DOP=";
  Result<ParsedStatement> ok =
      ParseQueryText(prefix + std::to_string(kMaxQueryDop) + ")");
  ASSERT_TRUE(ok.ok());
  EXPECT_EQ(ok.value().dop, kMaxQueryDop);
  for (const char* bad : {"65", "1000000", "4294967296", "4294967297",
                          "18446744073709551616", "-1", "+2"}) {
    EXPECT_FALSE(ParseQueryText(prefix + bad + ")").ok()) << bad;
  }
}

// ----------------------------------------------------------- server fixture

/// One engine + micro-bench table + catalog + server, the seed fixed so two
/// fixtures are bit-identical worlds (the differential tests build several).
struct ServedDb {
  explicit ServedDb(uint32_t max_admitted, ServerOptions options = {},
                    bool with_writes = false) {
    EngineOptions eo;
    eo.buffer_pool_pages = 512;
    engine = std::make_unique<Engine>(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 20000;
    spec.value_max = 4000;
    spec.seed = 17;
    db = std::make_unique<MicroBenchDb>(engine.get(), spec);

    QueryEngineOptions qeo;
    qeo.max_admitted = max_admitted;
    if (with_writes) {
      versions = std::make_unique<TableVersionRegistry>(engine.get());
      writer = std::make_unique<TableWriter>(
          db->mutable_heap(), std::vector<BPlusTree*>{db->mutable_index()},
          versions.get());
      qeo.versions = versions.get();
    }
    qe = std::make_unique<QueryEngine>(engine.get(), qeo);

    TableBinding binding;
    binding.index = &db->index();
    if (with_writes) binding.writer = writer.get();
    catalog.Register("t", binding);
    server = std::make_unique<Server>(qe.get(), &catalog, options);
  }

  std::unique_ptr<Engine> engine;
  std::unique_ptr<MicroBenchDb> db;
  std::unique_ptr<TableVersionRegistry> versions;
  std::unique_ptr<TableWriter> writer;
  std::unique_ptr<QueryEngine> qe;
  QueryCatalog catalog;
  std::unique_ptr<Server> server;
};

std::string SelectText(const ScanPredicate& pred, const char* policy,
                       uint64_t estimate) {
  char buf[192];
  std::snprintf(buf, sizeof buf,
                "SELECT * FROM t WHERE C%d >= %lld AND C%d < %lld "
                "WITH (POLICY=%s, ESTIMATE=%llu)",
                pred.column, static_cast<long long>(pred.lo), pred.column,
                static_cast<long long>(pred.hi), policy,
                static_cast<unsigned long long>(estimate));
  return buf;
}

/// Column 0 of every streamed row: the wire result's key multiset.
std::multiset<int64_t> Column0(const WireResult& w) {
  std::multiset<int64_t> keys;
  for (const std::vector<int64_t>& row : w.rows) keys.insert(row[0]);
  return keys;
}

void ExpectWireMatchesDirect(const QueryMetrics& direct, const WireResult& w,
                             const std::string& label) {
  ASSERT_TRUE(w.complete) << label;
  ASSERT_TRUE(w.status.ok()) << label << ": " << w.status.ToString();
  EXPECT_EQ(direct.sim_time, w.metrics.sim_time) << label;  // Exact.
  EXPECT_EQ(direct.io_time, w.metrics.io_time) << label;
  EXPECT_EQ(direct.cpu_time, w.metrics.cpu_time) << label;
  EXPECT_EQ(direct.io_requests, w.metrics.io_requests) << label;
  EXPECT_EQ(direct.random_ios, w.metrics.random_ios) << label;
  EXPECT_EQ(direct.seq_ios, w.metrics.seq_ios) << label;
  EXPECT_EQ(direct.pages_read, w.metrics.pages_read) << label;
  EXPECT_EQ(direct.tuples, w.metrics.tuples) << label;
  EXPECT_EQ(direct.kind, w.metrics.kind) << label;
}

// ----------------------------------------------------------- server behavior

TEST(NetServerTest, HostileConnectionClosesAloneServerKeepsServing) {
  ServedDb world(/*max_admitted=*/2);

  // A well-behaved client on connection 1...
  WireClient good(world.server->ConnectPipe());
  const ScanPredicate pred = world.db->PredicateForSelectivity(0.01);
  WireResult r = good.Wait(good.Submit(SelectText(pred, "smooth", 0)));
  ASSERT_TRUE(r.status.ok());
  const uint64_t tuples_before = r.metrics.tuples;
  EXPECT_GT(tuples_before, 0u);

  // ...and a hostile byte stream on connection 2: an oversized header.
  std::unique_ptr<Transport> evil = world.server->ConnectPipe();
  std::string garbage;
  const uint32_t huge = kMaxFramePayload + 7;
  garbage.append(reinterpret_cast<const char*>(&huge), 4);
  garbage.push_back(static_cast<char>(FrameType::kQuery));
  ASSERT_TRUE(evil->WriteAll(garbage.data(), garbage.size()));
  // The server closes that connection: the next read sees EOF.
  char byte;
  int n;
  while ((n = evil->Read(&byte, 1)) > 0) {
  }
  EXPECT_LE(n, 0);

  // A half-written frame on connection 3, then the client walks away:
  // truncation is EOF, not a query.
  {
    std::unique_ptr<Transport> quitter = world.server->ConnectPipe();
    std::string partial;
    EncodeFrame({FrameType::kQuery, EncodeTagged(1, "SELECT * FROM t")},
                &partial);
    ASSERT_TRUE(quitter->WriteAll(partial.data(), partial.size() - 4));
  }  // Dropped mid-frame.

  // The good connection is entirely unaffected.
  r = good.Wait(good.Submit(SelectText(pred, "smooth", 0)));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.metrics.tuples, tuples_before);
  EXPECT_GE(world.server->stats().frames_malformed, 1u);
  EXPECT_EQ(world.server->stats().queries_ok, 2u);
}

TEST(NetServerTest, PayloadErrorsKeepTheConnection) {
  ServedDb world(/*max_admitted=*/2);
  WireClient client(world.server->ConnectPipe());

  // Three payload-level rejections — parse error, bind error (unknown
  // table), chooser without statistics — each an ERROR frame, never a close.
  WireResult r = client.Wait(client.Submit("SELEKT * FROM t"));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  r = client.Wait(
      client.Submit("SELECT * FROM nope WHERE C1 >= 0 AND C1 < 10"));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);
  r = client.Wait(client.Submit(
      "SELECT * FROM t WHERE C1 >= 0 AND C1 < 10 WITH (POLICY=auto)"));
  EXPECT_EQ(r.status.code(), StatusCode::kInvalidArgument);

  const ScanPredicate pred = world.db->PredicateForSelectivity(0.01);
  r = client.Wait(client.Submit(SelectText(pred, "index", 0)));
  EXPECT_TRUE(r.status.ok());
  EXPECT_GT(r.metrics.tuples, 0u);
  EXPECT_EQ(world.server->stats().queries_error, 3u);
  EXPECT_EQ(world.server->stats().frames_malformed, 0u);
}

TEST(NetServerTest, SessionWindowBackpressureIsVisible) {
  // Window 1 on a cap-1 engine: with several queries submitted back to back,
  // every submit after the first must stall in the connection's session
  // window until the previous query completes.
  ServedDb world(/*max_admitted=*/1);
  WireClient client(world.server->ConnectPipe());
  client.Hello("batch", /*window=*/1);

  const ScanPredicate pred = world.db->PredicateForSelectivity(0.3);
  std::vector<uint64_t> tags;
  for (int i = 0; i < 6; ++i) {
    tags.push_back(client.Submit(SelectText(pred, "full", 0)));
  }
  for (const uint64_t tag : tags) {
    ASSERT_TRUE(client.Wait(tag).status.ok());
  }
  const ServerStats stats = world.server->stats();
  EXPECT_EQ(stats.queries_ok, 6u);
  EXPECT_GT(stats.window_stalls, 0u);
}

TEST(NetServerTest, FinishedDrainerThreadsAreJoined) {
  // Each QUERY is drained by its own thread. The reader joins the exited
  // ones before it starts the next, so 200 queries in sequence on one
  // window-2 connection never hold more than window + 1 drainer threads.
  ServedDb world(/*max_admitted=*/2);
  WireClient client(world.server->ConnectPipe());
  client.Hello("batch", /*window=*/2);
  const ScanPredicate pred = world.db->PredicateForSelectivity(0.001);
  uint64_t peak = 0;
  for (int i = 0; i < 200; ++i) {
    ASSERT_TRUE(client.Wait(client.Submit(SelectText(pred, "index", 0)))
                    .status.ok());
    peak = std::max(peak, world.server->stats().drainer_threads);
  }
  EXPECT_EQ(world.server->stats().queries_ok, 200u);
  EXPECT_LE(peak, 3u);
  world.server->Stop();
  EXPECT_EQ(world.server->stats().drainer_threads, 0u);
}

TEST(NetServerTest, TcpTransportServesTheSameProtocol) {
  ServedDb world(/*max_admitted=*/2);
  ASSERT_TRUE(world.server->ListenTcp(0));  // Ephemeral port.
  std::unique_ptr<Transport> t = TcpListener::Connect(world.server->tcp_port());
  ASSERT_NE(t, nullptr);
  WireClient client(std::move(t));
  const ScanPredicate pred = world.db->PredicateForSelectivity(0.05);
  const WireResult r = client.Wait(client.Submit(SelectText(pred, "smooth", 0)));
  ASSERT_TRUE(r.status.ok());
  EXPECT_EQ(r.metrics.tuples, r.rows.size());
  EXPECT_GT(r.rows.size(), 0u);
}

// ----------------------------------------------------------- cancellation

TEST(NetCancelTest, WireCancelDetachesConsumerPeersStayIntact) {
  // Run A: seven shared-scan consumers, no cancellation — the reference.
  // Run B: the same seven plus an eighth, cancelled over the wire mid-scan.
  // The seven peers must produce the same result multisets in both worlds:
  // a wire CANCEL Detaches its consumer and corrupts nothing. (Per-peer
  // *charges* are not compared — shared-scan accounting hinges on which
  // consumer happens to pump the group's chunk fetches, a wall-clock race;
  // the bench JSON marks shared rows timing_dependent for the same reason.)
  auto run = [](bool with_victim) {
    EngineOptions eo;
    eo.buffer_pool_pages = 512;
    Engine engine(eo);
    MicroBenchSpec spec;
    spec.num_tuples = 20000;
    spec.value_max = 4000;
    spec.seed = 17;
    MicroBenchDb db(&engine, spec);
    ScanSharingCoordinator sharing(&engine);
    QueryEngineOptions qeo;
    qeo.max_admitted = 8;  // Every consumer admitted at once.
    qeo.sharing = &sharing;
    QueryEngine qe(&engine, qeo);
    TableBinding binding;
    binding.index = &db.index();
    QueryCatalog catalog;
    catalog.Register("t", binding);
    ServerOptions so;
    so.session.max_outstanding = 8;
    Server server(&qe, &catalog, so);
    WireClient client(server.ConnectPipe());

    const ScanPredicate pred = db.PredicateForSelectivity(0.4);
    const std::string text = SelectText(pred, "shared", 0);
    std::vector<uint64_t> peers;
    for (int i = 0; i < 7; ++i) peers.push_back(client.Submit(text));
    bool victim_cancelled = false;
    if (with_victim) {
      const uint64_t victim = client.Submit(text);
      client.Cancel(victim);
      const WireResult vr = client.Wait(victim);
      victim_cancelled = vr.metrics.cancelled;
    }
    std::vector<WireResult> results;
    for (const uint64_t tag : peers) results.push_back(client.Wait(tag));
    return std::make_pair(std::move(results), victim_cancelled);
  };

  const auto reference = run(/*with_victim=*/false);
  const auto cancelled = run(/*with_victim=*/true);
  // The cancel raced a multi-millisecond scan from microseconds away — it
  // lands before completion; either way the peers below must be untouched.
  EXPECT_TRUE(cancelled.second);
  ASSERT_EQ(reference.first.size(), 7u);
  ASSERT_EQ(cancelled.first.size(), 7u);
  for (size_t i = 0; i < 7; ++i) {
    const WireResult& a = reference.first[i];
    const WireResult& b = cancelled.first[i];
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok());
    EXPECT_EQ(Column0(a), Column0(b)) << "peer " << i;
    EXPECT_EQ(a.metrics.tuples, b.metrics.tuples) << "peer " << i;
    EXPECT_FALSE(a.metrics.cancelled) << "peer " << i;
    EXPECT_FALSE(b.metrics.cancelled) << "peer " << i;
  }
}

// ----------------------------------------------------------- differential

TEST(NetDifferentialTest, WireReadsBitIdenticalToDirectSpecs) {
  // The direct baseline: every (path, selectivity) spec run through a
  // plain QueryEngine, no sessions, no wire.
  ServedDb direct(/*max_admitted=*/1);
  struct Case {
    PathKind kind;
    const char* policy;
    double selectivity;
  };
  const Case kCases[] = {
      {PathKind::kFullScan, "full", 0.001},  {PathKind::kFullScan, "full", 0.5},
      {PathKind::kIndexScan, "index", 0.001},
      {PathKind::kIndexScan, "index", 0.05},
      {PathKind::kSwitchScan, "switch", 0.05},
      {PathKind::kSwitchScan, "switch", 0.5},
      {PathKind::kSmoothScan, "smooth", 0.001},
      {PathKind::kSmoothScan, "smooth", 0.05},
      {PathKind::kSmoothScan, "smooth", 0.5},
  };
  std::vector<QueryMetrics> baseline;
  std::vector<std::multiset<int64_t>> baseline_keys;
  for (const Case& c : kCases) {
    QuerySpec spec;
    spec.index = &direct.db->index();
    spec.predicate = direct.db->PredicateForSelectivity(c.selectivity);
    spec.kind = c.kind;
    spec.estimate = 100;  // Underestimate: Switch Scan genuinely switches.
    spec.collect_keys = true;
    const QueryResult r = direct.qe->WaitSpec(direct.qe->SubmitSpec(spec));
    ASSERT_TRUE(r.status.ok());
    baseline.push_back(r.metrics);
    baseline_keys.emplace_back(r.keys.begin(), r.keys.end());
  }

  // The same queries as wire text, through a server over a bit-identical
  // world, at three admission caps — concurrency and transport must change
  // nothing about any query's simulated cost.
  for (const uint32_t cap : {1u, 2u, 8u}) {
    ServedDb world(cap);
    WireClient client(world.server->ConnectPipe());
    client.Hello("batch", /*window=*/16);
    std::vector<uint64_t> tags;
    for (const Case& c : kCases) {
      const ScanPredicate pred =
          world.db->PredicateForSelectivity(c.selectivity);
      tags.push_back(client.Submit(SelectText(pred, c.policy, 100)));
    }
    for (size_t i = 0; i < tags.size(); ++i) {
      const WireResult w = client.Wait(tags[i]);
      const std::string label = std::string(kCases[i].policy) + " sel " +
                                std::to_string(kCases[i].selectivity) +
                                " cap " + std::to_string(cap);
      ExpectWireMatchesDirect(baseline[i], w, label);
      // The streamed rows are the result relation itself.
      EXPECT_EQ(Column0(w), baseline_keys[i]) << label;
      EXPECT_EQ(w.rows.size(), baseline[i].tuples) << label;
    }
  }
}

TEST(NetDifferentialTest, WireWritesBitIdenticalToDirectSpecs) {
  // One batch of chained DML (inserts, an update, a delete) applied twice:
  // directly as WriteOps, and as wire text through the server — against two
  // bit-identical worlds. Write metrics and the post-write table state must
  // agree exactly.
  const int kInserts = 40;
  auto make_ops = [&](const Schema& schema) {
    std::vector<WriteOp> ops;
    for (int i = 0; i < kInserts; ++i) {
      Tuple t(schema.num_columns());
      t[0] = Value::Int64(9000000 + i);
      t[1] = Value::Int64(i % 50);
      for (size_t c = 2; c < schema.num_columns(); ++c) {
        t[c] = Value::Int64(static_cast<int64_t>(c));
      }
      ops.push_back(WriteOp::MakeInsert(std::move(t)));
    }
    {
      Tuple t(schema.num_columns());
      t[0] = Value::Int64(9100000);
      t[1] = Value::Int64(1);
      for (size_t c = 2; c < schema.num_columns(); ++c) {
        t[c] = Value::Int64(static_cast<int64_t>(c));
      }
      ops.push_back(WriteOp::MakeUpdate(Tid{0, 0}, std::move(t)));
    }
    ops.push_back(WriteOp::MakeDelete(Tid{1, 2}));
    return ops;
  };
  auto ops_text = [&](const std::vector<WriteOp>& ops) {
    std::string text;
    for (const WriteOp& op : ops) {
      if (!text.empty()) text += "; ";
      switch (op.kind) {
        case WriteOp::Kind::kInsert: {
          text += "INSERT INTO t VALUES (";
          for (size_t c = 0; c < op.tuple.size(); ++c) {
            if (c > 0) text += ",";
            text += std::to_string(op.tuple[c].AsInt64());
          }
          text += ")";
          break;
        }
        case WriteOp::Kind::kUpdate: {
          text += "UPDATE t SET ROW (";
          for (size_t c = 0; c < op.tuple.size(); ++c) {
            if (c > 0) text += ",";
            text += std::to_string(op.tuple[c].AsInt64());
          }
          text += ") WHERE TID (" + std::to_string(op.tid.page_id) + "," +
                  std::to_string(op.tid.slot) + ")";
          break;
        }
        case WriteOp::Kind::kDelete:
          text += "DELETE FROM t WHERE TID (" +
                  std::to_string(op.tid.page_id) + "," +
                  std::to_string(op.tid.slot) + ")";
          break;
      }
    }
    return text;
  };

  for (const uint32_t cap : {1u, 2u, 8u}) {
    // Direct world: the ops as one admission-controlled write spec.
    ServedDb direct(cap, {}, /*with_writes=*/true);
    QuerySpec wspec;
    wspec.writer = direct.writer.get();
    wspec.write_ops = make_ops(direct.db->heap().schema());
    const QueryResult dw = direct.qe->WaitSpec(
        direct.qe->SubmitSpec(std::move(wspec)));
    ASSERT_TRUE(dw.status.ok());
    QuerySpec rspec;
    rspec.index = &direct.db->index();
    rspec.predicate = direct.db->PredicateForSelectivity(0.05);
    rspec.kind = PathKind::kSmoothScan;
    rspec.collect_keys = true;
    const QueryResult dr = direct.qe->WaitSpec(
        direct.qe->SubmitSpec(std::move(rspec)));
    ASSERT_TRUE(dr.status.ok());

    // Wire world: the same ops as chained DML text, then the same read.
    ServedDb world(cap, {}, /*with_writes=*/true);
    WireClient client(world.server->ConnectPipe());
    const std::vector<WriteOp> ops = make_ops(world.db->heap().schema());
    const WireResult ww = client.Wait(client.Submit(ops_text(ops)));
    const std::string label = "write cap " + std::to_string(cap);
    ASSERT_TRUE(ww.complete) << label;
    ASSERT_TRUE(ww.status.ok()) << label << ": " << ww.status.ToString();
    EXPECT_TRUE(ww.metrics.write) << label;
    EXPECT_EQ(dw.metrics.sim_time, ww.metrics.sim_time) << label;
    EXPECT_EQ(dw.metrics.io_time, ww.metrics.io_time) << label;
    EXPECT_EQ(dw.metrics.cpu_time, ww.metrics.cpu_time) << label;
    EXPECT_EQ(dw.metrics.tuples, ww.metrics.tuples) << label;

    const ScanPredicate pred = world.db->PredicateForSelectivity(0.05);
    const WireResult wr = client.Wait(client.Submit(SelectText(pred,
                                                               "smooth", 0)));
    ExpectWireMatchesDirect(dr.metrics, wr, label + " post-write read");
    EXPECT_EQ(std::multiset<int64_t>(dr.keys.begin(), dr.keys.end()),
              Column0(wr))
        << label;
  }
}

// ----------------------------------------------------------- session surface

TEST(SessionApiTest, HandlesStreamAndDrainWithoutTheWire) {
  // The same Session/QueryHandle surface the server runs each connection on,
  // used directly: streamed batches, Take(), and the destructor's
  // cancel-unwaited contract.
  EngineOptions eo;
  eo.buffer_pool_pages = 512;
  Engine engine(eo);
  MicroBenchSpec spec;
  spec.num_tuples = 20000;
  spec.value_max = 4000;
  spec.seed = 17;
  MicroBenchDb db(&engine, spec);
  QueryEngineOptions qeo;
  qeo.max_admitted = 2;
  QueryEngine qe(&engine, qeo);
  Session session(&qe, SessionOptions{});

  QueryHandle streamed = session.Query()
                             .Table(&db.index())
                             .Predicate(db.PredicateForSelectivity(0.1))
                             .Policy(PathKind::kSmoothScan)
                             .Stream()
                             .Submit();
  uint64_t streamed_rows = 0;
  TupleBatch batch;
  while (streamed.NextBatch(&batch)) streamed_rows += batch.size();
  const QueryResult taken = streamed.Take();
  ASSERT_TRUE(taken.status.ok());
  EXPECT_EQ(streamed_rows, taken.metrics.tuples);
  EXPECT_GT(streamed_rows, 0u);

  {
    // Dropped without Wait(): the handle cancels and reaps on destruction —
    // no leak, no hang, and the session window is released.
    QueryHandle dropped = session.Query()
                              .Table(&db.index())
                              .Predicate(db.PredicateForSelectivity(0.5))
                              .Policy(PathKind::kFullScan)
                              .Submit();
  }
  const QueryResult after = session.Query()
                                .Table(&db.index())
                                .Predicate(db.PredicateForSelectivity(0.01))
                                .Policy(PathKind::kIndexScan)
                                .Run();
  EXPECT_TRUE(after.status.ok());
}

// The stream's two-way contract: batches flow back to the producer, which
// therefore must see results exactly as a Wait() run does and pay exactly
// the same simulated cost.
QueryBuilder StreamRead(const ServedDb& sdb, Session* session, PathKind kind,
                        double selectivity, uint32_t dop) {
  QueryBuilder q = session->Query();
  q.Table(&sdb.db->index())
      .Predicate(sdb.db->PredicateForSelectivity(selectivity))
      .Policy(kind)
      .Estimate(100)
      .Dop(dop)
      .AllowSharing(false);
  return q;
}

TEST(SessionApiTest, StreamedResultsAndCostsMatchWaitRuns) {
  ServedDb sdb(2);
  for (const size_t window : {size_t{1}, size_t{4}}) {
    SessionOptions so;
    so.stream_batches = window;
    Session session(sdb.qe.get(), so);
    for (const PathKind kind :
         {PathKind::kFullScan, PathKind::kIndexScan, PathKind::kSortScan,
          PathKind::kSwitchScan, PathKind::kSmoothScan}) {
      for (const uint32_t dop : {0u, 2u}) {
        for (const double sel : {0.001, 0.2, 1.0}) {
          const std::string label =
              std::string(PathKindToString(kind)) + " dop " +
              std::to_string(dop) + " sel " + std::to_string(sel) +
              " window " + std::to_string(window);
          const QueryResult waited =
              StreamRead(sdb, &session, kind, sel, dop).CollectKeys().Run();
          ASSERT_TRUE(waited.status.ok()) << label;

          QueryHandle h =
              StreamRead(sdb, &session, kind, sel, dop).Stream().Submit();
          std::multiset<int64_t> streamed_keys;
          TupleBatch batch;
          while (h.NextBatch(&batch)) {
            for (size_t i = 0; i < batch.size(); ++i) {
              streamed_keys.insert(batch.row(i)[0].AsInt64());
            }
          }
          const QueryResult streamed = h.Take();
          ASSERT_TRUE(streamed.status.ok()) << label;
          EXPECT_EQ(streamed_keys, std::multiset<int64_t>(
                                       waited.keys.begin(), waited.keys.end()))
              << label;
          const QueryMetrics& a = waited.metrics;
          const QueryMetrics& b = streamed.metrics;
          EXPECT_EQ(a.sim_time, b.sim_time) << label;  // Exact.
          EXPECT_EQ(a.io_time, b.io_time) << label;
          EXPECT_EQ(a.cpu_time, b.cpu_time) << label;
          EXPECT_EQ(a.pages_read, b.pages_read) << label;
          EXPECT_EQ(a.tuples, b.tuples) << label;
        }
      }
    }
  }
}

TEST(SessionApiTest, StreamRecyclesOnlyProducerCapacityBatches) {
  // Driven by hand, one side at a time, so every hand-off is visible. The
  // producer fills batches of 8; the client starts with a default-capacity
  // batch that holds rows.
  ResultStream stream(2);
  auto fill = [](TupleBatch* b, int64_t key) {
    for (int i = 0; i < 3; ++i) b->AppendSlot()->assign(1, Value::Int64(key));
  };
  auto push = [&](TupleBatch* b, int64_t key) {
    fill(b, key);
    stream.Push(b);
    EXPECT_TRUE(b->empty()) << key;
    EXPECT_EQ(b->capacity(), 8u) << key;  // Never the client's batch.
  };
  TupleBatch produced(8);
  TupleBatch consumed;
  fill(&consumed, 99);

  push(&produced, 1);
  ASSERT_TRUE(stream.Pop(&consumed));  // Hands over the foreign batch.
  EXPECT_EQ(consumed.capacity(), 8u);
  EXPECT_EQ(consumed.row(0)[0].AsInt64(), 1);
  const Tuple* storage = &consumed.row(0);

  push(&produced, 2);
  ASSERT_TRUE(stream.Pop(&consumed));  // Hands batch 1 back.
  EXPECT_EQ(consumed.row(0)[0].AsInt64(), 2);
  push(&produced, 3);  // Gets the foreign batch's slot: a fresh batch.
  EXPECT_NE(produced.fill_rows(), storage);
  ASSERT_TRUE(stream.Pop(&consumed));
  EXPECT_EQ(consumed.row(0)[0].AsInt64(), 3);
  push(&produced, 4);  // Gets batch 1 back: cleared, same row storage.
  EXPECT_EQ(produced.fill_rows(), storage);

  stream.FinishProducer();
  ASSERT_TRUE(stream.Pop(&consumed));
  EXPECT_EQ(consumed.row(2)[0].AsInt64(), 4);
  EXPECT_FALSE(stream.Pop(&consumed));
}

TEST(SessionApiTest, StreamRecyclingStaysOrderedAndBoundedUnderConcurrency) {
  for (const size_t window : {size_t{1}, size_t{3}}) {
    // foreign_every 4: every fourth pop offers a default-capacity batch.
    // 0: the client pops into one batch throughout, so storage circulates
    // and at most the window plus the two sides' batches ever exist.
    for (const int foreign_every : {4, 0}) {
      ResultStream stream(window);
      constexpr int kBatches = 2000;
      std::set<const Tuple*> storages;
      std::thread producer([&] {
        TupleBatch batch(64);
        for (int i = 0; i < kBatches; ++i) {
          storages.insert(batch.fill_rows());
          batch.AppendSlot()->assign(1, Value::Int64(i));
          stream.Push(&batch);
          EXPECT_EQ(batch.capacity(), 64u);
          EXPECT_TRUE(batch.empty());
        }
        stream.FinishProducer();
      });
      int64_t expected = 0;
      TupleBatch mine(64);
      for (int i = 0;; ++i) {
        TupleBatch foreign;
        TupleBatch* out =
            foreign_every != 0 && i % foreign_every == 0 ? &foreign : &mine;
        if (!stream.Pop(out)) break;
        ASSERT_EQ(out->size(), 1u);
        EXPECT_EQ(out->row(0)[0].AsInt64(), expected++);
      }
      producer.join();
      EXPECT_EQ(expected, kBatches) << "window " << window;
      if (foreign_every == 0) {
        EXPECT_LE(storages.size(), window + 2) << "window " << window;
      }
    }
  }
}

TEST(SessionApiTest, CancelMidStreamWithRecycledBatchesInFlight) {
  ServedDb sdb(2);
  SessionOptions so;
  so.stream_batches = 2;
  Session session(sdb.qe.get(), so);
  for (const uint32_t dop : {0u, 2u}) {
    for (int round = 0; round < 8; ++round) {
      QueryHandle h = StreamRead(sdb, &session, PathKind::kFullScan, 1.0, dop)
                          .Stream()
                          .Submit();
      TupleBatch batch;
      // Pop a few so recycled batches are with the producer, then walk
      // away; the producer may be blocked on the full window right now.
      for (int i = 0; i < 1 + round % 3; ++i) ASSERT_TRUE(h.NextBatch(&batch));
      h.Cancel();
      while (h.NextBatch(&batch)) {
      }
      const QueryResult& r = h.Wait();
      EXPECT_TRUE(r.metrics.cancelled || r.status.ok()) << r.status.ToString();
    }
    // No executor is wedged on a stream nobody reads: the engine still
    // serves.
    const QueryResult after =
        StreamRead(sdb, &session, PathKind::kFullScan, 0.01, dop)
            .CollectKeys()
            .Run();
    ASSERT_TRUE(after.status.ok());
    EXPECT_EQ(after.keys.size(), after.metrics.tuples);
  }
}

}  // namespace
}  // namespace net
}  // namespace smoothscan
