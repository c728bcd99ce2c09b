#!/usr/bin/env python3
"""Self-test of the project-invariant linter: proves, with doctored source
trees, that every rule fires on its violation shape, stays quiet on clean
code, honors lint:allow suppressions (same-line and comment-block), and
scopes rules to the right subtrees. Also checks the counts of the size
report (src_size.py). Run directly (CI) or via ctest.
"""

import contextlib
import io
import os
import sys
import tempfile
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_invariants as lint  # noqa: E402
import src_size  # noqa: E402


class LintTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.TemporaryDirectory()
        # The linted root is <tmp>/src, so dead-option's sibling caller trees
        # (<tmp>/bench, ...) stay inside the doctored tree.
        self.root = os.path.join(self.tmp.name, "src")
        os.makedirs(self.root)

    def tearDown(self):
        self.tmp.cleanup()

    def write(self, rel, text, tree=None):
        path = os.path.join(self.tmp.name, tree, rel) if tree else \
            os.path.join(self.root, rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)

    def lint(self, rules=()):
        return lint.run(self.root, set(rules))

    def names(self, rules=()):
        return [name for (_, _, name, _) in self.lint(rules)]

    def test_clean_tree_passes(self):
        self.write("access/scan.cc", "void F() { ctx.disk->Access(1); }\n")
        self.write("mem/pool.cc", "auto* b = new TupleBatch();\n")
        self.assertEqual(self.lint(), [])

    def test_batch_allocation_fires_outside_mem(self):
        self.write("access/scan.cc",
                   "auto b = std::make_unique<TupleBatch>();\n"
                   "Value* v = new Value();\n")
        self.assertEqual(self.names(), ["batch-allocation",
                                        "batch-allocation"])

    def test_ctx_charging_fires_in_access_and_exec_only(self):
        line = "engine_->disk().Access(ReadRequest{});\n"
        self.write("access/scan.cc", line)
        self.write("exec/op.cc", line)
        self.write("engine/query_engine.cc", line)  # Out of rule scope.
        self.assertEqual(self.names(), ["ctx-charging", "ctx-charging"])

    def test_raw_page_member_fires_in_headers_only(self):
        member = "  const Page* page_ = nullptr;\n"
        self.write("access/scan.h", "class S {\n" + member + "};\n")
        self.write("access/scan.cc", member)  # .cc members out of scope.
        self.write("access/local.h",
                   "inline void F(const Page& page) { (void)page; }\n")
        violations = self.lint()
        self.assertEqual(len(violations), 1)
        rel, lineno, name, _ = violations[0]
        self.assertEqual((rel, lineno, name),
                         (os.path.join("access", "scan.h"), 2,
                          "raw-page-member"))

    def test_value_variant_fires_everywhere_but_not_in_comments(self):
        self.write("common/types.h",
                   "// Value deliberately avoids std::variant<...>.\n"
                   "#include <variant>\n")
        self.assertEqual(self.names(), ["value-variant"])

    def test_raw_mutex_fires_outside_wrapper(self):
        self.write("sharing/group.h", "  std::mutex mu_;\n")
        self.write("sharing/group.cc",
                   "std::lock_guard<std::mutex> lock(mu_);\n")
        self.write("common/latch_rank.h", "  std::mutex mu_;\n")  # Wrapper.
        # condition_variable_any is the sanctioned cv type.
        self.write("exec/sched.h", "  std::condition_variable_any cv_;\n")
        names = self.names()
        # One violation per offending line (the .cc line holds two mentions).
        self.assertEqual(names.count("raw-mutex"), 2)
        rels = [rel for (rel, _, _, _) in self.lint()]
        self.assertNotIn(os.path.join("common", "latch_rank.h"), rels)

    def test_obs_accounting_fires_in_obs_only(self):
        self.write("obs/sampler.cc",
                   "void F(SimDisk* d) { d->Access(r); }\n"
                   "void G(CpuMeter* c) { c->ChargeTuples(1); }\n")
        self.write("access/scan.cc",  # Accounting is access/'s whole job.
                   "void H(SimDisk* d, CpuMeter* c) { (void)d; (void)c; }\n")
        self.assertEqual(self.names(), ["obs-accounting", "obs-accounting"])

    def test_kernel_page_loop_fires_in_parallel_scan_only(self):
        loop = ("const PageGuard g = ctx.pool->Pin(file, pid);\n"
                "const uint8_t* data = page.GetTuple(s, &size);\n"
                "ctx.pool->FetchExtent(file, pid, run);\n"
                "Tuple t = index_->heap()->Read(tid, ctx);\n"
                "Tuple u = heap->Read(tid, ctx);\n")
        self.write("access/parallel_scan.cc",
                   loop + "FullScan scan(heap_, predicate_, options);\n"
                   "const AccessPathStats stats = Drain(scan, ctx, emit);\n")
        self.write("access/smooth_scan.cc", loop)  # The operators own loops.
        self.assertEqual(self.names(), ["kernel-page-loop"] * 5)

    def test_hot_decode_fires_in_scan_loops_and_engine_only(self):
        decode = "Tuple t = schema.Deserialize(data, size);\n"
        self.write("access/full_scan.cc", decode)
        self.write("access/switch_scan.cc", decode)
        self.write("access/smooth_scan.cc",
                   decode + "schema.DeserializeInto(data, size, slot);\n")
        self.write("sharing/shared_scan_path.cc",
                   "Tuple t = heap->schema()->Deserialize(data, size);\n")
        self.write("storage/heap_file.cc", decode)  # Not a scan hot loop.
        push = "spec.stream->Push(std::move(batch));\n"
        self.write("engine/query_engine.cc",
                   push + "spec.stream->Push(&batch);\n")
        self.write("access/index_scan.cc", push)  # Engine-only half.
        self.assertEqual(self.names(), ["hot-decode"] * 5)
        self.write("engine/session.cc",
                   "stream_->Push(std::move(b));  // lint:allow(hot-decode)\n")
        self.assertEqual(self.names(["hot-decode"]), ["hot-decode"] * 5)

    def test_path_construction_fires_above_the_builder_only(self):
        build = ("auto a = std::make_unique<FullScan>(heap, pred);\n"
                 "auto b = std::make_unique<SharedScanPath>(s, heap, pred);\n"
                 "auto c = MakeParallelCompressedScan(e, x, pred, o, po);\n")
        self.write("engine/query_engine.cc", build)
        self.write("net/server.cc",
                   "auto d = std::make_unique< SmoothScan >(ix, pred, o);\n")
        self.write("workload/driver.cc",
                   "auto e = MakeParallelFullScan(heap, pred, o, po);\n")
        self.write("tpch/queries.cc",
                   "auto f = std::make_unique<IndexScan>(ix, pred);\n"
                   "// lint:allow(path-construction) — an unindexed heap.\n"
                   "auto g = std::make_unique<FullScan>(&heap, pred);\n"
                   "auto h = std::make_unique<ScanOp>(MakePath(r).path);\n")
        self.write("plan/access_path_chooser.cc", build)  # The builder.
        self.write("bench/fig.cc", build)  # Outside the rule's scope.
        self.assertEqual(self.names(), ["path-construction"] * 6)

    def test_dead_option_fires_on_fields_only_tests_set(self):
        self.write("scan/scan.h",
                   "struct ScanOptions {\n"
                   "  uint32_t window = 32;  // Set by a bench.\n"
                   "  bool flatten = true;   // Set inside src/.\n"
                   "  SessionOptions session;  // Set through a member.\n"
                   "  std::vector<int> phases;  // Appended to.\n"
                   "  uint64_t hint = 0;     // Set by tests only.\n"
                   "  double cost = 1.0;     // Only compared.\n"
                   "  Profile device = Profile::Hdd();  // Never set.\n"
                   "  // lint:allow(dead-option) — a test seam.\n"
                   "  uint32_t fanout_override = 0;\n"
                   "  struct Inner {\n"
                   "    int nested = 0;  // Not a ScanOptions field.\n"
                   "  };\n"
                   "  static ScanOptions Defaults();\n"
                   "  bool valid() const { return window > 0; }\n"
                   "};\n"
                   "struct ScanStats {\n"
                   "  uint64_t pages = 0;  // Not an Options struct.\n"
                   "};\n")
        self.write("scan/scan.cc",
                   "void F(ScanOptions* o) { o->flatten = false; }\n")
        self.write("fig.cc", "o.window = 64;\nif (o.cost == 2.0) {}\n",
                   tree="bench")
        self.write("client.cpp",
                   "so.session.max_outstanding = 2;\n"
                   "o.phases.push_back(1);\n", tree="examples")
        self.write("scan_test.cc", "o.hint = 7;\no.cost = 2.0;\n",
                   tree="tests")
        self.write("tests/selftest.cc", "o.hint = 7;\n", tree="perfbench")
        self.write("harness/main.cc", "// o.hint = 7; in a comment\n",
                   tree="perfbench")
        violations = self.lint(["dead-option"])
        self.assertEqual([(rel, lineno, name)
                          for (rel, lineno, name, _) in violations],
                         [(os.path.join("scan", "scan.h"), 6, "dead-option"),
                          (os.path.join("scan", "scan.h"), 7, "dead-option"),
                          (os.path.join("scan", "scan.h"), 8, "dead-option")])
        self.assertIn("ScanOptions::hint", violations[0][3])

    def test_dead_option_ignores_same_named_member_of_another_struct(self):
        self.write("scan/scan.h",
                   "struct ScanOptions {\n"
                   "  uint32_t window = 32;\n"
                   "  Pool* pool = nullptr;\n"
                   "};\n"
                   "struct Context {\n"
                   "  Pool* pool = nullptr;\n"
                   "};\n")
        self.write("scan/scan.cc",
                   "void F(Context* ctx) { ctx->pool = MakePool(); }\n")
        self.write("fig.cc",
                   "struct Config { uint32_t window; };\n"
                   "void Run() {\n"
                   "  Config cfg;\n"
                   "  cfg.window = 64;\n"
                   "}\n", tree="bench")
        violations = self.lint(["dead-option"])
        self.assertEqual([m.split(" ")[0] for (_, _, _, m) in violations],
                         ["ScanOptions::window", "ScanOptions::pool"])

    def test_dead_option_walks_member_chains_through_option_types(self):
        self.write("scan/scan.h",
                   "struct ScanOptions {\n"
                   "  uint32_t window = 32;\n"
                   "};\n"
                   "struct OtherOptions {\n"
                   "  uint32_t window = 32;  // Same name, never set.\n"
                   "};\n"
                   "struct RunOptions {\n"
                   "  ScanOptions scan;\n"
                   "};\n")
        self.write("fig.cc",
                   "void Run(const Db& db) {\n"
                   "  RunOptions ro;\n"
                   "  ro.scan.window = db.pages() / 8;\n"
                   "}\n", tree="bench")
        violations = self.lint(["dead-option"])
        self.assertEqual([m.split(" ")[0] for (_, _, _, m) in violations],
                         ["OtherOptions::window"])

    def test_dead_option_counts_unresolved_receivers_by_name(self):
        self.write("scan/scan.h",
                   "struct ScanOptions {\n"
                   "  uint32_t window = 32;\n"
                   "  uint32_t depth = 2;\n"
                   "  uint32_t hint = 0;\n"
                   "};\n")
        self.write("fig.cc",
                   "void Run() {\n"
                   "  auto& o = Defaults();\n"
                   "  o.window = 64;\n"
                   "  Defaults().depth = 3;\n"
                   "  undeclared.hint += 1;\n"
                   "}\n", tree="bench")
        self.assertEqual(self.lint(["dead-option"]), [])

    def test_same_line_allow_suppresses(self):
        self.write("access/scan.cc",
                   "engine_->disk().Access(r);  // lint:allow(ctx-charging)\n")
        self.assertEqual(self.lint(), [])

    def test_comment_block_allow_covers_following_code_line(self):
        self.write("access/scan.cc",
                   "// lint:allow(ctx-charging) — spill I/O is communal\n"
                   "// maintenance, like write-backs.\n"
                   "engine_->disk().WriteExtent(f, 0, pages);\n")
        self.assertEqual(self.lint(), [])

    def test_allow_does_not_leak_past_first_code_line(self):
        self.write("access/scan.cc",
                   "// lint:allow(ctx-charging)\n"
                   "engine_->disk().WriteExtent(f, 0, pages);\n"
                   "engine_->disk().ReadExtent(f, 0, pages);\n")
        self.assertEqual(self.names(), ["ctx-charging"])

    def test_allow_is_per_rule(self):
        self.write("access/scan.cc",
                   "// lint:allow(raw-mutex)\n"
                   "engine_->disk().Access(r);\n")
        self.assertEqual(self.names(), ["ctx-charging"])

    def test_rule_filter_runs_subset(self):
        self.write("access/scan.h", "  std::mutex mu_;\n")
        self.write("access/scan.cc", "engine_->disk().Access(r);\n")
        self.assertEqual(self.names(["raw-mutex"]), ["raw-mutex"])

    def test_cli_exit_codes(self):
        self.write("access/scan.cc", "int x = 0;\n")
        self.assertEqual(lint.main(["--root", self.root]), 0)
        self.write("access/bad.cc", "engine_->disk().Access(r);\n")
        self.assertEqual(lint.main(["--root", self.root]), 1)

    def test_src_size_counts_code_lines_and_option_values(self):
        self.write("mem/pool.h",
                   "// File comment.\n"
                   "\n"
                   "struct PoolOptions {\n"
                   "  /// Doc comment.\n"
                   "  int capacity = 1;\n"
                   "  bool recycle = true;  // Trailing comment.\n"
                   "  void Check() const;\n"
                   "};\n")
        self.write("mem/pool.cc", "    // Indented comment.\nint x = 0;\n")
        self.write("mem/notes.txt", "not source\n")
        self.assertEqual(src_size.code_lines(self.root), 6)
        self.assertEqual(src_size.option_values(self.root), 2)

    def test_src_size_cli_prints_both_figures(self):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.assertEqual(src_size.main(), 0)
        lines = out.getvalue().splitlines()
        self.assertEqual(len(lines), 2)
        self.assertRegex(lines[0], r"^src code lines: \d+$")
        self.assertRegex(lines[1], r"^settable option values: \d+$")


if __name__ == "__main__":
    unittest.main()
