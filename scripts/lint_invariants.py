#!/usr/bin/env python3
"""Project-invariant linter over src/ — the static companion of the thread
safety annotations (src/common/thread_annotations.h) and the latch-rank
validator (src/common/latch_rank.h). Fails (exit 1) when a source line breaks
one of the engine's structural invariants:

  batch-allocation   No heap allocation of batch/Value storage (new /
                     make_unique / make_shared of TupleBatch or Value)
                     outside src/mem/ — kernels recycle through the
                     BatchPool; a stray allocation reintroduces the
                     steady-state tax PR 7 removed.
  ctx-charging       No direct SimDisk charging from src/access/ or
                     src/exec/ (engine_->disk() / engine()->disk()):
                     operators charge their ExecContext stream, which is
                     what keeps per-query cost bit-identical under
                     concurrency.
  raw-page-member    No retained raw `const Page&` / `Page*` data members:
                     pages are held through PageGuard (pin-aware), never
                     cached across an eviction boundary.
  value-variant      No std::variant in the Value path (or anywhere in
                     src/): Value is a hand-rolled tagged union precisely
                     to keep the scan hot loop free of variant dispatch.
  raw-mutex          No raw standard mutex primitives (std::mutex,
                     lock_guard, unique_lock, condition_variable, ...)
                     anywhere in src/ outside the latch wrapper: all
                     latching goes through latch::Latch so the rank
                     validator and the thread safety analysis see it.
  obs-accounting     No SimDisk / CpuMeter / Charge references inside
                     src/obs/: observability is bookkeeping only (atomics
                     and the wall clock), which is what keeps simulated
                     per-query cost bit-identical with metrics/tracing on
                     or off.
  kernel-page-loop   No page or tuple access (GetTuple( / ->Pin( /
                     FetchExtent( / heap ->Read() in
                     src/access/parallel_scan.cc: a parallel kernel is a
                     decomposition that runs the serial operator (or the
                     phase function it shares) per morsel, never a second
                     copy of the operator's loop.
  hot-decode         No allocating decode (`.Deserialize(`) in the scan
                     hot loops of src/access/full_scan.cc, switch_scan.cc,
                     smooth_scan.cc and src/sharing/shared_scan_path.cc
                     (decode into a recycled slot with DeserializeInto), and
                     no `Push(std::move(` in src/engine/: the result stream
                     takes a batch by pointer and hands back a recycled one,
                     so a moved-away batch reintroduces the per-tuple
                     allocation the stream removed.
  path-construction  No access-path construction (make_unique of an
                     access path class, or a MakeParallel*Scan( factory
                     call) in src/engine/, src/net/, src/workload/ or
                     src/tpch/: paths are built in one place,
                     MakePath(PathRequest) in src/plan/, so the fallback,
                     parallel and sharing decisions are made once.
  dead-option        Every field of a `struct <Name>Options` under src/
                     must be assigned (`.field =`, `->field =`, a compound
                     assignment or `.field.push_back(`) somewhere outside
                     the tests: in src/ or in the sibling bench/,
                     examples/ or perfbench/ trees. An option nothing sets
                     is a constant with extra steps; make it one, or mark
                     a test seam with a reasoned allow. The receiver of
                     `x.f =` is typed by the nearest declaration of `x`
                     above it in the file (else any in the file, else in a
                     .cc's paired .h), and `.member` chains are walked
                     through the Options field types, so a same-named
                     member of another struct does not count. A receiver
                     that cannot be typed (auto, templates, call results)
                     counts as a setter of every field of that name.

A deliberate exception is suppressed with `lint:allow(<rule>)` in a comment
on the offending line or the line directly above it — greppable, per-rule,
and visible in review.

Usage:
  lint_invariants.py [--root src] [rule ...]

With no rule names, every rule runs. Exit 0 = clean.
"""

import argparse
import os
import re
import sys

HEADER_EXTS = (".h",)
SOURCE_EXTS = (".h", ".cc")

# Files implementing the machinery the rules enforce (the latch wrapper may
# hold the one std::mutex; PageGuard may hold the one raw Page pointer).
WRAPPER_FILES = {
    os.path.join("common", "latch_rank.h"),
    os.path.join("common", "latch_rank.cc"),
    os.path.join("common", "thread_annotations.h"),
}

# The scan hot loops that must decode in place (hot-decode rule).
HOT_DECODE_FILES = {
    os.path.join("access", "full_scan.cc"),
    os.path.join("access", "switch_scan.cc"),
    os.path.join("access", "smooth_scan.cc"),
    os.path.join("sharing", "shared_scan_path.cc"),
}

RULES = [
    {
        "name": "batch-allocation",
        "pattern": re.compile(
            r"\bnew\s+(TupleBatch|Value)\b"
            r"|\bmake_(?:unique|shared)\s*<\s*(?:TupleBatch|Value)\b"
        ),
        "message": "heap allocation of batch/Value storage outside src/mem/ "
                   "(acquire through the BatchPool)",
        "applies": lambda rel: not rel.startswith("mem" + os.sep),
    },
    {
        "name": "ctx-charging",
        "pattern": re.compile(r"\bengine(?:_|\(\))->disk\(\)"),
        "message": "direct SimDisk charging bypassing ExecContext "
                   "(charge ctx.disk instead)",
        "applies": lambda rel: rel.startswith(("access" + os.sep,
                                               "exec" + os.sep)),
    },
    {
        "name": "raw-page-member",
        "pattern": re.compile(
            r"^\s*(?:const\s+)?Page\s*[*&]\s*\w+_\s*(?:=\s*\w+)?;"
        ),
        "message": "retained raw Page pointer/reference member "
                   "(hold pages through PageGuard)",
        "applies": lambda rel: rel.endswith(HEADER_EXTS),
    },
    {
        "name": "value-variant",
        "pattern": re.compile(r"std::variant\s*<|#include\s*<variant>"),
        "message": "std::variant in the Value path (Value is a tagged "
                   "union by design)",
        "applies": lambda rel: True,
    },
    {
        "name": "raw-mutex",
        "pattern": re.compile(
            r"std::(?:recursive_mutex|shared_mutex|timed_mutex|mutex"
            r"|lock_guard|unique_lock|scoped_lock|shared_lock"
            r"|condition_variable(?!_any))\b"
        ),
        "message": "raw mutex primitive outside the latch wrapper "
                   "(use latch::Latch / LatchGuard / UniqueLatch)",
        "applies": lambda rel: rel not in WRAPPER_FILES,
    },
    {
        "name": "obs-accounting",
        "pattern": re.compile(r"\bSimDisk\b|\bCpuMeter\b|\bCharge\w*\b"),
        "message": "accounting primitive referenced from src/obs/ "
                   "(observability must never touch simulated cost)",
        "applies": lambda rel: rel.startswith("obs" + os.sep),
    },
    {
        "name": "kernel-page-loop",
        "pattern": re.compile(
            r"\bGetTuple\(|->Pin\(|\bFetchExtent\(|heap\w*(?:\(\))?->Read\("
        ),
        "message": "page/tuple access in a parallel kernel (run the serial "
                   "operator, or its shared phase function, per morsel)",
        "applies": lambda rel: rel == os.path.join("access",
                                                   "parallel_scan.cc"),
    },
    # hot-decode is two patterns over two file sets, sharing one name (and
    # so one lint:allow tag).
    {
        "name": "hot-decode",
        "pattern": re.compile(r"(?:\.|->)Deserialize\("),
        "message": "allocating decode in a scan hot loop (DeserializeInto "
                   "a recycled slot)",
        "applies": lambda rel: rel in HOT_DECODE_FILES,
    },
    {
        "name": "hot-decode",
        "pattern": re.compile(r"\bPush\(\s*std::move\("),
        "message": "batch moved into the result stream (Push(&batch) and "
                   "refill the recycled batch it hands back)",
        "applies": lambda rel: rel.startswith("engine" + os.sep),
    },
    {
        "name": "path-construction",
        "pattern": re.compile(
            r"\bmake_unique\s*<\s*(?:FullScan|IndexScan|SortScan|SwitchScan"
            r"|SmoothScan|CompressedScan|SharedScanPath)\s*>"
            r"|\bMakeParallel\w+Scan\("
        ),
        "message": "access path built outside the builder (call "
                   "MakePath(PathRequest) from src/plan/)",
        "applies": lambda rel: rel.startswith(tuple(
            d + os.sep for d in ("engine", "net", "workload", "tpch"))),
    },
]

ALLOW_RE = re.compile(r"lint:allow\(([a-z-]+)\)")

# dead-option: the trees whose non-test code may set an option, beside the
# linted root itself (siblings of the root, e.g. src/../bench).
OPTION_CALLER_DIRS = ("bench", "examples", "perfbench")
CALLER_EXTS = (".h", ".cc", ".cpp")
OPTIONS_STRUCT_RE = re.compile(r"^\s*struct\s+(\w*Options)\s*\{")
# One single-line data member: `<type> <name> [= init | {init}];`.
FIELD_RE = re.compile(
    r"^\s*(?!static\b|using\b|friend\b|return\b|typedef\b)"
    r"([\w:<>,*&\s]+?)[\s*&](\w+)\s*(?:=[^;]*|\{[^;]*\})?;\s*$")
# A setter: an lvalue chain `root(.|->)m1...(.|->)mk` (subscripts allowed)
# followed by an assignment, a compound assignment or .push_back(.
SETTER_TAIL = r"(?:\s*[-+*/|&]?=(?!=)|\.(?:push_back|emplace_back)\()"
ROOTED_SETTER_RE = re.compile(
    r"(?<![\w.>])([A-Za-z_]\w*)"
    r"((?:(?:\[[^\]]*\])?(?:\.|->)\w+)+)" + SETTER_TAIL)
ANY_SETTER_RE = re.compile(r"(?:\.|->)(\w+)((?:\.\w+)*)" + SETTER_TAIL)
MEMBER_RE = re.compile(r"(?:\.|->)(\w+)")
# Words that can stand where a declaration's type does but are not types.
NOT_A_TYPE = {"return", "else", "case", "delete", "new", "throw", "goto",
              "sizeof", "co_return", "co_yield", "using", "typedef",
              "namespace", "operator", "public", "private", "protected"}
DECL_QUALIFIERS = re.compile(
    r"\b(?:const|constexpr|static|mutable|inline|volatile|struct|class)\b")


def strip_comment(line):
    """Drops a trailing // comment (naive: good enough for this tree —
    string literals containing '//' do not occur on guarded constructs)."""
    idx = line.find("//")
    return line if idx < 0 else line[:idx]


def allowed_rules(line):
    return set(ALLOW_RE.findall(line))


def lint_file(rel, lines, rules):
    """Returns a list of (rel, lineno, rule_name, message) violations."""
    violations = []
    pending_allows = set()  # From the comment block directly above.
    for lineno, raw in enumerate(lines, start=1):
        allows = allowed_rules(raw) | pending_allows
        code = strip_comment(raw)
        for rule in rules:
            if not rule["applies"](rel):
                continue
            if rule["name"] in allows:
                continue
            if rule["pattern"].search(code):
                violations.append((rel, lineno, rule["name"],
                                   rule["message"]))
        # An allow in a comment block covers the first code line after it.
        if raw.lstrip().startswith("//"):
            pending_allows |= allowed_rules(raw)
        else:
            pending_allows = set()
    return violations


def iter_source_files(root, exts=SOURCE_EXTS):
    for dirpath, _, filenames in os.walk(root):
        for filename in sorted(filenames):
            if filename.endswith(exts):
                path = os.path.join(dirpath, filename)
                yield path, os.path.relpath(path, root)


def read_lines(path):
    with open(path, encoding="utf-8") as f:
        return f.read().splitlines()


def option_fields(lines):
    """Yields (lineno, struct, field, type, allows) for every data member
    declared directly in a `struct ...Options { ... };` body."""
    struct, depth, pending_allows = None, 0, set()
    for lineno, raw in enumerate(lines, start=1):
        allows = allowed_rules(raw) | pending_allows
        pending_allows = (pending_allows | allowed_rules(raw)
                          if raw.lstrip().startswith("//") else set())
        code = strip_comment(raw)
        if struct is None:
            m = OPTIONS_STRUCT_RE.match(code)
            if m:
                struct, depth = m.group(1), code.count("{") - code.count("}")
            continue
        # A "(" before any initializer marks a function, not a data member.
        if depth == 1 and "(" not in code.split("=")[0]:
            m = FIELD_RE.match(code)
            if m:
                yield lineno, struct, m.group(2), m.group(1), allows
        depth += code.count("{") - code.count("}")
        if depth <= 0:
            struct = None


def is_test_path(rel):
    parts = rel.split(os.sep)
    return "tests" in parts or parts[-1].endswith("_test.cc")


def base_type(decl):
    """The struct name a declared type names (`const smoothscan::FooOptions&`
    -> `FooOptions`), or None when it cannot be named: auto, templates,
    keywords."""
    decl = DECL_QUALIFIERS.sub(" ", decl).replace("*", " ").replace("&", " ")
    words = decl.split()
    if len(words) != 1 or "<" in words[0]:
        return None
    name = words[0].split("::")[-1]
    if not name or name == "auto" or name in NOT_A_TYPE:
        return None
    return name


def declarations(lines, var):
    """Yields (lineno, type or None) for every declaration of `var` in
    `lines`: a type (with qualifiers, * and &) directly before the name, at
    the start of a statement, parameter or member."""
    decl = re.compile(
        r"(?:^|[(,;{])\s*((?:[A-Za-z_][\w:]*(?:<[^;()]*>)?[\s*&]+)+?)"
        r"\b" + re.escape(var) + r"\s*(?=[;=,){\[(:]|$)")
    for lineno, line in enumerate(lines, start=1):
        for m in decl.finditer(line):
            typ = m.group(1)
            if typ.split()[0] in NOT_A_TYPE:
                continue
            yield lineno, base_type(typ)


class ReceiverTyper:
    """Types the root variable of a setter chain by its declaration: the
    nearest one above the use, else any in the file, else any in the paired
    .h of a .cc. None = unresolved."""

    def __init__(self, path, lines):
        self.lines = lines
        self.cache = {}  # var -> [(lineno, type)]
        self.paired = None
        stem, ext = os.path.splitext(path)
        if ext in (".cc", ".cpp") and os.path.exists(stem + ".h"):
            self.paired = [strip_comment(l) for l in read_lines(stem + ".h")]

    def type_of(self, var, lineno):
        if var not in self.cache:
            self.cache[var] = list(declarations(self.lines, var))
        decls = self.cache[var]
        before = [d for d in decls if d[0] <= lineno]
        if before:
            return before[-1][1]
        if decls:
            return decls[0][1]
        if self.paired is not None:
            for _, typ in declarations(self.paired, var):
                return typ
        return None


def option_setters(lines, path, fields):
    """The Options fields a file's code sets: a set of (struct, field) for
    typed receivers, and a set of bare field names for setters whose
    receiver could not be typed (they count for every struct)."""
    typed, untyped = set(), set()
    typer = ReceiverTyper(path, lines)
    for lineno, line in enumerate(lines, start=1):
        covered = []  # Spans of the typed chains on this line.
        for m in ROOTED_SETTER_RE.finditer(line):
            members = MEMBER_RE.findall(m.group(2))
            covered.append(m.span())
            struct = typer.type_of(m.group(1), lineno)
            for member in members:
                if struct is None:
                    untyped.add(member)  # Unresolved: the rest by name.
                    continue
                typed.add((struct, member))
                # Walk into the member's type; only Options field types are
                # known, so any other struct's member chain goes by name.
                if struct in fields:
                    struct = base_type(fields[struct].get(member, "auto"))
                else:
                    struct = None
        for m in ANY_SETTER_RE.finditer(line):
            if not any(lo <= m.start() < hi for lo, hi in covered):
                untyped.add(m.group(1))
                untyped.update(MEMBER_RE.findall(m.group(2)))
    return typed, untyped


def lint_dead_options(root):
    """The dead-option rule: cross-file, so it runs apart from the per-line
    rules."""
    declared = []  # (rel, lineno, struct, field, allows)
    fields = {}    # struct -> {field: declared type}
    for path, rel in iter_source_files(root, HEADER_EXTS):
        for lineno, struct, field, typ, allows in option_fields(
                read_lines(path)):
            declared.append((rel, lineno, struct, field, allows))
            fields.setdefault(struct, {})[field] = typ
    parent = os.path.dirname(os.path.abspath(root))
    trees = [root] + [os.path.join(parent, d) for d in OPTION_CALLER_DIRS]
    typed, untyped = set(), set()
    for tree in trees:
        for path, rel in iter_source_files(tree, CALLER_EXTS):
            if is_test_path(rel):
                continue
            lines = [strip_comment(l) for l in read_lines(path)]
            t, u = option_setters(lines, path, fields)
            typed |= t
            untyped |= u
    violations = []
    for rel, lineno, struct, field, allows in declared:
        if "dead-option" in allows:
            continue
        if (struct, field) not in typed and field not in untyped:
            violations.append((rel, lineno, "dead-option",
                               f"{struct}::{field} is set by no non-test "
                               "code (make it a constant, or allow a "
                               "test seam with a reason)"))
    return violations


def run(root, rule_names):
    rules = [r for r in RULES if not rule_names or r["name"] in rule_names]
    violations = []
    for path, rel in iter_source_files(root):
        violations.extend(lint_file(rel, read_lines(path), rules))
    if not rule_names or "dead-option" in rule_names:
        violations.extend(lint_dead_options(root))
    return violations


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Project-invariant linter (see module docstring).")
    parser.add_argument("--root", default="src",
                        help="source tree to lint (default: src)")
    parser.add_argument("rules", nargs="*",
                        help="rules to run (default: all)")
    args = parser.parse_args(argv)

    known = {r["name"] for r in RULES} | {"dead-option"}
    for name in args.rules:
        if name not in known:
            parser.error(f"unknown rule: {name}")

    violations = run(args.root, set(args.rules))
    for rel, lineno, name, message in violations:
        print(f"{os.path.join(args.root, rel)}:{lineno}: [{name}] {message}")
    if violations:
        print(f"lint_invariants: {len(violations)} violation(s)",
              file=sys.stderr)
        return 1
    print("lint_invariants: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
