#!/usr/bin/env python3
"""Prints the two size figures ROADMAP item C tracks for the engine's src/:

  code lines      src/**/*.cc|.h lines that are neither blank nor, after
                  stripping leading whitespace, a // comment;
  option values   data members of every `struct <Name>Options` under src/,
                  as the dead-option lint rule finds them.

Takes no flags; run it from anywhere: python3 scripts/src_size.py
"""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lint_invariants as lint  # noqa: E402

SRC_ROOT = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def code_lines(root):
    """Non-blank, non-comment lines of every .cc/.h file under `root`."""
    count = 0
    for path, _ in lint.iter_source_files(root):
        for line in lint.read_lines(path):
            stripped = line.strip()
            if stripped and not stripped.startswith("//"):
                count += 1
    return count


def option_values(root):
    """Settable `*Options` data members of every .cc/.h file under `root`."""
    return sum(
        sum(1 for _ in lint.option_fields(lint.read_lines(path)))
        for path, _ in lint.iter_source_files(root))


def main():
    print(f"src code lines: {code_lines(SRC_ROOT)}")
    print(f"settable option values: {option_values(SRC_ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
