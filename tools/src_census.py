#!/usr/bin/env python3
"""Counts what ROADMAP item 8 tracks: src/ lines, option fields, include cycles.

    python3 tools/src_census.py

Prints the line count of every .h and .cc file under src/, in total and
without blank lines, `//` comment lines and `/* */` comment blocks; the
field count of each of the twelve option structs the options ledger in
docs/ARCHITECTURE.md lists; the two ledger totals, the five structs that
configure a run and the seven that configure the METIS controller and the
retrieval substrate; and every cycle in the include graph between src/
directories (src/a -> src/b when a file under src/a includes one under
src/b), each edge with the first include that makes it. Reads the tree the
script sits in.
"""

import os
import re
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# (group, struct as the ledger names it, header, name in the header).
LEDGER = [
    ("run", "JointSchedulerOptions", "src/core/joint_scheduler.h", "JointSchedulerOptions"),
    ("run", "EngineConfig", "src/llm/engine.h", "EngineConfig"),
    ("run", "OverloadOptions", "src/core/overload.h", "OverloadOptions"),
    ("run", "IngestOptions", "src/runner/runner.h", "IngestOptions"),
    ("run", "ArrivalProcess", "src/workload/dataset.h", "ArrivalProcess"),
    ("substrate", "MetisSystem::Options", "src/core/systems.h", "Options"),
    ("substrate", "RetrievalIndexOptions", "src/vectordb/vectordb.h", "RetrievalIndexOptions"),
    ("substrate", "MutableIndexOptions", "src/vectordb/vectordb.h", "MutableIndexOptions"),
    ("substrate", "AdaptiveProbePolicy", "src/vectordb/vectordb.h", "AdaptiveProbePolicy"),
    ("substrate", "RetrievalDepthPolicyOptions", "src/core/retrieval_depth.h",
     "RetrievalDepthPolicyOptions"),
    ("substrate", "DepthCalibratorOptions", "src/core/depth_calibrator.h",
     "DepthCalibratorOptions"),
    ("substrate", "HybridRouterOptions", "src/core/hybrid_router.h", "HybridRouterOptions"),
]

INCLUDE = re.compile(r'^\s*#\s*include\s+"src/([^/"]+)/')

# Member declarations that are not fields.
NOT_A_FIELD = re.compile(r"^(enum|struct|class|union|using|typedef|static|friend|template)\b")


def count_lines():
    """Returns (files, lines, non-blank non-comment lines) under src/."""
    files = total = code = 0
    for root, _, names in os.walk(os.path.join(ROOT, "src")):
        for name in names:
            if not name.endswith((".h", ".cc")):
                continue
            files += 1
            with open(os.path.join(root, name)) as f:
                lines = f.read().splitlines()
            total += len(lines)
            in_block = False
            for line in lines:
                s = line.strip()
                if in_block:
                    in_block = "*/" not in s
                    continue
                if not s or s.startswith("//"):
                    continue
                if s.startswith("/*"):
                    in_block = "*/" not in s
                    continue
                code += 1
    return files, total, code


def include_edges():
    """Maps (dir, included dir) to the first "file: line" that includes across."""
    edges = {}
    src = os.path.join(ROOT, "src")
    for root, _, names in sorted(os.walk(src)):
        for name in sorted(names):
            if not name.endswith((".h", ".cc")):
                continue
            path = os.path.join(root, name)
            rel = os.path.relpath(path, ROOT)
            here = rel.split(os.sep)[1]
            with open(path) as f:
                for line in f:
                    m = INCLUDE.match(line)
                    if m and m.group(1) != here:
                        edges.setdefault((here, m.group(1)), "%s: %s" % (rel, line.strip()))
    return edges


def directory_cycles(edges):
    """Lists every elementary cycle once, starting at its smallest directory."""
    succ = {}
    for a, b in edges:
        succ.setdefault(a, []).append(b)
    cycles = []

    def walk(start, path):
        for nxt in sorted(succ.get(path[-1], [])):
            if nxt == start:
                cycles.append(path + [start])
            elif nxt > start and nxt not in path:
                walk(start, path + [nxt])

    for start in sorted(succ):
        walk(start, [start])
    return cycles


def strip_comments(text):
    text = re.sub(r"/\*.*?\*/", " ", text, flags=re.S)
    return re.sub(r"//[^\n]*", " ", text)


def count_fields(header, name):
    """Counts the data members declared directly in `struct name { ... };`."""
    with open(os.path.join(ROOT, header)) as f:
        text = strip_comments(f.read())
    m = re.search(r"\bstruct\s+%s\s*\{" % re.escape(name), text)
    if m is None:
        sys.exit("src_census: struct %s not found in %s" % (name, header))
    # Walk the body at brace depth 1, folding nested braces (initializers,
    # nested types, inline function bodies) into "{}", and split it into
    # member declarations.
    depth, stmt, members = 1, "", []
    for ch in text[m.end():]:
        if ch == "{":
            depth += 1
            if depth == 2:
                stmt += "{}"
        elif ch == "}":
            depth -= 1
            if depth == 0:
                break
            if depth == 1 and ")" in stmt:  # An inline function body ends here.
                members.append(("function", stmt))
                stmt = ""
        elif depth == 1:
            if ch == ";":
                members.append(("decl", stmt))
                stmt = ""
            else:
                stmt += ch
    fields = 0
    for kind, decl in members:
        decl = " ".join(decl.split())
        if kind != "decl" or not decl or NOT_A_FIELD.match(decl):
            continue
        if re.search(r"\)\s*(const\s*)?(override\s*)?(=\s*(default|delete|0))?$", decl):
            continue  # A member function declaration.
        fields += 1
    return fields


def main():
    files, total, code = count_lines()
    print("src/: %s lines, %s non-blank non-comment (%d files)" %
          (format(total, ","), format(code, ","), files))
    totals = {}
    for group in ("run", "substrate"):
        rows = [row for row in LEDGER if row[0] == group]
        print("%s options (%d structs):" % (group, len(rows)))
        totals[group] = 0
        for _, label, header, name in rows:
            n = count_fields(header, name)
            totals[group] += n
            print("  %-28s %3d  %s" % (label, n, header))
        print("  %-28s %3d" % ("total", totals[group]))
    print("options: run %d, substrate %d" % (totals["run"], totals["substrate"]))
    edges = include_edges()
    cycles = directory_cycles(edges)
    print("directory include cycles: %s" % (len(cycles) if cycles else "none"))
    for cycle in cycles:
        print("  " + " -> ".join(cycle))
        for a, b in zip(cycle, cycle[1:]):
            print("    " + edges[(a, b)])
    sys.stdout.flush()
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BrokenPipeError:
        # The reader closed stdout early (`| head -1`): stop quietly, and keep
        # the interpreter's own final flush from raising again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(0)
