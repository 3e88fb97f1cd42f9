"""Reach map: which functions in ``src/repro`` does a pinned user call?

Usage, from the root of a checkout::

    python benchmarks/reach_map.py

Each source of calls runs in its own interpreter under a ``sys.setprofile``
hook that records every ``src/repro`` code object entered:

- ``tier1``: the tier-1 suite, ``pytest tests``;
- ``benchmarks``: ``pytest benchmarks --benchmark-only`` (this rewrites
  the ``BENCH_*.json`` files, as running the benches always does);
- ``perfbench``: one untraced and one traced pass of each perfbench
  workload at its default seed.

The report sorts every named ``def`` under ``src/repro`` into reached by
``benchmarks`` or ``perfbench``, reached only by ``tier1``, and reached by
nothing, and prints the last two per file with their lines (a def's own
lines; nested defs count separately), listing the unreached by name.
``--sources tier1 perfbench`` runs a subset.  Stdlib only; all three
take about 15 minutes on one core.
"""

from __future__ import annotations

import argparse
import ast
import collections
import json
import pathlib
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PACKAGE = SRC / "repro"
SOURCES = ("tier1", "benchmarks", "perfbench")


# ----------------------------------------------------------------------
# recording (one source, in a child interpreter)
# ----------------------------------------------------------------------
def _install_hook(seen: set):
    """Record the code object of every call from now on.

    ``sys.setprofile`` is shadowed so that a caller installing its own
    hook (``tests/obs/test_overhead.py`` counts calls with one) gets it
    chained after ours, and ``sys.setprofile(None)`` reinstalls ours
    instead of switching recording off.  Returns the real
    ``sys.setprofile``.
    """
    real_setprofile = sys.setprofile
    add = seen.add

    def hook(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    def setprofile(fn):
        if fn is None:
            real_setprofile(hook)
            return

        def both(frame, event, arg):
            hook(frame, event, arg)
            fn(frame, event, arg)

        real_setprofile(both)

    sys.setprofile = setprofile
    real_setprofile(hook)
    return real_setprofile


def _run_perfbench() -> None:
    from perfbench.run import _measure
    from perfbench.workloads import DEFAULT_SEED, WORKLOADS, pin_status, summarize

    for name, workload in WORKLOADS.items():
        _, untraced, traced = _measure(workload.build(DEFAULT_SEED), 0.0, True)
        for runs in untraced + [runs for runs, _ in traced]:
            status = pin_status(name, DEFAULT_SEED, summarize(runs))
            if status != "match":
                raise SystemExit(f"reach_map: perfbench {name}: pin {status}")


def record(source: str, out: pathlib.Path) -> int:
    """Run ``source`` under the hook; write the reached defs to ``out``."""
    sys.path[:0] = [str(SRC), str(ROOT)]
    seen: set = set()
    real_setprofile = _install_hook(seen)
    status = 0
    if source == "perfbench":
        _run_perfbench()
    else:
        import pytest

        suite = [str(ROOT / "tests")]
        if source == "benchmarks":
            suite = ["--benchmark-only", str(ROOT / "benchmarks")]
        status = int(pytest.main(["-q", "-p", "no:cacheprovider", *suite]))
    real_setprofile(None)
    prefix = str(PACKAGE)
    reached = sorted(
        [str(pathlib.Path(code.co_filename).relative_to(SRC)), code.co_firstlineno]
        for code in list(seen)
        if code.co_filename.startswith(prefix)
    )
    out.write_text(json.dumps({"source": source, "status": status, "reached": reached}))
    return status


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def _start(node) -> int:
    return min([node.lineno] + [d.lineno for d in node.decorator_list])


def _inner_defs(node):
    """The defs directly inside ``node``: not inside another def."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield child
        else:
            yield from _inner_defs(child)


def defs():
    """Every named ``def`` under ``src/repro``: (file, first line) ->
    (qualified name, own lines).  The first line is the first
    decorator's, as in ``co_firstlineno``; a def's own lines leave out
    the defs nested in it."""
    found = {}

    def walk(node, rel, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                walk(child, rel, f"{prefix}{child.name}.")
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = f"{prefix}{child.name}"
                own = (child.end_lineno - _start(child) + 1) - sum(
                    n.end_lineno - _start(n) + 1 for n in _inner_defs(child)
                )
                found[(rel, _start(child))] = (name, own)
                walk(child, rel, f"{name}.<locals>.")
            else:
                walk(child, rel, prefix)

    for path in sorted(PACKAGE.rglob("*.py")):
        rel = str(path.relative_to(SRC))
        walk(ast.parse(path.read_text(), str(path)), rel, "")
    return found


def _table(title, rows, names=False):
    print(f"\n== {title} ==")
    by_file = collections.defaultdict(list)
    for (rel, _), (name, lines) in rows:
        by_file[rel].append((name, lines))
    print(f"{'file':<40} {'defs':>5} {'lines':>6}")
    for rel, items in sorted(by_file.items(), key=lambda kv: -sum(n for _, n in kv[1])):
        print(f"{rel:<40} {len(items):>5} {sum(n for _, n in items):>6}")
    if names:
        print()
        for (rel, line), (name, _) in rows:
            print(f"  {rel}:{line}  {name}")


def report(recordings) -> None:
    reached = {
        rec["source"]: {tuple(key) for key in rec["reached"]} for rec in recordings
    }
    for rec in recordings:
        if rec["status"]:
            print(f"warning: {rec['source']} exited {rec['status']}; its map may be short")
    table = defs()
    pinned = set().union(*(reached.get(s, set()) for s in ("benchmarks", "perfbench")))
    tier1 = reached.get("tier1", set())
    tier1_only = sorted((k, v) for k, v in table.items() if k in tier1 and k not in pinned)
    nothing = sorted((k, v) for k, v in table.items() if k not in tier1 and k not in pinned)
    ran = ", ".join(rec["source"] for rec in recordings)
    print(f"reach map over {len(table)} defs in src/repro (sources: {ran})")
    print(f"  reached by benchmarks or perfbench: {sum(1 for k in table if k in pinned)}")
    print(f"  reached only by tier1: {len(tier1_only)} "
          f"({sum(v[1] for _, v in tier1_only)} lines)")
    print(f"  reached by nothing: {len(nothing)} ({sum(v[1] for _, v in nothing)} lines)")
    _table("tier-1 only", tier1_only)
    _table("reached by nothing", nothing, names=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sources", nargs="+", choices=SOURCES, default=list(SOURCES))
    parser.add_argument("--record", choices=SOURCES, help=argparse.SUPPRESS)
    parser.add_argument("--out", type=pathlib.Path, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        return record(args.record, args.out)
    recordings = []
    with tempfile.TemporaryDirectory() as tmp:
        for source in args.sources:
            out = pathlib.Path(tmp) / f"{source}.json"
            subprocess.run(
                [sys.executable, __file__, "--record", source, "--out", str(out)],
                cwd=ROOT, stdout=subprocess.DEVNULL, check=False,
            )
            if not out.exists():
                sys.exit(f"reach_map: recording {source} crashed")
            print(f"recorded {source}", file=sys.stderr)
            recordings.append(json.loads(out.read_text()))
    report(recordings)
    return 0


if __name__ == "__main__":
    sys.exit(main())
