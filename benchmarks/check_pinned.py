"""Check regenerated ``BENCH_*.json`` files against their committed copies.

Usage::

    python benchmarks/check_pinned.py BENCH_overlap.json BENCH_trace.json ...

Each file is compared with ``git show HEAD:<file>``.  Keys that measure
the host rather than the simulation (wall time and event throughput) are
left out; every other field is a simulated figure and must match
exactly.  Prints each differing path and exits non-zero on any mismatch.
"""

import json
import subprocess
import sys

#: Host-time keys: they vary run to run and are never compared.  An
#: ``events`` count is a deterministic simulated figure and is compared.
HOST_TIME_KEYS = frozenset(
    {"wall_seconds", "events_per_second", "sim_seconds_per_wall_second"}
)


def differences(pinned, fresh, path=""):
    """Yield the paths where ``fresh`` departs from ``pinned``."""
    if isinstance(pinned, dict) and isinstance(fresh, dict):
        for key in sorted(set(pinned) | set(fresh)):
            if key in HOST_TIME_KEYS:
                continue
            where = f"{path}.{key}" if path else key
            if key not in fresh:
                yield f"{where}: missing"
            elif key not in pinned:
                yield f"{where}: not in the committed file"
            else:
                yield from differences(pinned[key], fresh[key], where)
    elif isinstance(pinned, list) and isinstance(fresh, list) and len(pinned) == len(fresh):
        for i, (a, b) in enumerate(zip(pinned, fresh)):
            yield from differences(a, b, f"{path}[{i}]")
    elif pinned != fresh:
        yield f"{path}: {pinned!r} -> {fresh!r}"


def main(paths):
    failed = False
    for path in paths:
        pinned = json.loads(
            subprocess.run(
                ["git", "show", f"HEAD:{path}"],
                check=True, capture_output=True, text=True,
            ).stdout
        )
        with open(path) as fh:
            fresh = json.load(fh)
        diffs = list(differences(pinned, fresh))
        print(f"{path}: {'OK' if not diffs else f'{len(diffs)} figure(s) moved'}")
        for line in diffs:
            print(f"  {line}")
        failed = failed or bool(diffs)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
