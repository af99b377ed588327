"""Compare two benchmark results: ``python3 bench/compare.py A.json B.json``.

``A`` is the parent (or the first of two runs of one commit), ``B`` the
change. Both are ``bench/out/result.json`` files written by
``bench/run.py``. One row per (end-to-end metric x workload) with both
medians, both spreads and the bound, and one row per exact per-layer
metric that differs. Verdicts:

``ok``          B's median is no worse than A's by more than the bound.
``regressed``   it is worse by more than the bound.
``unresolved``  the spread between rounds is wider than the bound and
                the two sets of rounds overlap, so the medians say
                nothing either way. (``setup_s`` is judged on its
                medians alone, as the benchmark driver judges it: one
                set-up per round leaves nothing to steady it with.)

Exit code: 0 all ok, 1 something regressed, 2 nothing regressed but
something is unresolved.
"""

from __future__ import annotations

import json
import sys
from typing import List, Tuple


def worsening(a: float, b: float, better: str) -> float:
    """How much worse B is than A, as a share of A (negative: better)."""
    if a == 0:
        return 0.0 if b == 0 else float("inf")
    change = (b - a) / abs(a)
    return change if better == "lower" else -change


def overlap(a: List[float], b: List[float]) -> bool:
    return min(a) <= max(b) and min(b) <= max(a)


def verdict(metric: str, row_a: dict, row_b: dict) -> Tuple[str, float]:
    bound = row_a["bound"]
    worse = worsening(row_a["median"], row_b["median"], row_a["better"])
    wide = metric != "setup_s" and max(row_a["spread"], row_b["spread"]) > bound
    if wide and overlap(row_a["rounds"], row_b["rounds"]):
        return "unresolved", worse
    return ("regressed" if worse > bound else "ok"), worse


def compare(result_a: dict, result_b: dict) -> Tuple[List[str], int]:
    lines = [
        f"{'workload':<20} {'metric':<28} {'A median':>14} {'B median':>14} "
        f"{'A spread':>9} {'B spread':>9} {'bound':>6} {'B worse by':>10}  verdict"
    ]
    regressed = unresolved = 0
    if result_a["header"]["seed"] != result_b["header"]["seed"]:
        lines.insert(0, "note: the results used different seeds; exact "
                        "metrics of seeded workloads may differ for that reason")
    for name, entry_a in result_a["workloads"].items():
        entry_b = result_b["workloads"].get(name)
        if entry_b is None:
            lines.append(f"{name:<20} missing from B{'':<74} regressed")
            regressed += 1
            continue
        for metric, row_a in entry_a["end_to_end"].items():
            row_b = entry_b["end_to_end"][metric]
            word, worse = verdict(metric, row_a, row_b)
            regressed += word == "regressed"
            unresolved += word == "unresolved"
            lines.append(
                f"{name:<20} {metric:<28} {row_a['median']:>14.4f} "
                f"{row_b['median']:>14.4f} {row_a['spread']:>9.1%} "
                f"{row_b['spread']:>9.1%} {row_a['bound']:>6.0%} {worse:>+10.1%}  {word}"
            )
        # Exact metrics have no spread and a bound of zero: any change
        # for the worse is a regression, any change at all is shown.
        for metric, row_a in entry_a["per_layer"].items():
            row_b = entry_b["per_layer"][metric]
            if not row_a["exact"] or row_a["value"] == row_b["value"]:
                continue
            worse = worsening(row_a["value"], row_b["value"], row_a["better"])
            word = "regressed" if worse > 0 else "ok"
            regressed += word == "regressed"
            lines.append(
                f"{name:<20} {metric:<28} {row_a['value']:>14.4f} "
                f"{row_b['value']:>14.4f} {'exact':>9} {'exact':>9} {0:>6.0%} "
                f"{worse:>+10.1%}  {word}"
            )
        if entry_b["failed"] > entry_a["failed"]:
            lines.append(f"{name:<20} failed ops {entry_a['failed']} -> "
                         f"{entry_b['failed']}{'':<60} regressed")
            regressed += 1
    lines.append(f"{regressed} regressed, {unresolved} unresolved")
    return lines, (1 if regressed else 2 if unresolved else 0)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 64
    results = []
    for path in argv:
        with open(path) as handle:
            results.append(json.load(handle))
    lines, code = compare(*results)
    print("\n".join(lines))
    return code


if __name__ == "__main__":
    raise SystemExit(main())
