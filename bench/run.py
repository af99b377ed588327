"""Run the PyPIM benchmark (``BENCHMARK.json``; details in ``bench/README.md``).

Two ways in, one measurement underneath:

``python3 bench/run.py --workload W --seed N --seconds S --trace 0|1``
    One workload. ``--trace 0``: three rounds of ``S/3`` seconds, each in
    a fresh child process, one at a time; prints the end-to-end metrics
    (median of the rounds). ``--trace 1``: one untraced and one traced
    round; prints the per-layer metrics. The last line of standard
    output is one JSON object (``correct``/``attempted``/``failed``/
    ``metrics``).

``python3 bench/run.py --seed N`` (or ``python -m bench.run``)
    Every workload: three rounds interleaved across workloads, then the
    traced pass; prints every metric by name with its unit and writes
    ``bench/out/result.json`` plus one span file per workload.

Either way the command exits non-zero when an output was wrong, an op
raised, or a metric marked exact differed between rounds.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from typing import Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, "bench", "out")
if ROOT not in sys.path:
    sys.path.insert(0, ROOT)

from bench.schema import EXACT, Schema, load_schema  # noqa: E402

ROUNDS = 3
#: A child that runs longer than this is killed and the run fails.
CHILD_TIMEOUT_S = 170


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def child_env() -> Dict[str, str]:
    """The parent's environment without any ``REPRO_*`` knob."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env["PYTHONPATH"] = os.pathsep.join([ROOT, SRC])
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(workload: str, seed: int, seconds: float, traced: bool,
          tag: str) -> dict:
    """Run one round in a fresh process and return what it printed."""
    command = [
        sys.executable, "-m", "bench.child",
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(int(traced)),
        "--scratch", os.path.join(OUT, "tmp", f"{os.getpid()}-{workload}-{tag}"),
    ]
    if traced:
        command += ["--spans", os.path.join(OUT, f"trace_{workload}.json")]
    command += ["--started", repr(time.time())]
    try:
        done = subprocess.run(
            command, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"{workload}: round {tag} exceeded {CHILD_TIMEOUT_S}s")
    if done.returncode != 0:
        raise BenchError(f"{workload}: round {tag} exited {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def spread(values: List[float]) -> float:
    middle = statistics.median(values)
    return (max(values) - min(values)) / middle if middle else 0.0


def end_to_end(children: List[dict], schema: Schema) -> Dict[str, dict]:
    """Median of the rounds, with ``(max - min) / median`` beside it."""
    table = {}
    for name, entry in schema.end_to_end.items():
        rounds = [child["end_to_end"][name] for child in children]
        table[name] = {
            "median": statistics.median(rounds), "spread": spread(rounds),
            "rounds": rounds, "unit": entry["unit"],
            "better": entry["better"], "bound": entry["bound"],
        }
    return table


def per_layer(untraced: List[dict], traced: dict, schema: Schema) -> Dict[str, float]:
    """Every per-layer metric; the ones a workload does not exercise are 0.

    Span-derived numbers come from the traced round. Counter-derived ones
    come from the untraced rounds when there are any, so the timings
    among them carry no tracing overhead.
    """
    values = dict.fromkeys(schema.per_layer, 0.0)
    values.update(traced["spans"])
    sources = untraced or [traced]
    for name in sources[0]["counters"]:
        values[name] = statistics.median(c["counters"][name] for c in sources)
    if untraced:
        clean = statistics.median(
            c["end_to_end"]["calls_per_s"] for c in untraced
        )
        values["trace.overhead_frac"] = (
            1.0 - traced["end_to_end"]["calls_per_s"] / clean
        )
    unknown = set(values) - set(schema.per_layer)
    if unknown:
        raise BenchError(f"metrics missing from BENCHMARK.json: {sorted(unknown)}")
    return values


def violations(workload: str, children: List[dict]) -> List[str]:
    """Wrong outputs and exact metrics that moved, named."""
    found = []
    for child in children:
        for message in child["errors"]:
            found.append(f"{workload}: {message}")
        if child["failed"]:
            found.append(f"{workload}: {child['failed']} of {child['ops']} ops failed")
        for name in child.get("leftover_wrappers", ()):
            found.append(f"{workload}: wrapper left installed on {name}")
        for name, expected in child["expect_exact"].items():
            if child["counters"][name] != expected:
                found.append(
                    f"{workload}: {name} is {child['counters'][name]!r}, "
                    f"contract says {expected!r}"
                )
    for name in sorted(EXACT & set(children[0]["counters"])):
        seen = {child["counters"][name] for child in children}
        if len(seen) > 1:
            found.append(f"{workload}: exact metric {name} drifted: {sorted(seen)}")
    return found


def report(messages: List[str]) -> None:
    for message in messages:
        print(f"VIOLATION {message}", file=sys.stderr)


# ----------------------------------------------------------------------
# One workload (the form the benchmark driver calls)
# ----------------------------------------------------------------------
def run_one(args, schema: Schema) -> int:
    seconds = args.seconds / ROUNDS
    if args.trace:
        untraced = [spawn(args.workload, args.seed, seconds, False, "u")]
        traced = spawn(args.workload, args.seed, seconds, True, "t")
        children = untraced + [traced]
        values = per_layer(untraced, traced, schema)
        metrics = {
            name: {"value": values[name], "unit": entry["unit"]}
            for name, entry in schema.per_layer.items()
        }
    else:
        children = [
            spawn(args.workload, args.seed, seconds, False, str(index))
            for index in range(ROUNDS)
        ]
        metrics = {
            name: {"value": row["median"], "unit": row["unit"]}
            for name, row in end_to_end(children, schema).items()
        }
    problems = violations(args.workload, children)
    report(problems)
    for name, metric in metrics.items():
        print(f"{args.workload:<20} {name:<32} {metric['value']:>16.6f} {metric['unit']}")
    print(json.dumps({
        "correct": not problems,
        "attempted": sum(child["ops"] for child in children),
        "failed": sum(child["failed"] for child in children),
        "metrics": metrics,
    }))
    return 1 if problems else 0


# ----------------------------------------------------------------------
# Every workload (the form people call)
# ----------------------------------------------------------------------
def git_sha() -> Optional[str]:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def header(args, seconds: float, traced: Dict[str, dict]) -> dict:
    return {
        "seed": args.seed, "seconds_per_round": seconds,
        "rounds": 0 if args.smoke else ROUNDS, "smoke": args.smoke,
        "python": platform.python_version(),
        "numpy": next(iter(traced.values()))["numpy"],
        "nproc": os.cpu_count(), "git_sha": git_sha(),
        "config_fingerprints": {
            name: child["config_fingerprint"] for name, child in traced.items()
        },
    }


def run_all(args, schema: Schema) -> int:
    """Rounds are interleaved across workloads (w1..w7, w1..w7, ...) so a
    drift in machine load falls on all of them alike."""
    seconds = 0.4 if args.smoke else args.seconds / ROUNDS
    names = list(schema.workloads)
    untraced: Dict[str, List[dict]] = {name: [] for name in names}
    if not args.smoke:
        for index in range(ROUNDS):
            for name in names:
                untraced[name].append(spawn(name, args.seed, seconds, False, str(index)))
                print(f"round {index + 1}/{ROUNDS} {name}: "
                      f"{untraced[name][-1]['ops']} ops", file=sys.stderr)
    traced_pass = {
        name: spawn(name, args.seed, seconds, True, "t") for name in names
    }
    result = {"header": header(args, seconds, traced_pass), "workloads": {}}
    problems: List[str] = []
    for name, traced in traced_pass.items():
        children = untraced[name] + [traced]
        # A smoke run has no untraced rounds: its end-to-end numbers come
        # from the traced round and only prove the plumbing.
        result["workloads"][name] = {
            "why": schema.workloads[name],
            "attempted": sum(child["ops"] for child in children),
            "failed": sum(child["failed"] for child in children),
            "end_to_end": end_to_end(untraced[name] or [traced], schema),
            "per_layer": {
                metric: {"value": value,
                         "unit": schema.per_layer[metric]["unit"],
                         "better": schema.per_layer[metric]["better"],
                         "exact": metric in EXACT}
                for metric, value in per_layer(untraced[name], traced, schema).items()
            },
        }
        problems += violations(name, children)
    result["violations"] = problems
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "result.json")
    with open(path, "w") as handle:
        json.dump(result, handle, indent=1)
    print_result(result)
    report(problems)
    print(f"wrote {os.path.relpath(path, ROOT)}")
    return 1 if problems else 0


def print_result(result: dict) -> None:
    for name, entry in result["workloads"].items():
        print(f"\n== {name}: {entry['attempted']} ops, {entry['failed']} failed")
        for metric, row in entry["end_to_end"].items():
            print(f"  {metric:<32} {row['median']:>16.6f} {row['unit']:<8} "
                  f"spread {row['spread']:.1%}  bound {row['bound']:.0%}")
        for metric, row in entry["per_layer"].items():
            if row["value"]:
                mark = " (exact)" if row["exact"] else ""
                print(f"  {metric:<32} {row['value']:>16.6f} {row['unit']}{mark}")
        silent = [m for m, row in entry["per_layer"].items() if not row["value"]]
        print(f"  (0 on this workload: {', '.join(silent)})")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench/run.py", description=__doc__.split("\n\n")[0]
    )
    parser.add_argument("--workload", default=None,
                        help="run one workload (default: all of them)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per workload (default: run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="all workloads, one short traced round each")
    args = parser.parse_args(argv)

    if not os.path.isdir(os.path.join(SRC, "repro")):
        print("bench/run.py: src/repro not found next to bench/", file=sys.stderr)
        return 2
    schema = load_schema()
    if args.seconds is None:
        args.seconds = float(schema.run_seconds)
    try:
        if args.workload is None:
            return run_all(args, schema)
        if args.workload not in schema.workloads:
            parser.error(f"unknown workload {args.workload!r}")
        return run_one(args, schema)
    except BenchError as error:
        print(f"bench/run.py: {error}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    raise SystemExit(main())
