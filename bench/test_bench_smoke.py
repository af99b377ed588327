"""Smoke test of the benchmark: schema, correctness, attribution, hygiene.

Runs ``bench/run.py --smoke`` (every workload, one short traced round)
and checks what it wrote. No timing is asserted.
"""

import json
import os
import re
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def test_manifest_schema():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert set(manifest) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert manifest["paths"] == ["bench"]
    assert 2 <= len(manifest["workloads"]) <= 8
    assert 1 <= len(manifest["end_to_end"]) <= 16
    assert 1 <= len(manifest["per_layer"]) <= 128
    names = [
        entry["name"]
        for key in ("workloads", "end_to_end", "per_layer")
        for entry in manifest[key]
    ]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for entry in manifest["end_to_end"]:
        assert set(entry) == {"name", "unit", "better", "bound"}
        assert entry["better"] in ("lower", "higher")
        assert 0 < entry["bound"] <= 0.25
    assert any(
        entry["name"] == "setup_s" and entry["unit"] == "s"
        and entry["better"] == "lower"
        for entry in manifest["end_to_end"]
    )
    for entry in manifest["per_layer"]:
        assert set(entry) == {"name", "unit", "better"}


def test_smoke_run():
    done = subprocess.run(
        [sys.executable, os.path.join(ROOT, "bench", "run.py"), "--smoke",
         "--seed", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=600,
    )
    assert done.returncode == 0, done.stderr[-2000:]
    with open(os.path.join(ROOT, "bench", "out", "result.json")) as handle:
        result = json.load(handle)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
        manifest = json.load(handle)
    assert result["violations"] == []
    assert list(result["workloads"]) == [w["name"] for w in manifest["workloads"]]
    for name, entry in result["workloads"].items():
        assert entry["attempted"] >= 1 and entry["failed"] == 0, name
        assert list(entry["end_to_end"]) == [
            m["name"] for m in manifest["end_to_end"]
        ]
        assert list(entry["per_layer"]) == [m["name"] for m in manifest["per_layer"]]
        for metric, row in entry["end_to_end"].items():
            assert row["median"] > 0, (name, metric)
        layers = {m: row["value"] for m, row in entry["per_layer"].items()}
        assert layers["e2e.fail_frac"] == 0, name
        assert layers["trace.coverage_frac"] >= 0.9, name
        assert os.path.exists(
            os.path.join(ROOT, "bench", "out", f"trace_{name}.json")
        )
    # The children report any boundary method still wrapped after the
    # traced loop as a violation (checked above); temp cache dirs are gone.
    tmp = os.path.join(ROOT, "bench", "out", "tmp")
    assert not os.path.isdir(tmp) or os.listdir(tmp) == []
