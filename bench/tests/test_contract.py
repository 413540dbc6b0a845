"""BENCHMARK.json agrees with the code, and the benchmark refuses to run without the program."""

import json
import re
import shutil
import subprocess
import sys

import run
import tracer
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def fake(wall, cpu=None):
    return run.Sample(0, b"", wall, wall if cpu is None else cpu, 30.0, False)


def test_spec_matches_code():
    assert all(workloads.WHY[w["name"]] == w["why"] for w in SPEC["workloads"])
    assert all(tracer.PER_LAYER[m["name"]] == m["unit"] for m in SPEC["per_layer"])
    runner = run.Runner(None, {})
    runner.samples = [fake(2.0), fake(2.2), fake(1.8)]
    runner.reference = [fake(0.1), fake(0.1)]
    runner.setup_s = [0.08, 0.09]
    runner.attempted = 3
    values, _ = run.end_to_end(runner)
    assert set(values) == {m["name"] for m in SPEC["end_to_end"]}
    assert values["wall_rel"] == 20.0 and values["ok_ratio"] == 1.0


def test_spec_within_limits():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert 2 <= len(SPEC["workloads"]) <= 8 and 1 <= len(SPEC["per_layer"]) <= 128
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    names = [x["name"] for key in ("workloads", "end_to_end", "per_layer") for x in SPEC[key]]
    assert len(names) == len(set(names)) and all(NAME.fullmatch(n) for n in names)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in SPEC["workloads"])
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"} and 0 < metric["bound"] <= 0.25
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "hubs-mpoly",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == b""
