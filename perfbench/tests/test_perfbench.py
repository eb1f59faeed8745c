"""Self-test of the benchmark: every workload at a tiny size emits exactly the
metrics BENCHMARK.json names, and the correctness gate trips when a
reference value is wrong.

    python3 -m pytest -q perfbench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))

import reference  # noqa: E402
import run  # noqa: E402

sys.path.insert(0, str(run.SRC))

SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())


def run_tiny(capsys, workload: str, trace: int) -> tuple[int, dict]:
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                   "--trace", str(trace), "--tiny"])
    return rc, json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_every_named_metric_is_emitted(capsys, workload, trace):
    rc, result = run_tiny(capsys, workload, trace)
    assert rc == 0 and result["correct"] and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


@pytest.mark.parametrize("workload", ["acceptance", "dual_rail"])
def test_gate_trips_on_a_perturbed_reference(capsys, monkeypatch, workload):
    p_ff, p_no = reference.REFERENCE["ghz"]
    monkeypatch.setitem(reference.REFERENCE, "ghz", (lambda n: p_ff(n) * 2, p_no))
    rc, result = run_tiny(capsys, workload, 0)
    assert rc == 1 and not result["correct"] and result["failed"] >= 1


def test_verify_output_is_read_from_the_parenthesised_value():
    text = ("scheme = w (n=5)\nepm = True\nno_bunching = True\n"
            "oracle_fidelity = 1.000000000000\nP_ff = 1/1024 (0.0009765625)\n"
            "P_no_ff = 1.221e-05 (1.220703125e-05)\n"
            "outcomes = 160/160 correctable, min corrected fidelity 1.000000000000\n"
            "genuine_entanglement = True\nruntime = 6.7s\n")
    assert reference.check_verify("w", 5, 0, text, 1e-9) == []
    wrong = text.replace("(1.220703125e-05)", "(1.2207e-05)")
    assert reference.check_verify("w", 5, 0, wrong, 1e-9)


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, *SPEC["command"][1:], "--workload", "acceptance",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_replay_guard_trips_when_the_replay_drifts(capsys, monkeypatch):
    replay = run.spans.replay
    monkeypatch.setattr(run.spans, "replay", lambda *a: replay(*a)[1:])
    rc, result = run_tiny(capsys, "acceptance", 1)
    assert rc == 1 and not result["correct"] and result["failed"] >= 1


def test_the_seed_fixes_the_inputs(tmp_path):
    m = run.import_sculpt()
    digests = [run.make_inputs(m, "random", seed, tmp_path, True)[2] for seed in (5, 5, 6)]
    assert digests[0] == digests[1] != digests[2]
