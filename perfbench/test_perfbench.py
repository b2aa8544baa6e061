"""Tests of the benchmark itself, at smoke scale:

    python3 -m pytest perfbench
"""
from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402
import worker  # noqa: E402
from oracles import mobius_upto, series_problems  # noqa: E402
from workloads import VARIANTS, WORKLOADS, model_inputs, variant_for_seed  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
REFERENCE = json.loads(run.REFERENCE.read_text(encoding="utf-8"))


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.2",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    section = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in section}


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)


def test_every_variant_has_a_reference_verdict():
    for workload in WORKLOADS:
        for variant in range(VARIANTS):
            for smoke in (True, False):
                for inp in model_inputs(workload, variant, smoke):
                    assert inp.key in REFERENCE, inp.key


def test_seed_zero_gives_the_named_inputs_and_others_a_neighbour():
    assert variant_for_seed(0) == 0
    assert [i.key for i in model_inputs("zpos", 0, smoke=False)] == ["preset:zpos:1500@None"]
    assert [i.key for i in model_inputs("dense-poset", 0, smoke=False)] == [
        "preset:free:2@12", "preset:braid3@13"]
    assert model_inputs("words", 0, smoke=False)[0].key == "preset:example3@20"
    assert {variant_for_seed(s) for s in range(1, 200)} == set(range(1, VARIANTS))
    assert model_inputs("words", 3, smoke=False) == model_inputs("words", 3, smoke=False)


def test_mobius_sieve_matches_factorization():
    def mu(n):
        sign, p = 1, 2
        while p * p <= n:
            if n % p == 0:
                n //= p
                if n % p == 0:
                    return 0
                sign = -sign
            p += 1
        return -sign if n > 1 else sign

    assert mobius_upto(300)[1:] == [mu(n) for n in range(1, 301)]


def test_series_oracles_flag_wrong_series():
    zero, one = Fraction(0), Fraction(1)
    growth = {Fraction(d): 2 ** d for d in range(5)}
    assert series_problems(growth, {zero: 1, one: -2}, 4, False, "free2") == []
    assert series_problems(growth, {zero: 1, one: -1}, 4, False, "free2") == [
        "naive convolution: P*N != 1", "free:2: N != 1 - 2t"]
    ones = {n: 1 for n in range(1, 11)}
    mobius = {1: 1, 2: -1, 3: -1, 5: -1, 6: 1, 7: -1, 10: 1}
    assert series_problems(ones, mobius, 10, True, "mobius") == []
    assert series_problems(ones, {**mobius, 10: -1}, 10, True, "mobius") != []


def test_a_changed_verdict_counts_as_a_failure(tmp_path):
    warm = model_inputs("zpos", 0, smoke=True)
    tampered = {k: v.replace('"pass"', '"fail"') for k, v in REFERENCE.items()}
    reference = tmp_path / "reference.json"
    reference.write_text(json.dumps(tampered), encoding="utf-8")
    record = worker.run({"reference": str(reference), "workdir": str(tmp_path),
                         "warm": [i.to_json() for i in warm], "full": None,
                         "seconds": 0, "trace": False})
    assert record["attempted"] == record["failed"] == 1


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("_work", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("--workload", "zpos", "--seed", "0", "--seconds", "1",
                 "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
