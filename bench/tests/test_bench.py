"""Tests of the benchmark itself: oracles against sympy, failure
accounting, and the span arithmetic of the traced run.

Run from the repository root: python -m pytest bench/tests -q
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest
import sympy

import oracles
import run
import trace_child
import workloads
from oracles import OracleError
from workloads import Job, Workload


def cli_envelope(spawner: run.Spawner, *args: str) -> dict:
    rc, out, _, _ = spawner.spawn([sys.executable, "-m", "primeshift.cli", *args])
    assert rc in (0, 1), out
    return json.loads(out)


@pytest.fixture
def spawner(tmp_path):
    return run.Spawner(tmp_path, deadline=time.monotonic() + 600)


# ------------------------------------------------------- oracles vs sympy


@pytest.mark.parametrize("limit", [0, 1, 2, 3, 4, 9, 10, 97, 100, 1000, 7919, 10**4 + 1])
def test_primes_upto_matches_sympy(limit):
    assert oracles.primes_upto(limit).tolist() == list(sympy.primerange(0, limit + 1))


@pytest.mark.parametrize("lo,hi", [(0, 50), (2, 2), (3, 3), (90, 200), (10**6 - 100, 10**6 + 100)])
def test_segment_flags_match_sympy(lo, hi):
    odd_base = oracles.primes_upto(math.isqrt(hi))[1:]
    flags = oracles.segment_flags(lo, hi, odd_base)
    assert flags.tolist() == [int(sympy.isprime(n)) for n in range(lo, hi + 1)]


@pytest.mark.parametrize("seed", range(6))
def test_shifted_prime_counts_match_sympy(seed):
    rng = np.random.default_rng(seed)
    elements = sorted(int(a) for a in rng.choice(np.arange(-300, 3000), size=12, replace=False))
    lo = int(rng.integers(-100, 1500))
    hi = lo + int(rng.integers(0, 400))
    counts = oracles.shifted_prime_counts(elements, lo, hi, segment=97)
    assert counts.tolist() == [oracles.brute_count(n, elements) for n in range(lo, hi + 1)]


@pytest.mark.parametrize("k_min", [0, 1])
def test_romanoff_counts_match_sympy(k_min):
    for limit in list(range(3, 80)) + [257, 1000]:
        odd = range(3, limit + 1, 2)
        expected = sum(
            1 for n in odd
            if any(sympy.isprime(n - (1 << k)) for k in range(k_min, n.bit_length()) if n - (1 << k) >= 2)
        )
        assert oracles.romanoff_counts(limit, k_min) == (expected, len(odd)), limit


def test_mertens_margin_matches_direct_product():
    x_max = 2000
    product, margins = 1.0, []
    for q in sympy.primerange(3, x_max + 1):
        if q > 74 and not margins:
            margins.append(0.923 * math.log(74) - product)
        product *= q / (q - 1)
        if q >= 74:
            margins.append(0.923 * math.log(q) - product)
    assert oracles.mertens_margin(x_max) == pytest.approx(min(margins), rel=1e-9)


# ---------------------------------------- oracles accept real CLI outputs


def test_primes_and_romanoff_oracles(spawner):
    for limit in (2, 3, 1000, 10**6 + 3):
        env = cli_envelope(spawner, "primes", "--limit", str(limit))
        oracles.check_primes(env, limit)
    env["result"]["count"] += 1
    with pytest.raises(OracleError):
        oracles.check_primes(env, 10**6 + 3)
    for k_min in (0, 1):
        env = cli_envelope(spawner, "romanoff", "--limit", "99999", "--k-min", str(k_min))
        oracles.check_romanoff(env, 99999, k_min)
    env["result"]["representable_count"] -= 1
    with pytest.raises(OracleError):
        oracles.check_romanoff(env, 99999, 1)


def test_set_oracles(spawner, tmp_path):
    rng = np.random.default_rng(7)
    values = rng.choice(2 * 10**6, size=3000, replace=False) - 10**6
    path = workloads.write_set(tmp_path / "set.txt", values)
    cert = cli_envelope(spawner, "check", path)
    oracles.check_certificate(cert, values)
    cert["result"]["covered_prime"] = 3
    with pytest.raises(OracleError):
        oracles.check_certificate(cert, values)
    prune = oracles.check_prune(cli_envelope(spawner, "prune", path), values)
    oracles.check_guarantee(cli_envelope(spawner, "guarantee", path), prune)

    admissible = np.array([2**i for i in range(1, 30)])
    adm_path = workloads.write_set(tmp_path / "adm.txt", admissible)
    cert = cli_envelope(spawner, "check", adm_path)
    assert cert["result"]["verdict"] == "admissible"
    oracles.check_certificate(cert, admissible)
    cert["result"]["missed_residues"][2][1] += 1
    with pytest.raises(OracleError):
        oracles.check_certificate(cert, admissible)

    bad = cli_envelope(spawner, "prune", path)
    step = bad["result"]["steps"][0]
    intruder = next(int(v) for v in values if v % step["prime"] == step["removed_residue"])
    bad["result"]["final_set"] = sorted(bad["result"]["final_set"][1:] + [intruder])
    with pytest.raises(OracleError):
        oracles.check_prune(bad, values)


def test_repsearch_oracle(spawner, tmp_path):
    cases = [
        ([2**i for i in range(1, 15)], 3, 30000),
        (sorted(int(a) for a in np.random.default_rng(3).choice(10**7, 40, replace=False)), 10**7, 10**7 + 5000),
        ([2**i for i in range(1, 6)], 10**12 - 300, 10**12 + 300),
    ]
    for i, (elements, lo, hi) in enumerate(cases):
        path = workloads.write_set(tmp_path / f"r{i}.txt", elements)
        env = cli_envelope(spawner, "repsearch", path, "--from", str(lo), "--to", str(hi), "--top", "5")
        oracles.check_repsearch(env, elements, lo, hi, 5)
    env["result"]["records"][-1][1] += 1
    with pytest.raises(OracleError):
        oracles.check_repsearch(env, elements, lo, hi, 5)


def test_lemmas_oracle(spawner):
    env = cli_envelope(spawner, "verify-lemmas", "--mertens-limit", "50000")
    oracles.check_lemmas(env, 50000)
    env["result"]["reports"][0]["passed"] = False
    with pytest.raises(OracleError):
        oracles.check_lemmas(env, 50000)


# ----------------------------------------------------- failure accounting


def tiny_workload(rng, workdir):
    return [
        Job("good", ("primes", "--limit", "1000"), lambda env, _: oracles.check_primes(env, 1000)),
        # Expects the wrong limit, so its (correct) stdout fails the oracle.
        Job("wrong", ("primes", "--limit", "2000"), lambda env, _: oracles.check_primes(env, 2001)),
        # Needs "wrong", so it is reported as not checked rather than failed again.
        Job("after_wrong", ("primes", "--limit", "2000"), lambda env, done: done["wrong"], needs=("wrong",)),
    ]


def test_wrong_stdout_is_counted_as_failed(monkeypatch, tmp_path, capsys):
    monkeypatch.setitem(run.WORKLOADS, "tiny", Workload("three small primes jobs", tiny_workload))
    monkeypatch.setattr(run, "WORK_DIR", tmp_path)
    monkeypatch.setattr(run, "SETUP_PER_PASS", 1)
    assert run.main(["--workload", "tiny", "--seed", "1", "--seconds", "0"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 3, 1)
    assert any(line.startswith("error_rate") and "1 of 3" in line for line in lines)
    assert "# NOT CHECKED after_wrong: a job it needs failed its oracle" in lines


def test_stdout_differing_between_passes_fails():
    job = Job("j", (), lambda env, _: None)
    first = run.JobRun("j", False, 0, b'{"a": 1}', 1.0, 1.0, 1.0)
    same = run.JobRun("j", False, 0, b'{"a": 1}', 1.0, 1.0, 1.0)
    other = run.JobRun("j", False, 0, b'{"a": 2}', 1.0, 1.0, 1.0)
    crashed = run.JobRun("j", False, 3, b'{"a": 1}', 1.0, 1.0, 1.0)
    passes = [run.Pass(False, 1.0, [first]), run.Pass(False, 1.0, [same]),
              run.Pass(False, 1.0, [other]), run.Pass(False, 1.0, [crashed])]
    run.judge([job], passes)
    assert [r.problem is not None for r in (first, same, other, crashed)] == [False, False, True, True]


def test_without_sources_the_benchmark_refuses(tmp_path):
    shutil.copytree(run.BENCH_DIR, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0 and proc.stdout == ""


# --------------------------------------------------------------- tracing


def test_span_self_times_within_spans(spawner, tmp_path):
    path = workloads.write_set(tmp_path / "set.txt", np.arange(-500, 4000, 7))
    far = workloads.write_set(tmp_path / "far.txt", workloads.powers_of_two(8))
    jobs = [
        Job("guarantee", ("guarantee", path), None),
        Job("far", ("repsearch", far, "--from", str(10**12 - 200), "--to", str(10**12 + 200)), None),
        Job("lemmas", ("verify-lemmas", "--mertens-limit", "100000"), None),
    ]
    for job in jobs:
        plain = spawner.run_job(job, traced=False, label="plain")
        traced = spawner.run_job(job, traced=True, label=f"t/{job.name}")
        assert traced.stdout == plain.stdout and traced.rc == plain.rc == 0
        t = traced.trace
        spans = {s["id"]: s for s in t["spans"]}
        root = spans[0]
        assert root["name"] == trace_child.ROOT and root["parent"] is None
        for span in spans.values():
            assert 0 <= span["self_s"] <= span["end"] - span["start"] + 1e-9
            if span["parent"] is not None:
                parent = spans[span["parent"]]
                assert parent["start"] <= span["start"] <= span["end"] <= parent["end"]
        for agg in t["hot"].values():
            assert 0 <= agg["self_s"] <= agg["s"] + 1e-9
        total_self = sum(s["self_s"] for s in spans.values()) + sum(a["self_s"] for a in t["hot"].values())
        assert total_self == pytest.approx(root["end"] - root["start"], abs=1e-6)
        # What is left is interpreter teardown and writing the spans: about
        # 0.02 s on a 2-core x86 box, so these 0.1 s jobs are 75-85% accounted
        # and the benchmark's multi-second jobs 96-99% (trace.accounted_share).
        remainder = traced.wall_s - t["import_s"] - total_self
        assert 0 <= remainder < 0.075
    values = run.layer_values([traced])
    assert values["bounds.mertens_checkpoints"] == len(list(sympy.primerange(74, 100001))) + 1


# ------------------------------------------------------- benchmark spec


def test_benchmark_json_matches_the_runner():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()
    }
    assert all(len(w["why"]) <= 200 for w in spec["workloads"])
    plain = run.Pass(False, 2.0, [run.JobRun(f"j{i}", False, 0, b"", 1.0, 1.0, 1.0) for i in range(3)])
    assert set(run.end_to_end_metrics([0.1], [plain])) == {m["name"] for m in spec["end_to_end"]}
    names = [m["name"] for m in spec["per_layer"]]
    assert all(name in run.LAYER_METRICS for name in names)
