"""Smoke-size tests of the benchmark itself.

Run with ``python -m pytest perfbench/tests`` from the repository root.
Every workload runs on small meshes (``--size smoke``), untraced and
traced, as a subprocess from the repository root.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every workload ``run.py`` knows, including ``wing22k-cold``, which
#: ``BENCHMARK.json`` leaves out (too noisy for a 0.25 bound).
WORKLOADS = ["wing22k-cold", "wing4k-converge", "service-closed"]


def bench(workload, trace, *, env=None, seconds=0.1):
    """One smoke run.  At 0.1 s every workload does its minimum work
    (2 solves; the service its minimum sample count), so traced and
    untraced runs do identical work."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "3",
           "--seconds", str(seconds), "--trace", str(trace),
           "--size", "smoke"]
    return subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300, env=env)


def meta_of(stdout):
    return next(json.loads(line[len("meta: "):])
                for line in stdout.splitlines() if line.startswith("meta: "))


@pytest.fixture(scope="module")
def runs():
    out = {}
    for w in WORKLOADS:
        for trace in (0, 1):
            proc = bench(w, trace)
            assert proc.returncode == 0, proc.stdout + proc.stderr
            out[w, trace] = proc.stdout
    return out


@pytest.fixture(scope="module")
def results(runs):
    return {k: json.loads(v.strip().splitlines()[-1])
            for k, v in runs.items()}


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace,key", [(0, "end_to_end"), (1, "per_layer")])
def test_every_metric_named_with_its_unit(results, workload, trace, key):
    got = results[workload, trace]["metrics"]
    want = {m["name"]: m["unit"] for m in SPEC[key]}
    assert {k: v["unit"] for k, v in got.items()} == want
    for name, m in got.items():
        assert isinstance(m["value"], (int, float)), name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_no_operation_failed(results, workload):
    for trace in (0, 1):
        res = results[workload, trace]
        assert res["correct"] is True
        assert res["attempted"] >= 1
        assert res["failed"] / res["attempted"] == 0.0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_closes_on_the_solve_time(results, workload):
    m = {k: v["value"] for k, v in results[workload, 1]["metrics"].items()}
    assert m["bench.unattributed_s"] >= 0.0
    assert m["bench.attributed_s"] + m["bench.unattributed_s"] == \
        pytest.approx(m["core.solve_s"], rel=1e-9)
    assert m["bench.unattributed_frac"] == pytest.approx(
        m["bench.unattributed_s"] / m["core.solve_s"])
    assert 0.0 <= m["bench.trace_overhead_frac"] < 0.5


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_does_not_change_the_iterations(runs, results, workload):
    plain = meta_of(runs[workload, 0])["linear_iterations"]
    traced = results[workload, 1]["metrics"]["solvers.linear_iterations"]
    assert plain == traced["value"] > 0


def test_service_hit_ratios_follow_the_request_mix(runs, results):
    mix = meta_of(runs["service-closed", 1])["mix"]
    warm = (mix["repeat"] + mix["jitter"]) / sum(mix.values())
    m = results["service-closed", 1]["metrics"]
    ratios = [v["value"] for k, v in m.items()
              if k.startswith("service.cache.hit_ratio.")]
    assert ratios == [pytest.approx(warm)] * 4


def test_refuses_without_the_c_backend():
    env = dict(os.environ, REPRO_KERNELS_DISABLE="1")
    proc = bench("wing22k-cold", 0, env=env)
    assert proc.returncode == 3
    assert '"correct"' not in proc.stdout


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "wing22k-cold",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
