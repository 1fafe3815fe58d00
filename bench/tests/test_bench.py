"""Tests of the benchmark itself.

    PYTHONPATH=src python -m pytest bench/tests

They check that op lists are a function of the seed, that two traced
passes count the same work, that a reduced pass of every workload has no
failed op, that the reference agrees with its closed forms and with the
package's harmonic convention, and that BENCHMARK.json names what run.py
and tracing.py report.
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import reference  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

from layerfmm import expansions as xp  # noqa: E402

#: op counts of the reduced passes; reaction_ops index 0 gets the full check
REDUCED = {"certify": 2, "reaction_ops": 2, "free_space": 4}


def _canon(value):
    """A comparable form of an op: arrays by value, charge systems by their
    charges, configs by repr."""
    if isinstance(value, dict):
        return tuple(sorted((k, _canon(v)) for k, v in value.items()))
    if isinstance(value, (tuple, list)):
        return tuple(_canon(v) for v in value)
    if isinstance(value, np.ndarray):
        return tuple(value.ravel().tolist())
    if isinstance(value, xp.ChargeSystem):
        return _canon(value.q), _canon(value.positions)
    return repr(value)


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_op_lists_are_a_function_of_the_seed(name):
    w = workloads.WORKLOADS[name]
    assert _canon(w.ops(5)) == _canon(w.ops(5))
    assert _canon(w.ops(5)) != _canon(w.ops(6))
    assert len(w.ops(5)) == w.ops_per_round


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_traced_counts_repeat(name):
    w = workloads.WORKLOADS[name]
    ops = w.ops(3, REDUCED[name])
    w.warm(ops)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer()
        tracer.install()
        try:
            *_, snapshots = run.measure(w, ops, 0.0, tracer)
        finally:
            tracer.uninstall()
        counts.append(snapshots[0][:2])
    assert counts[0] == counts[1]
    assert sum(counts[0][0].values()) > 0


@pytest.mark.parametrize("name", run.WORKLOADS)
def test_reduced_pass_has_no_failed_op(name):
    w = workloads.WORKLOADS[name]
    ops = w.ops(4, REDUCED[name])
    w.warm(ops)
    first, failed, op_times, round_times, _ = run.measure(w, ops, 0.0)
    assert len(round_times) == 1 and len(op_times[0]) == len(ops)
    assert run.check(w, ops, first, failed, reference)
    assert failed == set()


def test_tracer_restores_the_package():
    from layerfmm import sommerfeld

    original = (sommerfeld.radial_table, xp.radial_table, xp.m2m)
    tracer = tracing.Tracer()
    tracer.install()
    assert xp.radial_table is not original[1]
    assert xp.radial_table is sommerfeld.radial_table
    tracer.uninstall()
    assert (sommerfeld.radial_table, xp.radial_table, xp.m2m) == original


def test_reference_matches_closed_forms():
    assert reference.validate() < run.REFERENCE_TOL


def test_reference_local_evaluation_matches_package_convention():
    rng = np.random.default_rng(0)
    direc = rng.normal(size=(6, 3))
    sources = 3.0 * direc / np.linalg.norm(direc, axis=1, keepdims=True)
    system = xp.ChargeSystem.free_space(rng.uniform(-1, 1, 6), sources)
    loc = xp.le_from_charges(system, np.zeros(3), 8, radius=1.0)
    points = 0.5 * rng.uniform(-1, 1, size=(5, 3))
    got = reference.eval_local(loc.coeff, loc.center, points)
    want = [xp.eval_expansion(loc, x) for x in points]
    np.testing.assert_allclose(got.real, want, rtol=1e-12, atol=1e-14)


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "setup_s", "wall_s", "op_p50_ms", "peak_rss_mb"
    }
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        tuple(m) for m in tracing.METRICS
    ]
