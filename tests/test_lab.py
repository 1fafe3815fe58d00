import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from layerfmm import (
    Box,
    ExperimentConfig,
    LayeredMedium,
    fibonacci_sphere,
    generate_charges,
    run_experiment,
    run_property_suite,
)
from layerfmm.cli import main
from layerfmm.errors import BoxCrossesInterface
from layerfmm.lab import fit_decay_rate


def test_generate_charges_deterministic():
    box = Box([0.0, 0.0, 0.0], 1.0)
    a = generate_charges(0, 1, box)
    b = generate_charges(0, 1, box)
    np.testing.assert_array_equal(a.positions, b.positions)
    np.testing.assert_array_equal(a.q, b.q)
    c = generate_charges(1, 1, box)
    assert not np.array_equal(a.positions, c.positions)


def test_generate_charges_empty_and_total():
    box = Box([0.0, 0.0, 0.0], 1.0)
    empty = generate_charges(0, 0, box)
    assert len(empty) == 0
    assert empty.total_abs_charge == 0.0
    sys_ = generate_charges(3, 20, box)
    assert sys_.total_abs_charge == pytest.approx(np.abs(sys_.q).sum())
    assert np.all(np.linalg.norm(sys_.positions, axis=1) <= 1.0)


def test_generate_charges_layer_guard():
    med = LayeredMedium([0.0], [1, 1], [1, 2])
    with pytest.raises(BoxCrossesInterface):
        generate_charges(0, 3, Box([0, 0, 0.2], 0.5, ), med, 0)


def test_fibonacci_sphere_quasi_uniform():
    pts = fibonacci_sphere(64)
    np.testing.assert_allclose(np.linalg.norm(pts, axis=1), 1.0, rtol=1e-12)
    np.testing.assert_allclose(pts.mean(axis=0), 0.0, atol=0.05)
    again = fibonacci_sphere(64)
    np.testing.assert_array_equal(pts, again)


def test_fit_decay_rate_recovers_slope():
    ps = np.arange(1, 21)
    errs = 3.0 * np.exp(-0.9 * ps)
    errs_noisy = np.where(errs > 1e-7, errs, 1e-7)  # flat noise floor
    assert fit_decay_rate(ps, errs_noisy, 1e-6) == pytest.approx(0.9, rel=1e-6)
    assert math.isnan(fit_decay_rate(ps, errs_noisy, 1.0e2))


def test_me_experiment_report():
    cfg = ExperimentConfig(
        kind="me", p_min=1, p_max=14, n_charges=20, seed=0,
        a_s=1.0, eval_radius=4.0, n_targets=32,
    )
    report = run_experiment(cfg)
    assert report.passed
    assert all(r >= 1.0 for r in report.ratios)
    assert report.rate_fit == pytest.approx(math.log(4.0), rel=0.10)
    assert report.metadata["seed"] == 0


def test_report_byte_identical():
    cfg = ExperimentConfig(kind="m2l", p_min=1, p_max=8, n_charges=10, seed=5,
                           c=2.0, n_targets=16)
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.to_csv() == r2.to_csv()
    assert r1.to_json() == r2.to_json()
    assert r1.to_csv().startswith("# schema=1\np,max_error,bound,ratio")


def test_l2l_experiment_exactness():
    cfg = ExperimentConfig(kind="l2l", p_min=2, p_max=8, n_charges=8, seed=2,
                           a_t=1.0)
    report = run_experiment(cfg)
    assert report.passed


def test_degenerate_zero_field_flag():
    """Homogeneous-contrast medium: reaction errors sit at the quadrature
    floor and the report is flagged degenerate but passing."""
    med = LayeredMedium([0.0, -1.0], [2, 2, 2], [5, 5, 5])
    cfg = ExperimentConfig(
        kind="reaction_me", medium=med, component=(1, 1, 1, 1),
        p_min=1, p_max=5, n_charges=4, seed=0,
        a_s=0.25, source_center=(0, 0, -0.5),
        target_center=(0.0, 0.0, -0.2), target_spread=0.02,
        quad_tol=1e-11, n_targets=8,
    )
    report = run_experiment(cfg)
    assert report.degenerate
    assert report.passed
    assert report.metadata["degenerate"] == "zero field"
    assert report.metadata["M_sigma"] == 0.0


def test_property_suite_selection():
    out = run_property_suite("addition_theorems")
    assert set(out) == {"addition_theorems"}
    assert out["addition_theorems"]["passed"]
    with pytest.raises(ValueError):
        run_property_suite("bogus")


def test_config_validation():
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="m2l", c=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="reaction_me")  # medium/component missing


def test_config_from_json(tmp_path, two_layer):
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps({
        "kind": "reaction_me",
        "medium": two_layer.to_dict(),
        "component": [1, 1, 0, 0],
        "p_min": 1, "p_max": 6, "n_charges": 4, "seed": 1,
        "a_s": 0.3, "source_center": [0, 0, 0.5],
        "target_center": [0.3, 0.2, 0.8], "target_spread": 0.05,
        "quad_tol": 1e-10, "n_targets": 8,
    }))
    cfg = ExperimentConfig.from_json(cfg_path)
    assert cfg.medium == two_layer
    assert cfg.component == (1, 1, 0, 0)
    report = run_experiment(cfg)
    assert report.passed


def test_cli_density_csv(tmp_path, two_layer):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(two_layer.to_dict()))
    runner = CliRunner()
    res = runner.invoke(main, [
        "density", "--medium", str(mpath), "--ell", "0", "--ellprime", "0",
        "--k-grid", "0:10:5",
    ])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0] == "k,re_sigma11,im_sigma11"
    assert len(lines) == 6
    first = [float(v) for v in lines[1].split(",")]
    assert first[1] == pytest.approx((1 - 4) / (1 + 4), abs=1e-12)


def test_cli_green_matches_library(tmp_path, two_layer):
    from layerfmm import eval_reaction_green

    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(two_layer.to_dict()))
    runner = CliRunner()
    res = runner.invoke(main, [
        "green", "--medium", str(mpath), "--component", "11",
        "--source", "0.0,0.0,0.5", "--target", "0.3,0.2,1.0",
        "--tol", "1e-10",
    ])
    assert res.exit_code == 0, res.output
    value = float(res.output.split("=")[1].split()[0])
    lib = eval_reaction_green(
        two_layer, 1, 1, 0, 0, np.array([0.3, 0.2, 1.0]),
        np.array([0.0, 0.0, 0.5]), 1e-10,
    )
    assert value == pytest.approx(lib, rel=1e-9)
    for key in ("panels", "gl_calls", "evals"):
        assert f"{key} = " in res.output


def test_cli_me_free_space(tmp_path):
    charges = {"charges": [[1.0, 0.1, 0.0, 0.05], [-0.5, -0.1, 0.05, 0.0]]}
    targets = {"targets": [[2.0, 0.0, 0.0], [0.0, 2.5, 0.5]]}
    cpath = tmp_path / "charges.json"
    tpath = tmp_path / "targets.json"
    cpath.write_text(json.dumps(charges))
    tpath.write_text(json.dumps(targets))
    runner = CliRunner()
    res = runner.invoke(main, [
        "me", "--charges", str(cpath), "--targets", str(tpath),
        "--component", "free", "--center", "0,0,0", "--p", "10",
    ])
    assert res.exit_code == 0, res.output
    lines = res.output.strip().splitlines()
    assert lines[0] == "x,y,z,expansion,oracle,abs_error,bound"
    for line in lines[1:]:
        vals = [float(v) for v in line.split(",")]
        assert vals[5] <= vals[6]  # |error| <= bound


def test_cli_me_reaction(tmp_path, two_layer):
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(two_layer.to_dict()))
    charges = {"charges": [[1.0, 0.05, -0.02, 0.45], [0.5, -0.04, 0.03, 0.55]]}
    targets = {"targets": [[0.4, 0.3, 1.2]]}
    cpath = tmp_path / "charges.json"
    tpath = tmp_path / "targets.json"
    cpath.write_text(json.dumps(charges))
    tpath.write_text(json.dumps(targets))
    runner = CliRunner()
    res = runner.invoke(main, [
        "me", "--medium", str(mpath), "--charges", str(cpath),
        "--targets", str(tpath), "--component", "11",
        "--center", "0,0,0.5", "--p", "10",
    ])
    assert res.exit_code == 0, res.output
    row = [float(v) for v in res.output.strip().splitlines()[1].split(",")]
    assert row[5] <= row[6]
    assert row[5] < 1e-8


def test_cli_lab_run_and_exit_code(tmp_path):
    cfg = {
        "kind": "me", "p_min": 1, "p_max": 8, "n_charges": 8, "seed": 0,
        "a_s": 1.0, "eval_radius": 3.0, "n_targets": 16,
    }
    cfg_path = tmp_path / "exp.json"
    cfg_path.write_text(json.dumps(cfg))
    out_csv = tmp_path / "report.csv"
    out_json = tmp_path / "report.json"
    runner = CliRunner()
    res = runner.invoke(main, [
        "lab", "run", "--config", str(cfg_path),
        "--out", str(out_csv), "--json", str(out_json),
    ])
    assert res.exit_code == 0, res.output
    text = out_csv.read_text()
    assert text.startswith("# schema=1")
    payload = json.loads(out_json.read_text())
    assert payload["passed"] is True
    assert payload["rows"][0]["ratio"] >= 1.0


def test_cli_lab_suite(tmp_path):
    runner = CliRunner()
    res = runner.invoke(main, ["lab", "suite", "--kind", "addition_theorems"])
    assert res.exit_code == 0, res.output
    payload = json.loads(res.output)
    assert payload["addition_theorems"]["passed"]
