import json
import math
import re

import numpy as np
import pytest
from click.testing import CliRunner

from layerfmm import (
    Box,
    ExperimentConfig,
    LayeredMedium,
    density_bound,
    fibonacci_sphere,
    generate_charges,
    polarization_source,
    run_experiment,
    run_property_suite,
)
from layerfmm import expansions as xp
from layerfmm import lab, sommerfeld
from layerfmm.cli import main
from layerfmm.errors import BoxCrossesInterface, DomainError
from layerfmm.lab import QUAD_TOL_FLOOR, fit_decay_rate, me_terms


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


SLAB = LayeredMedium([0.0, -1.0], [1.0, 1.0, 1.0], [1.0, 3.0, 8.0])
#: one small config per convergence kind; reaction geometry as in the
#: acceptance criteria 7 and 8
SMALL = {
    "me": dict(p_max=6, n_charges=6, seed=1, eval_radius=3.0, n_targets=16),
    "le": dict(p_max=6, n_charges=6, seed=1, eval_radius=2.5, n_targets=16),
    "m2m": dict(p_max=6, n_charges=6, seed=2, eval_radius=5.0, n_targets=16),
    "l2l": dict(p_max=6, n_charges=6, seed=3),
    "m2l": dict(p_max=8, n_charges=10, seed=5, c=2.0, n_targets=16),
    "reaction_me": dict(
        medium=SLAB, component=(1, 1, 1, 1), p_max=4, n_charges=3, seed=11,
        a_s=0.3, source_center=(0.0, 0.0, -0.5),
        target_center=(0.0, 0.0, -0.25), target_spread=0.05, quad_tol=1e-10,
        n_targets=4,
    ),
    "reaction_le": dict(
        medium=SLAB, component=(1, 1, 1, 1), p_max=4, n_charges=3, seed=13,
        a_s=0.25, a_t=0.35, source_center=(0.0, 0.0, -0.5),
        target_center=(0.9, 0.6, -0.45), quad_tol=1e-10, n_targets=4,
    ),
    "reaction_m2l": dict(
        medium=SLAB, component=(1, 1, 1, 1), p_max=4, n_charges=3, seed=17,
        a_s=0.3, a_t=0.15, c=3.0, source_center=(0.0, 0.0, -0.5),
        target_center=(0.3375, 0.0, -0.83), quad_tol=1e-10, n_targets=4,
    ),
}


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_report_byte_identical(kind):
    cfg = ExperimentConfig(kind=kind, p_min=1, **SMALL[kind])
    r1 = run_experiment(cfg)
    r2 = run_experiment(cfg)
    assert r1.to_csv() == r2.to_csv()
    assert r1.to_json() == r2.to_json()
    assert r1.to_csv().startswith("# schema=1\np,max_error,bound,ratio")


def _charges_q(cfg):
    """The charges' q of a config, drawn here as each kind documents its
    draw: le from one generator (directions, radii, then q), the others
    by generate_charges in the ball of radius a_s at source_center."""
    if cfg.kind == "le":
        rng = np.random.default_rng(cfg.seed)
        rng.normal(size=(cfg.n_charges, 3))
        rng.uniform(1.0, 1.5, cfg.n_charges)
        return rng.uniform(-1.0, 1.0, cfg.n_charges)
    box = Box(np.asarray(cfg.source_center), cfg.a_s)
    return generate_charges(cfg.seed, cfg.n_charges, box).q


def _paper_bound(cfg):
    """(bounds, rate) of a geometric kind from the paper's estimate Q M /
    D (inner/outer)^(p+1), recomputed from the config alone:

      me            D = 4pi (r - a_s),        inner a_s,   outer r = eval_radius
      le            D = 4pi (a_t - r_t),      inner r_t = a_t / 2, outer a_t
      m2m           D = 4pi (r - a_eff),      inner a_eff = 3 a_s / 2, outer r
      m2l           D = 4pi (c - 1) a_t,      inner a_s + a_t, outer a_s + c a_t
      reaction_me   D = 4pi (r_min - a_s),    inner a_s,   outer r_min
      reaction_le   D = 4pi (a_t - r_t),      inner r_t = 0.6 a_t, outer a_t
      reaction_m2l  D = 2pi (c_eff - 1) a_t,  inner a_s + a_t, outer a_s + c_eff a_t

    with M = M_sigma of the component (1 in free space), r_min the least
    distance of the targets (target_spread about target_center) from the
    polarization center, and c_eff = (|target_center - polarization
    center| - a_s) / a_t."""
    q_abs, msig = float(np.abs(_charges_q(cfg)).sum()), 1.0
    if cfg.kind.startswith("reaction"):
        a, b, ell, ellprime = cfg.component
        msig = density_bound(cfg.medium, ell, ellprime, a, b)
        pol = polarization_source(cfg.medium, *cfg.component, np.asarray(cfg.source_center))
        far = float(np.linalg.norm(np.asarray(cfg.target_center) - pol))
    four_pi = 4.0 * math.pi
    if cfg.kind == "me":
        denom, inner, outer = four_pi * (cfg.eval_radius - cfg.a_s), cfg.a_s, cfg.eval_radius
    elif cfg.kind == "le":
        denom, inner, outer = four_pi * 0.5 * cfg.a_t, 0.5 * cfg.a_t, cfg.a_t
    elif cfg.kind == "m2m":
        a_eff = 1.5 * cfg.a_s
        denom, inner, outer = four_pi * (cfg.eval_radius - a_eff), a_eff, cfg.eval_radius
    elif cfg.kind == "m2l":
        denom = four_pi * (cfg.c - 1.0) * cfg.a_t
        inner, outer = cfg.a_s + cfg.a_t, cfg.a_s + cfg.c * cfg.a_t
    elif cfg.kind == "reaction_me":
        targets = np.asarray(cfg.target_center) + cfg.target_spread * fibonacci_sphere(
            cfg.n_targets)
        r_min = float(np.linalg.norm(targets - pol, axis=1).min())
        denom, inner, outer = four_pi * (r_min - cfg.a_s), cfg.a_s, r_min
    elif cfg.kind == "reaction_le":
        denom, inner, outer = four_pi * 0.4 * cfg.a_t, 0.6 * cfg.a_t, cfg.a_t
    else:
        c_eff = (far - cfg.a_s) / cfg.a_t
        denom = 2.0 * math.pi * (c_eff - 1.0) * cfg.a_t
        inner, outer = cfg.a_s + cfg.a_t, cfg.a_s + c_eff * cfg.a_t
    ps = range(cfg.p_min, cfg.p_max + 1)
    return [q_abs * msig / denom * (inner / outer) ** (p + 1) for p in ps], math.log(
        outer / inner)


@pytest.mark.parametrize("kind", sorted(set(SMALL) - {"l2l"}))
def test_bounds_match_the_paper_formula(kind):
    """Each geometric kind's bounds and theoretical rate, recomputed from
    the config by the paper's formula without the lab's bound code, match
    the report's to 1e-12 relative; a bound off by any factor fails."""
    cfg = ExperimentConfig(kind=kind, p_min=1, **SMALL[kind])
    report = run_experiment(cfg)
    bounds, rate = _paper_bound(cfg)
    assert report.bounds == pytest.approx(bounds, rel=1e-12, abs=0.0)
    assert report.rate_theory == pytest.approx(rate, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_floors_and_verdicts_match_their_formulas(kind):
    """eps_floor and noise_floor, recomputed from the report's quad_tol, Q
    and oracle_scale: for a reaction kind max(100 quad_tol, 64 eps) times
    the oracle scale and 100 quad_tol max(Q, 1), in free space 64 eps
    times the oracle scale and 1e4 eps max(Q, 1).  Each row passes where
    its error is within its bound (1 + 1e-12) plus eps_floor."""
    report = run_experiment(ExperimentConfig(kind=kind, p_min=1, **SMALL[kind]))
    meta, eps = report.metadata, float(np.finfo(float).eps)
    scale, q_big = meta["oracle_scale"], max(meta["Q"], 1.0)
    if kind.startswith("reaction"):
        eps_floor = max(100.0 * meta["quad_tol"], 64.0 * eps) * scale
        noise_floor = 100.0 * meta["quad_tol"] * q_big
    else:
        eps_floor, noise_floor = 64.0 * eps * scale, 1e4 * eps * q_big
    assert meta["eps_floor"] == pytest.approx(eps_floor, rel=1e-12, abs=0.0)
    assert meta["noise_floor"] == pytest.approx(noise_floor, rel=1e-12, abs=0.0)
    assert report.passed_rows == [e <= b * (1 + 1e-12) + eps_floor
                                  for e, b in zip(report.errors, report.bounds)]


def test_reaction_m2l_does_not_read_c():
    """Only m2l reads c: a reaction_m2l config with c = 0.5 runs, and its
    report is the c = 3 report, whose separation comes from target_center;
    an m2l config with c <= 1 is still a DomainError."""
    base = dict(SMALL["reaction_m2l"], p_min=1)
    low = run_experiment(ExperimentConfig(kind="reaction_m2l", **dict(base, c=0.5)))
    high = run_experiment(ExperimentConfig(kind="reaction_m2l", **base))
    assert low.to_json() == high.to_json() and low.metadata["c_eff"] > 1.0
    with pytest.raises(DomainError, match="c > 1"):
        ExperimentConfig(kind="m2l", c=1.0)


#: four layers, two finite: the lab's reaction oracle there is the
#: Sommerfeld engine (sommerfeld._reaction_green); layer 1 is the slab's
#: layer 1
STACK = LayeredMedium([0.0, -1.0, -2.0], [1.0] * 4, [1.0, 4.0, 2.0, 8.0])


@pytest.mark.parametrize("kind", ["reaction_me", "reaction_le", "reaction_m2l"])
def test_reaction_reports_carry_quadrature_counters(kind):
    """Each reaction report carries the counters of its expansion's
    tables and of its oracle's one batched call: counts, no timings.  Over
    two finite layers the oracle is the engine and reports its quadrature;
    over the slab's one finite layer it is the image series and reports
    its term count and tail bound, within the oracle's tolerance, and its
    expansion is an image sum, whose tail is within a tenth of every
    table tolerance."""
    report = run_experiment(ExperimentConfig(kind=kind, p_min=1,
                                             **dict(SMALL[kind], medium=STACK)))
    keys = {"panels", "gl_calls", "nodes", "evals", "bisections", "certified",
            "tol_use"}
    for name in ("quadrature", "oracle_quadrature"):
        stats = report.metadata[name]
        assert keys <= set(stats) and stats["panels"] > 0
        assert stats["nodes"] == 32 * stats["gl_calls"]
        assert 0 < stats["certified"] < stats["panels"]
        assert 0.0 < stats["tol_use"] < 1.0
    # one grid for all (target, charge) pairs: about a table's panels,
    # not n_targets * n_charges of them
    assert report.metadata["oracle_quadrature"]["panels"] < 64
    assert "oracle_images" not in report.metadata

    assert "images" not in report.metadata

    cfg = ExperimentConfig(kind=kind, p_min=1, **SMALL[kind])
    slab = run_experiment(cfg).metadata
    assert "oracle_quadrature" not in slab and "quadrature" not in slab
    assert set(slab["images"]) == {"terms", "tail"} and slab["images"]["terms"] > 0
    assert 0.0 <= slab["images"]["tail"] <= 0.1
    assert set(slab["oracle_images"]) == {"terms", "tail"}
    assert slab["oracle_images"]["terms"] > 0
    assert 0.0 <= slab["oracle_images"]["tail"] <= min(1e-10, cfg.quad_tol)


#: criterion 7's reaction ME on the slab, component (1, 1, 1, 1)
CRITERION_7 = dict(
    kind="reaction_me", medium=SLAB, component=(1, 1, 1, 1), p_min=1, p_max=15,
    n_charges=10, seed=11, a_s=0.3, source_center=(0.0, 0.0, -0.5),
    target_center=(0.0, 0.0, -0.25), target_spread=0.05, quad_tol=1e-12,
    n_targets=32,
)


def test_reaction_me_fails_when_the_operators_coefficients_are_off(monkeypatch):
    """Seeded defect: c_1 and c_2 of the operators' image series
    (sommerfeld._image_series) scaled by 1 + 1e-6 fail criterion 7's
    reaction ME report on the slab, which passes as it is (c_1 of its
    component vanishes, as a = 1 puts its images at even depths, so c_2
    carries the defect).  The oracle reads its own real-axis
    coefficients, so it does not move with the defect; were it to read
    the operators', both would move together and the report would pass."""
    assert run_experiment(ExperimentConfig(**CRITERION_7)).passed
    series = sommerfeld._image_series

    def off(*args):
        (c0, c1, c2), *rest = series(*args)
        return ((c0, c1 * (1.0 + 1e-6), c2 * (1.0 + 1e-6)), *rest)
    monkeypatch.setattr(sommerfeld, "_image_series", off)
    report = run_experiment(ExperimentConfig(**CRITERION_7))
    assert "images" in report.metadata and "oracle_images" in report.metadata
    assert not report.passed and not all(report.passed_rows)


@pytest.mark.parametrize("kind", sorted(SMALL))
def test_each_kind_calls_the_oracle_once(kind, monkeypatch):
    """Every geometric kind is checked against one lab._oracle call per
    run; l2l, which compares two expansions, makes none."""
    calls = []
    real = lab._oracle

    def spy(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(lab, "_oracle", spy)
    run_experiment(ExperimentConfig(kind=kind, p_min=1, **SMALL[kind]))
    assert len(calls) == (kind != "l2l")


#: configs of criteria 4 (me at r_s = 8), 5 (m2m) and 7 (reaction_me)
ORACLE_DEFECT_CASES = {
    "me": dict(kind="me", p_min=1, p_max=20, n_charges=20, seed=0, a_s=1.0,
               eval_radius=8.0),
    "m2m": dict(kind="m2m", p_min=1, p_max=16, n_charges=20, seed=2, a_s=1.0,
                eval_radius=5.0),
    "reaction_me": CRITERION_7,
}


@pytest.mark.parametrize("name", sorted(ORACLE_DEFECT_CASES))
def test_an_oracle_off_by_one_part_in_a_million_fails(name, monkeypatch):
    """Seeded defect: the oracle's values times 1 + 1e-6 fail these
    criteria's reports, which pass as they are; their bounds at p_max
    sit far below 1e-6 of the oracle's scale."""
    cfg = ExperimentConfig(**ORACLE_DEFECT_CASES[name])
    assert run_experiment(cfg).passed
    real = lab._oracle

    def off(*args):
        values, msig, stats = real(*args)
        return values * (1.0 + 1e-6), msig, stats

    monkeypatch.setattr(lab, "_oracle", off)
    report = run_experiment(cfg)
    assert not report.passed and not all(report.passed_rows)


def test_reaction_oracle_past_its_term_budget_runs_the_engine(monkeypatch):
    """Over a slab of reflection product q = 0.99998 (D = 0.041, b = 2e5 in
    the slab) the image series would need about 3.6 million terms: past
    IMAGE_GREEN_TERMS _image_green declines before it sums, and the lab's
    oracle is the engine, sommerfeld._reaction_green, with its quadrature
    counters.  Its values agree with the whole image sum (the budget
    lifted) within the sum of both returned errors."""
    med = LayeredMedium([0.0, -0.041], [1.0] * 3, [1.0, 2e5, 1.0])
    comp = (1, 1, 1, 1)
    system = generate_charges(3, 3, Box([0.0, 0.0, -0.03], 0.005), med, 1)
    targets = np.array([[0.1, 0.0, -0.01], [0.0, 0.2, -0.02], [-0.05, 0.05, -0.015]])
    pairs = (med, *comp, targets[:, None], system.positions[None])
    assert sommerfeld._image_green(*pairs, 1e-11) is None
    oracle, _, stats = lab._oracle(system, targets, med, comp, 1e-11)
    assert stats["panels"] > 0 and "terms" not in stats
    want, werr, _ = sommerfeld._reaction_green(*pairs, 1e-11)
    assert np.array_equal(oracle, want @ system.q)

    monkeypatch.setattr(sommerfeld, "IMAGE_GREEN_TERMS", 1 << 23)
    got, err, images = sommerfeld._image_green(*pairs, 1e-11)
    assert images["terms"] > 1 << 13
    assert np.all(np.abs(got - want) <= err + werr)


def test_l2l_experiment_checks_n_targets_points(monkeypatch):
    """The l2l report checks as many points as its n_targets records."""
    sizes = []
    real = xp.eval_expansion

    def spy(exp, r):
        sizes.append(len(r))
        return real(exp, r)

    monkeypatch.setattr(xp, "eval_expansion", spy)
    report = run_experiment(ExperimentConfig(kind="l2l", p_max=3, n_targets=12))
    assert report.metadata["n_targets"] == 12
    assert sizes and set(sizes) == {12}


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


def test_config_validation(tmp_path):
    with pytest.raises(ValueError):
        ExperimentConfig(kind="nope")
    with pytest.raises(ValueError):
        ExperimentConfig(kind="m2l", c=0.5)
    with pytest.raises(ValueError):
        ExperimentConfig(kind="reaction_me")  # medium/component missing
    with pytest.raises(ValueError):
        ExperimentConfig(kind="me", p_min=5, p_max=3)  # no rows to check
    path = tmp_path / "exp.json"
    path.write_text(json.dumps({"kind": "me", "p_maxx": 3}))
    with pytest.raises(ValueError, match="unknown keys"):
        ExperimentConfig.from_json(path)


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


def test_cli_green_matches_library(tmp_path, three_layer):
    """Above the slab sigma^11 has a limit and a remainder, so the counters
    cover the remainder's panels."""
    from layerfmm import eval_reaction_green

    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(three_layer.to_dict()))
    runner = CliRunner()
    res = runner.invoke(main, [
        "green", "--medium", str(mpath), "--component", "11",
        "--source", "0.0,0.0,0.5", "--target", "0.3,0.2,1.0",
        "--tol", "1e-10",
    ])
    assert res.exit_code == 0, res.output
    value = float(res.output.split("=")[1].split()[0])
    lib = eval_reaction_green(
        three_layer, 1, 1, 0, 0, np.array([0.3, 0.2, 1.0]),
        np.array([0.0, 0.0, 0.5]), 1e-10,
    )
    assert value == pytest.approx(lib, rel=1e-9)
    for key in ("panels", "gl_calls", "nodes", "evals", "certified", "tol_use"):
        assert f"{key} = " in res.output
    fields = dict(re.findall(r"(\w+) = (\S+)", res.output))
    assert int(fields["nodes"]) == 32 * int(fields["gl_calls"])
    assert 0 < int(fields["certified"]) < int(fields["panels"])
    assert 0.0 < float(fields["tol_use"]) < 1.0


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


def _me_stats(tmp_path, medium, tol):
    """stderr lines of `me --stats` above the medium's top interface, by
    their name, as {name: {counter: text}}, after checking that --stats
    leaves the CSV on stdout as it was."""
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(medium.to_dict()))
    cpath = tmp_path / "charges.json"
    tpath = tmp_path / "targets.json"
    cpath.write_text(json.dumps(
        {"charges": [[1.0, 0.05, -0.02, 0.45], [0.5, -0.04, 0.03, 0.55]]}
    ))
    tpath.write_text(json.dumps({"targets": [[0.4, 0.3, 1.2], [-0.5, 0.2, 1.4]]}))
    args = [
        "me", "--medium", str(mpath), "--charges", str(cpath),
        "--targets", str(tpath), "--component", "11", "--center", "0,0,0.5",
        "--p", "8", "--tol", str(tol),
    ]
    plain = CliRunner().invoke(main, args)
    res = CliRunner().invoke(main, args + ["--stats"])
    assert res.exit_code == 0, res.output
    assert res.stdout == plain.stdout
    lines = res.stderr.strip().splitlines()
    return {line.split(":")[0]: dict(re.findall(r"(\w+) = (\S+)", line))
            for line in lines}


def test_cli_me_stats(tmp_path, three_layer):
    """--stats prints the expansion's quadrature counters and the oracle's
    stats to stderr and leaves the CSV on stdout as it was.  Above the
    media the counters cover the remainder sigma - sigma_inf.  Over two
    finite layers the expansion and the oracle run the engine, with its
    quadrature counters; over the slab both are image sums, with their
    term counts and tail bounds (a tenth of the table tolerances, within
    the oracle's tolerance).  Each line is named by the path that ran."""
    lines = _me_stats(tmp_path, STACK, 1e-11)
    assert list(lines) == ["quadrature", "oracle_quadrature"]
    for counts in lines.values():
        assert int(counts["panels"]) > 0 and float(counts["tol_use"]) < 1.0
        assert int(counts["nodes"]) == 32 * int(counts["gl_calls"])
        assert 0 < int(counts["certified"]) < int(counts["panels"])

    lines = _me_stats(tmp_path, three_layer, 1e-12)
    assert list(lines) == ["images", "oracle_images"]
    for counts in lines.values():
        assert set(counts) == {"terms", "tail"} and int(counts["terms"]) > 0
    assert 0.0 <= float(lines["images"]["tail"]) <= 0.1
    assert 0.0 <= float(lines["oracle_images"]["tail"]) <= 1e-12


def test_cli_me_rejects_targets_in_two_layers(tmp_path, two_layer):
    """u^11 from layer 0 has no value in layer 1: a target there is a usage
    error, not a row."""
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(two_layer.to_dict()))
    charges = {"charges": [[1.0, 0.05, -0.02, 0.45], [0.5, -0.04, 0.03, 0.55]]}
    targets = {"targets": [[0.4, 0.3, 1.2], [0.4, 0.3, -0.2]]}
    cpath = tmp_path / "charges.json"
    tpath = tmp_path / "targets.json"
    cpath.write_text(json.dumps(charges))
    tpath.write_text(json.dumps(targets))
    res = CliRunner().invoke(main, [
        "me", "--medium", str(mpath), "--charges", str(cpath),
        "--targets", str(tpath), "--component", "11",
        "--center", "0,0,0.5", "--p", "10",
    ])
    assert res.exit_code == 2, res.output
    assert "every target must lie in layer 0" in res.output


def test_cli_me_rejects_charges_in_two_layers(tmp_path, two_layer):
    """Reaction charges must share one source layer: a charge below the
    interface is a usage error, not a traceback."""
    mpath = tmp_path / "m.json"
    mpath.write_text(json.dumps(two_layer.to_dict()))
    charges = {"charges": [[1.0, 0.05, -0.02, 0.45], [0.5, -0.04, 0.03, -0.05]]}
    targets = {"targets": [[0.4, 0.3, 1.2]]}
    cpath = tmp_path / "charges.json"
    tpath = tmp_path / "targets.json"
    cpath.write_text(json.dumps(charges))
    tpath.write_text(json.dumps(targets))
    res = CliRunner().invoke(main, [
        "me", "--medium", str(mpath), "--charges", str(cpath),
        "--targets", str(tpath), "--component", "11",
        "--center", "0,0,0.5", "--p", "10",
    ])
    assert res.exit_code == 2, res.output
    assert "every charge must lie in layer 0" in res.output


def test_cli_me_rejects_target_inside_the_sphere(tmp_path):
    """A target within the expansion radius has no convergent expansion
    and no positive bound: a usage error naming the target."""
    charges = {"charges": [[1.0, 0.1, 0.0, 0.05], [-0.5, -0.1, 0.05, 0.0]]}
    targets = {"targets": [[2.0, 0.0, 0.0], [0.05, 0.0, 0.0]]}
    cpath = tmp_path / "charges.json"
    tpath = tmp_path / "targets.json"
    cpath.write_text(json.dumps(charges))
    tpath.write_text(json.dumps(targets))
    res = CliRunner().invoke(main, [
        "me", "--charges", str(cpath), "--targets", str(tpath),
        "--component", "free", "--center", "0,0,0", "--p", "10",
    ])
    assert res.exit_code == 2, res.output
    assert "target 0.05,0,0 lies within radius" in res.output


@pytest.mark.parametrize("order", ["-1", "61"])
def test_cli_me_rejects_order_out_of_range(tmp_path, order):
    """--p outside 0..60 is a usage error, not a traceback from the
    constant tables."""
    cpath = tmp_path / "charges.json"
    tpath = tmp_path / "targets.json"
    cpath.write_text(json.dumps({"charges": [[1.0, 0.1, 0.0, 0.05]]}))
    tpath.write_text(json.dumps({"targets": [[2.0, 0.0, 0.0]]}))
    res = CliRunner().invoke(main, [
        "me", "--charges", str(cpath), "--targets", str(tpath),
        "--component", "free", "--center", "0,0,0", "--p", order,
    ])
    assert res.exit_code == 2, res.output
    assert "Invalid value for '--p'" in res.output
    assert "0<=x<=60" in res.output


def _write_inputs(tmp_path, medium=None, charges=None, targets=None):
    """Paths of the medium, charges and targets files of a `me` run; by
    default two charges above the interface of a two-layer medium and one
    target above them."""
    files = {
        "m.json": medium or LayeredMedium([0.0], [1.0, 1.0], [1.0, 4.0]).to_dict(),
        "charges.json": {"charges": [[1.0, 0.05, -0.02, 0.45],
                                     [0.5, -0.04, 0.03, 0.55]]
                         if charges is None else charges},
        "targets.json": {"targets": [[0.4, 0.3, 1.2]] if targets is None else targets},
    }
    for name, data in files.items():
        (tmp_path / name).write_text(json.dumps(data))
    return [str(tmp_path / name) for name in files]


#: `me` on the files of _write_inputs: {m}, {c} and {t} stand for their paths
_ME = ["me", "--medium", "{m}", "--charges", "{c}", "--targets", "{t}",
       "--component", "11", "--center", "0,0,0.5", "--p", "6"]


def _invoke(args, paths):
    m, c, t = paths
    return CliRunner().invoke(main, [a.format(m=m, c=c, t=t) for a in args])


@pytest.mark.parametrize("args, charges, targets, message", [
    pytest.param(["green", "--medium", "{m}", "--component", "22", "--source",
                  "0,0,0.5", "--target", "0.3,0.2,1.0"], None, None,
                 "component (2,2) vanishes", id="green_absent_component"),
    pytest.param(["green", "--medium", "{m}", "--component", "free", "--source",
                  "0,0,0.5", "--target", "0.3,0.2,1.0"], None, None,
                 "'free' is not one of", id="green_free_component"),
    pytest.param(["density", "--medium", "{m}", "--ell", "5", "--ellprime", "0"],
                 None, None, "layer index 5 outside 0..1", id="density_bad_layer"),
    pytest.param(_ME, None, [[0.4, 0.3, 1.2], [0.1, 0.2, 0.0]],
                 "z=0.0 coincides with interface", id="me_target_on_interface"),
    pytest.param(_ME, None, [], "targets: need a nonempty", id="me_no_targets"),
    pytest.param(_ME, None, [[0.4, 0.3]], "targets: need a nonempty list of 3-number",
                 id="me_two_column_targets"),
    pytest.param(_ME, [], None, "charges: need a nonempty", id="me_no_charges"),
    # the polarization images of these charges reach 0.8 from the
    # polarization center 0,0,-0.5
    pytest.param(_ME, [[1.0, 0.8, 0.0, 0.5], [0.5, -0.04, 0.03, 0.55]],
                 [[0.0, 0.0, 0.1]], "target 0,0,0.1 lies within radius 0.8",
                 id="me_target_inside_reaction_sphere"),
])
def test_cli_bad_input_is_a_usage_error(tmp_path, args, charges, targets, message):
    """Input the package rejects with a typed error (absent component,
    layer index out of range, point on an interface, target inside the
    sphere), a component `green` has no value for, and empty or wrongly
    shaped charge and target files exit 2 with a message, not a
    traceback."""
    res = _invoke(args, _write_inputs(tmp_path, charges=charges, targets=targets))
    assert res.exit_code == 2, res.output
    assert message in res.output


#: a medium whose interfaces increase, and one without b
_RISING = {"interfaces": [0.0, 1.0], "a": [1.0] * 3, "b": [1.0] * 3}
_NO_B = {"interfaces": [0.0], "a": [1.0, 1.0]}
_DENSITY = ["density", "--medium", "{x}", "--ell", "0", "--ellprime", "0"]


@pytest.mark.parametrize("args, data, message", [
    pytest.param(["lab", "run", "--config", "{x}"], {"kind": "me", "p_maxx": 3},
                 "unknown keys ['p_maxx']", id="lab_run_unknown_key"),
    pytest.param(["lab", "run", "--config", "{x}"], {"kind": "mee"},
                 "unknown experiment kind 'mee'", id="lab_run_unknown_kind"),
    pytest.param(["lab", "run", "--config", "{x}"], {"kind": "m2l", "c": 0.5},
                 "separation factor c > 1", id="lab_run_c_below_1"),
    pytest.param(["lab", "run", "--config", "{x}"], {"kind": "me", "p_max": 61},
                 "p_max=61 exceeds supported maximum 60", id="lab_run_me_p61"),
    pytest.param(["lab", "run", "--config", "{x}"], {"kind": "m2l", "p_max": 31},
                 "p_max=31 exceeds supported maximum 30 of a free-space M2L",
                 id="lab_run_m2l_p31"),
    pytest.param(["lab", "run", "--config", "{x}"], {"kind": "cagniard"},
                 "unknown experiment kind 'cagniard' (the property suites run with "
                 "`layerfmm lab suite`)", id="lab_run_suite_kind"),
    pytest.param(["lab", "run", "--config", "{x}"],
                 {"kind": "me", "p_min": 5, "p_max": 3},
                 "need 0 <= p_min <= p_max (5, 3)", id="lab_run_p_min_above_p_max"),
    pytest.param(["lab", "suite", "--kind", "nope"], None,
                 "unknown suite kind 'nope'", id="lab_suite_unknown_kind"),
    pytest.param(_DENSITY, _RISING, "interface heights must be strictly decreasing",
                 id="density_rising_interfaces"),
    pytest.param(_DENSITY, _NO_B, "a medium needs interfaces, a and b",
                 id="density_medium_without_b"),
    pytest.param(_DENSITY[:2] + ["{m}"] + _DENSITY[3:] + ["--k-grid", "0:5"], None,
                 "expected start:stop:count, got '0:5'", id="density_k_grid_0_5"),
    # the charges of _write_inputs lie above the interface, so the
    # polarization center of 0,0,-0.5 lies above it too
    pytest.param([a if a != "0,0,0.5" else "0,0,-0.5" for a in _ME], None,
                 "polarization center must satisfy z < d_l", id="me_center_below"),
    pytest.param([a if a != "0,0,0.5" else "a,b,c" for a in _ME], None,
                 "'a' is not a valid float", id="me_center_not_numbers"),
])
def test_cli_bad_input_exits_2(tmp_path, args, data, message):
    """Every bad input exits 2 with one Error line naming it, never a
    traceback: a DomainError, or an option that does not parse."""
    m, c, t = _write_inputs(tmp_path)
    x = tmp_path / "x.json"
    x.write_text(json.dumps(data))
    res = CliRunner().invoke(main, [a.format(m=m, c=c, t=t, x=x) for a in args])
    assert res.exit_code == 2, res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and message in errors[0], res.output


_SLAB = {"interfaces": [0.0, -1.0], "a": [1.0] * 3, "b": [1.0, 3.0, 8.0]}
_REACTION = {"kind": "reaction_me", "medium": _SLAB, "component": [1, 1, 1, 1],
             "source_center": [0.0, 0.0, -0.5], "target_center": [0.0, 0.0, -0.25]}


@pytest.mark.parametrize("data, message", [
    pytest.param({"kind": "me", "p_max": "3"}, "p_max must be an integer >= 0, got '3'",
                 id="p_max_string"),
    pytest.param({"kind": "me", "p_max": True}, "p_max must be an integer >= 0, got True",
                 id="p_max_bool"),
    pytest.param({"kind": "me", "n_charges": -1},
                 "n_charges must be an integer >= 0, got -1", id="n_charges_negative"),
    pytest.param({"kind": "me", "n_targets": 0},
                 "n_targets must be an integer >= 1, got 0", id="n_targets_zero"),
    pytest.param({"kind": "me", "seed": -2}, "seed must be an integer >= 0, got -2",
                 id="seed_negative"),
    pytest.param({"kind": "me", "a_s": 0}, "a_s must be a finite number > 0, got 0",
                 id="a_s_zero"),
    pytest.param({"kind": "le", "a_t": "1"}, "a_t must be a finite number > 0, got '1'",
                 id="a_t_string"),
    pytest.param({"kind": "m2l", "c": float("inf")},
                 "c must be a finite number > 0, got inf", id="c_infinite"),
    pytest.param({"kind": "me", "eval_radius": 10 ** 400},
                 "eval_radius must be a finite number > 0, got 1000", id="eval_radius_huge"),
    pytest.param({"kind": "me", "eval_radius": -4.0},
                 "eval_radius must be a finite number > 0, got -4.0",
                 id="eval_radius_negative"),
    pytest.param({"kind": "me", "quad_tol": float("nan")},
                 "quad_tol must be a finite number > 0, got nan", id="quad_tol_nan"),
    pytest.param(dict(_REACTION, target_spread=-0.1),
                 "target_spread must be a finite number >= 0, got -0.1",
                 id="target_spread_negative"),
    pytest.param({"kind": "me", "source_center": [0.0, 0.0]},
                 "source_center must be 3 finite numbers, got [0.0, 0.0]",
                 id="source_center_two_numbers"),
    pytest.param(dict(_REACTION, target_center=[0.0, "y", -0.25]),
                 "target_center must be 3 finite numbers", id="target_center_string"),
    pytest.param(dict(_REACTION, component=[1, 1, 1]),
                 "component must be 4 integers, got [1, 1, 1]",
                 id="component_three_entries"),
    pytest.param(dict(_REACTION, component=[1, 1, 1.0, 1]),
                 "component must be 4 integers", id="component_float"),
    pytest.param(dict(_REACTION, medium=dict(_SLAB, interfaces=["x"])),
                 "medium interfaces must be a list of numbers, got ['x']",
                 id="medium_interface_string"),
    pytest.param(dict(_REACTION, medium=dict(_SLAB, b=3.0)),
                 "medium b must be a list of numbers, got 3.0", id="medium_b_number"),
    pytest.param(dict(_REACTION, medium=5), "medium must be a medium, its mapping or "
                 "a path, got 5", id="medium_number"),
    pytest.param({k: v for k, v in _REACTION.items() if k != "target_center"},
                 "reaction kinds need medium, component and target_center",
                 id="reaction_without_target_center"),
])
def test_cli_lab_run_rejects_bad_config_values(tmp_path, data, message):
    """A config field of the wrong type or outside its range exits 2 with
    one Error line naming the field, not with a traceback from the run."""
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data))
    res = CliRunner().invoke(main, ["lab", "run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and message in errors[0], res.output


def test_cli_lab_run_rejects_a_quad_tol_below_the_oracle_floor(tmp_path):
    """The reaction demo at quad_tol 1e-300 exits 2 with one Error line
    naming the oracle's floor, not a ToleranceNotMet traceback."""
    data = dict(_REACTION, p_max=4, n_charges=8, seed=11, a_s=0.3,
                target_spread=0.05, quad_tol=1e-300, n_targets=32)
    path = tmp_path / "x.json"
    path.write_text(json.dumps(data))
    res = CliRunner().invoke(main, ["lab", "run", "--config", str(path)])
    assert res.exit_code == 2, res.output
    errors = [line for line in res.output.splitlines() if line.startswith("Error:")]
    assert len(errors) == 1 and "is below 7.96e-15" in errors[0], res.output


def test_quad_tol_floor_is_the_oracle_floor():
    """eval_reaction_green floors its absolute tolerance at MIN_TOL/4pi:
    a config at that floor constructs, the next float below does not."""
    assert QUAD_TOL_FLOOR == 1e-13 / (4.0 * math.pi)
    cfg = ExperimentConfig(kind="me", quad_tol=QUAD_TOL_FLOOR)
    assert cfg.quad_tol == QUAD_TOL_FLOOR
    with pytest.raises(DomainError, match="quad_tol .* is below 7.96e-15"):
        ExperimentConfig(kind="me", quad_tol=math.nextafter(QUAD_TOL_FLOOR, 0.0))


def test_me_terms_rejects_a_target_outside_layer_ell(two_layer):
    """u^11 from layer 0 into layer 0 has no value at a target in layer
    1, so me_terms refuses it before any table runs."""
    system = xp.ChargeSystem.in_medium(two_layer, [1.0], [[0.0, 0.0, 0.5]])
    targets = [[0.3, 0.2, 1.2], [0.3, 0.2, -0.2]]
    with pytest.raises(DomainError, match="every target must lie in layer 0"):
        me_terms(system, [0.0, 0.0, 0.5], 6, targets, two_layer, (1, 1, 0, 0),
                 radius=0.1)


@pytest.mark.parametrize("eval_radius", [0.5, 1.0])
def test_me_experiment_rejects_targets_inside_the_sphere(eval_radius):
    """The lab's ME check raises DomainError naming the first target on or
    inside the sphere of radius a_s, instead of a report with negative
    bounds."""
    cfg = ExperimentConfig(kind="me", p_max=6, n_charges=6, seed=1, a_s=1.0,
                           eval_radius=eval_radius, n_targets=16)
    first = ",".join(f"{v:g}" for v in eval_radius * fibonacci_sphere(16)[0])
    with pytest.raises(DomainError, match=f"target {first} lies within radius 1 "):
        run_experiment(cfg)


def test_cli_me_oracle_runs_at_the_expansion_tolerance(tmp_path, monkeypatch):
    """`me --tol` below 1e-10 reaches the reaction oracle, as in the lab:
    its one engine call (sommerfeld._reaction_green) runs at min(1e-10,
    tol)."""
    tols = []

    def spy(*args):
        tols.append(args[-1])
        return sommerfeld._reaction_green(*args)

    monkeypatch.setattr(lab, "_reaction_green", spy)
    res = _invoke(_ME + ["--tol", "1e-12"], _write_inputs(tmp_path))
    assert res.exit_code == 0, res.output
    assert tols == [1e-12]


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
