"""Experiment harness: sweep truncation order p, measure errors against
brute-force oracles, check the theoretical bounds row by row, and fit the
observed geometric decay rates.

Reports are deterministic: fixed seeds, quasi-uniform Fibonacci-sphere
target sets, fixed reduction order, and fixed float formatting, so two
runs with the same config produce byte-identical CSV/JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from . import expansions as xp
from .densities import density_bound, interface_matrices, reaction_densities
from .errors import ComponentAbsent
from .harmonics import (
    cartesian_to_spherical,
    constants,
    legendre_p,
    sph_harm,
    sph_harm_table,
)
from .medium import (
    LayeredMedium,
    check_box_in_layer,
    polarization_source,
)
from .sommerfeld import CAGNIARD_CATALOG, cagniard_identity_check, eval_reaction_green

CSV_SCHEMA = 1
#: skew unit vector used for deterministic center placement
_SKEW = np.array([1.0, 0.5, 0.3]) / np.linalg.norm([1.0, 0.5, 0.3])


@dataclass
class ExperimentConfig:
    """Geometry and sweep parameters for one convergence experiment.

    kind selects the operator under test; reaction kinds additionally
    need a medium and a component (a, b, ell, ellprime).  Free-space
    kinds ignore the medium.  All geometry must satisfy the hypotheses of
    the bound being exercised (validated at run time).

    Geometry fields by kind:
      me           charges in a ball of radius a_s at source_center,
                   targets on the sphere of radius eval_radius
      le           charges on a shell of radius eval_radius * a_t,
                   targets at 0.5 a_t inside the box
      m2m / l2l    as me / le with a deterministic center shift
      m2l          target box placed at separation a_s + c * a_t
      reaction_*   charges in layer l' at source_center (radius a_s);
                   target_center/target_spread (and a_t, c for LE/M2L)
                   place the evaluation cloud in layer l
    """

    kind: str
    p_min: int = 1
    p_max: int = 20
    n_charges: int = 20
    seed: int = 0
    a_s: float = 1.0
    a_t: float = 1.0
    c: float = 3.0
    eval_radius: float = 4.0
    source_center: tuple = (0.0, 0.0, 0.0)
    target_center: tuple | None = None
    target_spread: float = 0.0
    quad_tol: float = 1e-11
    n_targets: int = 64
    medium: LayeredMedium | None = None
    component: tuple | None = None

    KINDS = (
        "me",
        "le",
        "m2m",
        "l2l",
        "m2l",
        "reaction_me",
        "reaction_le",
        "reaction_m2l",
        "density_props",
        "cagniard",
        "addition_theorems",
    )

    def __post_init__(self):
        if self.kind not in self.KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if self.kind.endswith("m2l") and self.c <= 1.0:
            raise ValueError("m2l experiments need separation factor c > 1")
        if self.kind.startswith("reaction"):
            if self.medium is None or self.component is None:
                raise ValueError("reaction experiments need medium and component")

    @classmethod
    def from_json(cls, path):
        with open(path) as fh:
            data = json.load(fh)
        medium = data.pop("medium", None)
        if isinstance(medium, str):
            medium = LayeredMedium.from_json(medium)
        elif isinstance(medium, dict):
            medium = LayeredMedium.from_dict(medium)
        component = data.pop("component", None)
        if component is not None:
            component = tuple(int(v) for v in component)
        for key in ("source_center", "target_center"):
            if data.get(key) is not None:
                data[key] = tuple(float(v) for v in data[key])
        return cls(medium=medium, component=component, **data)


@dataclass
class ConvergenceReport:
    kind: str
    ps: list
    errors: list
    bounds: list
    rate_fit: float
    rate_theory: float
    passed: bool
    degenerate: bool = False
    metadata: dict = field(default_factory=dict)
    passed_rows: list = field(default_factory=list)

    @property
    def ratios(self):
        return [
            b / e if e > 0 else math.inf for b, e in zip(self.bounds, self.errors)
        ]

    def to_csv(self):
        lines = [f"# schema={CSV_SCHEMA}"]
        lines.append("p,max_error,bound,ratio,rate_fit,rate_theory")
        for p, e, b, r in zip(self.ps, self.errors, self.bounds, self.ratios):
            lines.append(
                f"{p},{e:.16e},{b:.16e},{r:.16e},"
                f"{self.rate_fit:.16e},{self.rate_theory:.16e}"
            )
        return "\n".join(lines) + "\n"

    def to_json(self):
        payload = {
            "schema": CSV_SCHEMA,
            "kind": self.kind,
            "rows": [
                {"p": p, "max_error": e, "bound": b, "ratio": r, "passed": ok}
                for p, e, b, r, ok in zip(
                    self.ps, self.errors, self.bounds, self.ratios,
                    self.passed_rows or [None] * len(self.ps),
                )
            ],
            "rate_fit": self.rate_fit,
            "rate_theory": self.rate_theory,
            "passed": self.passed,
            "degenerate": self.degenerate,
            "metadata": self.metadata,
        }
        return json.dumps(payload, indent=2, sort_keys=True, default=float) + "\n"


def fibonacci_sphere(n):
    """Deterministic quasi-uniform unit directions (golden-angle spiral)."""
    i = np.arange(n)
    z = 1.0 - 2.0 * (i + 0.5) / n
    rho = np.sqrt(np.maximum(0.0, 1.0 - z * z))
    phi = math.pi * (3.0 - math.sqrt(5.0)) * i
    return np.stack([rho * np.cos(phi), rho * np.sin(phi), z], axis=1)


def generate_charges(seed, count, box, medium=None, layer=None):
    """Deterministic charges: positions uniform in the ball of the box
    radius, q_j uniform in [-1, 1]."""
    if medium is not None and layer is not None:
        check_box_in_layer(medium, box.center, box.radius, layer)
    rng = np.random.default_rng(seed)
    direc = rng.normal(size=(count, 3))
    norms = np.linalg.norm(direc, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    radii = box.radius * rng.uniform(0.0, 1.0, size=(count, 1)) ** (1.0 / 3.0)
    positions = box.center + direc / norms * radii
    q = rng.uniform(-1.0, 1.0, size=count)
    layers = np.full(count, 0 if layer is None else layer, dtype=int)
    return xp.ChargeSystem(q, positions, layers, source_box=box)


def fit_decay_rate(ps, errors, floor):
    """-slope of log(error) vs p over the largest-p half of the rows that
    sit above the noise floor; NaN when fewer than two rows qualify."""
    ps = np.asarray(ps, dtype=float)
    errors = np.asarray(errors, dtype=float)
    keep = errors > floor
    if keep.sum() < 2:
        return float("nan")
    ps, errors = ps[keep], errors[keep]
    half = len(ps) // 2
    ps, errors = ps[half:], errors[half:]
    if len(ps) < 2:
        return float("nan")
    slope = np.polyfit(ps, np.log(errors), 1)[0]
    return float(-slope)


def _me_sweep_errors(exp, targets, oracle):
    """Per-p max error of free-space multipole/local partial sums."""
    errs = np.zeros((exp.p + 1, len(targets)))
    ns = np.arange(exp.p + 1)
    for t, r in enumerate(targets):
        v = r - exp.center
        rr, theta, phi = cartesian_to_spherical(v)
        ytab = sph_harm_table(exp.p, theta, phi)
        if exp.kind == "multipole":
            radial = rr ** (-ns - 1.0)
        else:
            radial = rr ** ns.astype(float)
        per_n = np.real((exp.coeff * ytab).sum(axis=1) * radial)
        partial = np.cumsum(per_n)
        errs[:, t] = np.abs(partial - oracle[t])
    return errs.max(axis=1)


def _free_me(config):
    box = xp.Box(np.asarray(config.source_center), config.a_s)
    system = generate_charges(config.seed, config.n_charges, box)
    exp = xp.me_from_charges(system, box.center, config.p_max)
    targets = box.center + config.eval_radius * fibonacci_sphere(config.n_targets)
    oracle = np.array([xp.direct_potential(system, r) for r in targets])
    errors = _me_sweep_errors(exp, targets, oracle)
    q = system.total_abs_charge
    ps = list(range(config.p_min, config.p_max + 1))
    errs = [float(errors[p]) for p in ps]
    bounds = [
        q / (4 * math.pi * (config.eval_radius - config.a_s))
        * (config.a_s / config.eval_radius) ** (p + 1)
        for p in ps
    ]
    meta = {
        "Q": q,
        "r_eval": config.eval_radius,
        "a_s": config.a_s,
        "oracle_scale": float(np.abs(oracle).max()),
    }
    return ps, errs, bounds, math.log(config.eval_radius / config.a_s), meta


def _free_le(config):
    center = np.asarray(config.source_center, dtype=float)
    rng = np.random.default_rng(config.seed)
    direc = rng.normal(size=(config.n_charges, 3))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    radii = config.eval_radius * config.a_t * rng.uniform(1.0, 1.5, config.n_charges)
    positions = center + direc * radii[:, None]
    q = rng.uniform(-1.0, 1.0, config.n_charges)
    system = xp.ChargeSystem.free_space(q, positions)
    exp = xp.le_from_charges(system, center, config.p_max, radius=config.a_t)
    r_t = 0.5 * config.a_t
    targets = center + r_t * fibonacci_sphere(config.n_targets)
    oracle = np.array([xp.direct_potential(system, r) for r in targets])
    errors = _me_sweep_errors(exp, targets, oracle)
    qq = system.total_abs_charge
    ps = list(range(config.p_min, config.p_max + 1))
    errs = [float(errors[p]) for p in ps]
    bounds = [
        qq / (4 * math.pi * (config.a_t - r_t)) * (r_t / config.a_t) ** (p + 1)
        for p in ps
    ]
    meta = {
        "Q": qq,
        "r_t": r_t,
        "a_t": config.a_t,
        "oracle_scale": float(np.abs(oracle).max()),
    }
    return ps, errs, bounds, math.log(config.a_t / r_t), meta


def _free_m2m(config):
    box = xp.Box(np.asarray(config.source_center), config.a_s)
    system = generate_charges(config.seed, config.n_charges, box)
    exp = xp.me_from_charges(system, box.center, config.p_max)
    r_ss = 0.5 * config.a_s
    new_center = box.center - r_ss * _SKEW
    shifted = xp.m2m(exp, new_center)
    recomputed = xp.me_from_charges(
        system, new_center, config.p_max, radius=config.a_s + r_ss
    )
    delta = np.abs(shifted.coeff - recomputed.coeff).max()
    scale = np.abs(recomputed.coeff).max()
    targets = new_center + config.eval_radius * fibonacci_sphere(config.n_targets)
    oracle = np.array([xp.direct_potential(system, r) for r in targets])
    errors = _me_sweep_errors(shifted, targets, oracle)
    q = system.total_abs_charge
    a_eff = config.a_s + r_ss
    ps = list(range(config.p_min, config.p_max + 1))
    errs = [float(errors[p]) for p in ps]
    bounds = [
        q
        / (4 * math.pi * (config.eval_radius - a_eff))
        * (a_eff / config.eval_radius) ** (p + 1)
        for p in ps
    ]
    meta = {
        "Q": q,
        "shift": r_ss,
        "recompute_rel_agreement": float(delta / scale),
        "oracle_scale": float(np.abs(oracle).max()),
    }
    return ps, errs, bounds, math.log(config.eval_radius / a_eff), meta


def _free_l2l(config):
    center = np.asarray(config.source_center, dtype=float)
    rng = np.random.default_rng(config.seed)
    direc = rng.normal(size=(config.n_charges, 3))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    radii = 2.5 * config.a_t * rng.uniform(1.0, 1.4, config.n_charges)
    system = xp.ChargeSystem.free_space(
        rng.uniform(-1.0, 1.0, config.n_charges), center + direc * radii[:, None]
    )
    new_center = center + 0.3 * config.a_t * _SKEW
    pts = center + 0.45 * config.a_t * fibonacci_sphere(50) * rng.uniform(
        0.3, 1.0, (50, 1)
    )
    ps = list(range(config.p_min, config.p_max + 1))
    errs, scales = [], []
    for p in ps:
        exp = xp.le_from_charges(system, center, p, radius=config.a_t)
        shifted = xp.l2l(exp, new_center)
        vals = np.array([xp.eval_expansion(exp, x) for x in pts])
        vals_sh = np.array([xp.eval_expansion(shifted, x) for x in pts])
        errs.append(float(np.abs(vals - vals_sh).max()))
        scales.append(float(np.abs(vals).max()))
    bounds = [1e-12 * s for s in scales]
    meta = {
        "Q": system.total_abs_charge,
        "pointwise_scale": scales[-1],
        "oracle_scale": scales[-1],
    }
    return ps, errs, bounds, float("nan"), meta


def _free_m2l(config):
    box = xp.Box(np.asarray(config.source_center), config.a_s)
    system = generate_charges(config.seed, config.n_charges, box)
    exp = xp.me_from_charges(system, box.center, config.p_max)
    sep = config.a_s + config.c * config.a_t
    target_center = box.center + sep * _SKEW
    r_t = 0.9 * config.a_t
    targets = target_center + r_t * fibonacci_sphere(config.n_targets)
    oracle = np.array([xp.direct_potential(system, r) for r in targets])
    ps = list(range(config.p_min, config.p_max + 1))
    errs = []
    for p in ps:
        loc = xp.m2l_free(xp.truncated(exp, p), target_center, p)
        vals = np.array([xp.eval_expansion(loc, r) for r in targets])
        errs.append(float(np.abs(vals - oracle).max()))
    q = system.total_abs_charge
    ratio = (config.a_s + config.a_t) / (config.a_s + config.c * config.a_t)
    bounds = [
        q / (4 * math.pi * (config.c - 1) * config.a_t) * ratio ** (p + 1) for p in ps
    ]
    meta = {
        "Q": q,
        "c": config.c,
        "separation": sep,
        "oracle_scale": float(np.abs(oracle).max()),
    }
    return ps, errs, bounds, -math.log(ratio), meta


def _reaction_oracle(config, system, targets):
    a, b, ell, ellprime = config.component
    out = np.zeros(len(targets))
    for t, r in enumerate(targets):
        total = 0.0
        for qj, pos in zip(system.q, system.positions):
            total += qj * eval_reaction_green(
                config.medium, a, b, ell, ellprime, r, pos,
                tol=min(1e-10, config.quad_tol),
            )
        out[t] = total
    return out


def _reaction_me(config):
    a, b, ell, ellprime = config.component
    medium = config.medium
    box = xp.Box(np.asarray(config.source_center), config.a_s)
    system = generate_charges(config.seed, config.n_charges, box, medium, ellprime)
    pol_center = polarization_source(
        medium, a, b, ell, ellprime, box.center
    )
    exp = xp.reaction_me_from_charges(
        system, medium, a, b, ell, ellprime, pol_center, config.p_max,
        radius=config.a_s,
    )
    tc = np.asarray(config.target_center, dtype=float)
    spread = config.target_spread
    check_box_in_layer(medium, tc, max(spread, 1e-9), ell)
    targets = tc + spread * fibonacci_sphere(config.n_targets)
    oracle = _reaction_oracle(config, system, targets)
    r_min = float(np.linalg.norm(targets - pol_center, axis=1).min())
    if r_min <= config.a_s:
        raise ValueError("targets must lie outside the polarization circumsphere")
    errs_all = np.zeros((config.p_max + 1, len(targets)))
    quad_stats = {"panels": 0, "gl_calls": 0, "evals": 0, "bisections": 0}
    for t, r in enumerate(targets):
        basis, stats = xp.reaction_basis_table(
            medium, config.component, config.p_max, r, pol_center, config.quad_tol
        )
        quad_stats = {k: quad_stats[k] + stats.get(k, 0) for k in quad_stats}
        per_n = np.real((exp.coeff * basis).sum(axis=1))
        errs_all[:, t] = np.abs(np.cumsum(per_n) - oracle[t])
    msig = density_bound(medium, ell, ellprime, a, b)
    q = system.total_abs_charge
    ps = list(range(config.p_min, config.p_max + 1))
    errs = [float(errs_all[p].max()) for p in ps]
    bounds = [
        q * msig / (4 * math.pi * (r_min - config.a_s))
        * (config.a_s / r_min) ** (p + 1)
        for p in ps
    ]
    meta = {
        "Q": q,
        "M_sigma": msig,
        "r_min": r_min,
        "a_s": config.a_s,
        "oracle_scale": float(np.abs(oracle).max()),
        "quadrature": quad_stats,
    }
    return ps, errs, bounds, math.log(r_min / config.a_s), meta


def _reaction_le(config):
    a, b, ell, ellprime = config.component
    medium = config.medium
    box = xp.Box(np.asarray(config.source_center), config.a_s)
    system = generate_charges(config.seed, config.n_charges, box, medium, ellprime)
    tc = np.asarray(config.target_center, dtype=float)
    check_box_in_layer(medium, tc, config.a_t, ell)
    exp = xp.reaction_le_from_charges(
        system, medium, a, b, ell, ellprime, tc, config.p_max,
        radius=config.a_t, rel_tol=config.quad_tol,
    )
    r_t = 0.6 * config.a_t
    targets = tc + r_t * fibonacci_sphere(config.n_targets)
    oracle = _reaction_oracle(config, system, targets)
    errors = _me_sweep_errors(exp, targets, oracle)
    msig = density_bound(medium, ell, ellprime, a, b)
    q = system.total_abs_charge
    ps = list(range(config.p_min, config.p_max + 1))
    errs = [float(errors[p]) for p in ps]
    bounds = [
        q * msig / (4 * math.pi * (config.a_t - r_t)) * (r_t / config.a_t) ** (p + 1)
        for p in ps
    ]
    meta = {
        "Q": q,
        "M_sigma": msig,
        "r_t": r_t,
        "a_t": config.a_t,
        "oracle_scale": float(np.abs(oracle).max()),
    }
    return ps, errs, bounds, math.log(config.a_t / r_t), meta


def _reaction_m2l(config):
    a, b, ell, ellprime = config.component
    medium = config.medium
    box = xp.Box(np.asarray(config.source_center), config.a_s)
    system = generate_charges(config.seed, config.n_charges, box, medium, ellprime)
    pol_center = polarization_source(medium, a, b, ell, ellprime, box.center)
    exp = xp.reaction_me_from_charges(
        system, medium, a, b, ell, ellprime, pol_center, config.p_max,
        radius=config.a_s,
    )
    tc = np.asarray(config.target_center, dtype=float)
    check_box_in_layer(medium, tc, config.a_t, ell)
    sep = float(np.linalg.norm(tc - pol_center))
    c_eff = (sep - config.a_s) / config.a_t
    if c_eff <= 1.0:
        raise ValueError(f"boxes not well separated: effective c = {c_eff:.3f}")
    r_t = 0.9 * config.a_t
    targets = tc + r_t * fibonacci_sphere(config.n_targets)
    oracle = _reaction_oracle(config, system, targets)

    tmat, quad_stats = xp.reaction_m2l_matrix(
        exp, medium, tc, config.p_max, config.quad_tol
    )
    # group the operator by source degree nu so every rectangular
    # truncation (n <= p, nu <= p) is a partial double sum
    pm = config.p_max
    ns, ms = xp._packed_indices(pm)
    flat_m = xp._pack(exp.coeff, pm)
    local_by_nu = np.zeros((pm + 1, pm + 1, 2 * pm + 1), dtype=complex)
    contrib = tmat * flat_m[None, :]
    for j, nu_j in enumerate(ns):
        local_by_nu[nu_j][ns, ms + pm] += contrib[:, j]

    errs_all = np.zeros((pm + 1, len(targets)))
    nsr = np.arange(pm + 1)
    for t, r in enumerate(targets):
        v = r - tc
        rr, theta, phi = cartesian_to_spherical(v)
        ytab = sph_harm_table(pm, theta, phi)
        radial = rr ** nsr.astype(float)
        # term[nu, n] = Re sum_m local_by_nu[nu][n,m] Y r^n
        term = np.real(
            np.einsum("unm,nm,n->un", local_by_nu, ytab, radial)
        )
        grid = np.cumsum(np.cumsum(term, axis=0), axis=1)
        errs_all[:, t] = np.abs(np.diag(grid) - oracle[t])
    msig = density_bound(medium, ell, ellprime, a, b)
    q = system.total_abs_charge
    ps = list(range(config.p_min, config.p_max + 1))
    errs = [float(errs_all[p].max()) for p in ps]
    ratio = (config.a_s + config.a_t) / (config.a_s + c_eff * config.a_t)
    bounds = [
        q * msig / (2 * math.pi * (c_eff - 1) * config.a_t) * ratio ** (p + 1)
        for p in ps
    ]
    meta = {
        "Q": q,
        "M_sigma": msig,
        "c_eff": c_eff,
        "separation": sep,
        "oracle_scale": float(np.abs(oracle).max()),
        "quadrature": quad_stats,
    }
    return ps, errs, bounds, -math.log(ratio), meta


_BUILDERS = {
    "me": _free_me,
    "le": _free_le,
    "m2m": _free_m2m,
    "l2l": _free_l2l,
    "m2l": _free_m2l,
    "reaction_me": _reaction_me,
    "reaction_le": _reaction_le,
    "reaction_m2l": _reaction_m2l,
}


def run_experiment(config):
    """Execute a convergence experiment and assemble its report."""
    if config.kind in ("density_props", "cagniard", "addition_theorems"):
        summary = run_property_suite(config.kind)
        passed = all(entry["passed"] for entry in summary.values())
        return ConvergenceReport(
            config.kind, [], [], [], float("nan"), float("nan"), passed,
            metadata={"suite": summary},
        )
    ps, errs, bounds, rate_theory, meta = _BUILDERS[config.kind](config)
    scale = max(meta.get("Q", 1.0), 1.0)
    oracle_scale = meta.get("oracle_scale", 1.0)
    eps = float(np.finfo(float).eps)
    # fit_floor: where geometric decay drowns in evaluation noise (rate
    # fits exclude rows below it); eps_floor: the smallest error the
    # measurement itself can certify, added to the bound in the row check
    if config.kind.startswith("reaction"):
        fit_floor = 100.0 * config.quad_tol * scale
        eps_floor = max(100.0 * config.quad_tol, 64.0 * eps) * max(
            oracle_scale, 1e-300
        )
    else:
        fit_floor = 1e4 * eps * scale
        eps_floor = 64.0 * eps * oracle_scale
    degenerate = all(e <= fit_floor for e in errs)
    rate_fit = fit_decay_rate(ps, errs, fit_floor)
    passed_rows = [
        e <= b * (1 + 1e-12) + eps_floor for e, b in zip(errs, bounds)
    ]
    passed = all(passed_rows)
    if degenerate:
        meta["degenerate"] = "zero field"
        passed = True
    meta.update(
        {
            "seed": config.seed,
            "quad_tol": config.quad_tol,
            "noise_floor": fit_floor,
            "eps_floor": eps_floor,
            "n_targets": config.n_targets,
        }
    )
    return ConvergenceReport(
        config.kind, ps, errs, bounds, rate_fit, rate_theory, passed,
        degenerate=degenerate, metadata=meta, passed_rows=passed_rows,
    )


# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

def _suite_lemma21(samples=10_000, seed=7):
    """Key inequality for the cumulative interface matrices at random
    media and random spectral points in the closed right half plane."""
    rng = np.random.default_rng(seed)
    violations = 0
    worst = math.inf
    n_done = 0
    while n_done < samples:
        L = int(rng.integers(1, 6))
        d = np.sort(rng.uniform(-5, 5, L))[::-1]
        if L > 1 and np.min(-np.diff(d)) < 1e-3:
            continue
        med = LayeredMedium(d, rng.uniform(0.1, 10, L + 1), rng.uniform(0.1, 10, L + 1))
        batch = min(200, samples - n_done)
        k = rng.uniform(0, 50, batch) + 1j * rng.uniform(-50, 50, batch)
        k = np.abs(k.real) + 1j * k.imag
        mats = interface_matrices(med, k)
        prod = 1.0
        for l in range(1, L + 1):
            prod *= mats.gamma_plus[l] ** 2 - mats.gamma_minus[l] ** 2
            al = mats.alpha[l]
            margin = (np.abs(al[1, 1]) ** 2 - np.abs(al[1, 0]) ** 2) / prod
            worst = min(worst, float(margin.min()))
            violations += int(np.sum(margin < 1.0 - 1e-10))
        n_done += batch
    return {"passed": violations == 0, "worst_margin": worst, "samples": n_done}


def _suite_density_props(seed=11):
    """Conjugate symmetry, boundedness on a real grid, |e_l| <= 1."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    ok = True
    for _ in range(20):
        L = int(rng.integers(1, 5))
        d = np.sort(rng.uniform(-3, 3, L))[::-1]
        if L > 1 and np.min(-np.diff(d)) < 1e-2:
            continue
        med = LayeredMedium(d, rng.uniform(0.2, 5, L + 1), rng.uniform(0.2, 5, L + 1))
        ell = int(rng.integers(0, L + 1))
        ellp = int(rng.integers(0, L + 1))
        k = rng.uniform(0, 30, 64) + 1j * rng.uniform(-30, 30, 64)
        k = np.abs(k.real) + 1j * k.imag
        dens = reaction_densities(med, ell, ellp, k)
        dens_conj = reaction_densities(med, ell, ellp, np.conj(k))
        for comp in dens.components:
            dev = np.abs(np.conj(dens.get(*comp)) - dens_conj.get(*comp)).max()
            worst = max(worst, float(dev))
            try:
                bnd = density_bound(med, ell, ellp, *comp)
            except ComponentAbsent:
                ok = False
                continue
            grid = np.linspace(0.0, 200.0, 512)
            vals = np.abs(reaction_densities(med, ell, ellp, grid).get(*comp))
            if vals.max() > bnd * (1 + 1e-9) + 1e-14:
                ok = False
    return {"passed": ok and worst < 1e-12, "worst_conjugation": worst, "samples": 20}


def _translation_theorem_residuals(rng, cap=24, samples=4):
    """Normalized residuals of the three harmonic translation theorems at
    truncation `cap` with center separation ratio 1/8, where the
    geometric remainder sits far below 1e-12."""
    cst = constants(cap + 4)
    worst = 0.0
    for kind in ("outer_outer", "outer_inner", "inner"):
        for _ in range(samples):
            q = rng.normal(size=3)
            q /= np.linalg.norm(q)
            p_vec = rng.normal(size=3)
            p_vec /= np.linalg.norm(p_vec)
            p_vec *= {"outer_outer": 8.0, "outer_inner": 0.125, "inner": 0.7}[kind]
            rho, t_q, p_q = cartesian_to_spherical(q)
            r, t_p, p_p = cartesian_to_spherical(p_vec)
            rp, t_s, p_s = cartesian_to_spherical(p_vec - q)
            yq = sph_harm_table(cap + 4, t_q, p_q)
            yp = sph_harm_table(cap + 4, t_p, p_p)
            off = cap + 4
            nprime = int(rng.integers(0, 5))
            mprime = int(rng.integers(-nprime, nprime + 1)) if nprime else 0
            if kind == "inner":
                lhs = rp ** nprime * sph_harm(nprime, mprime, t_s, p_s)
            else:
                lhs = sph_harm(nprime, mprime, t_s, p_s) / rp ** (nprime + 1)
            rhs = 0j
            top = nprime if kind == "inner" else cap
            for n in range(top + 1):
                for m in range(-n, n + 1):
                    if kind == "outer_outer":
                        den = cst.c[n] ** 2 * cst.a(n + nprime, m + mprime)
                        rhs += (
                            (-1.0) ** (abs(m + mprime) - abs(mprime))
                            * cst.a(n, m) * cst.a(nprime, mprime)
                            * rho ** n * yq[n, -m + off] / den
                            * yp[n + nprime, m + mprime + off]
                            / r ** (n + nprime + 1)
                        )
                    elif kind == "outer_inner":
                        if abs(mprime - m) > n + nprime:
                            continue
                        den = (
                            cst.c[n] ** 2
                            * cst.a(n + nprime, mprime - m)
                            * rho ** (n + nprime + 1)
                        )
                        rhs += (
                            (-1.0) ** (nprime + abs(m))
                            * cst.a(n, m) * cst.a(nprime, mprime)
                            * yq[n + nprime, mprime - m + off] / den
                            * r ** n * yp[n, m + off]
                        )
                    else:
                        if abs(mprime - m) > nprime - n:
                            continue
                        num = (
                            (-1.0) ** (n - abs(m) + abs(mprime) - abs(mprime - m))
                            * cst.c[nprime] ** 2
                            * cst.a(n, m) * cst.a(nprime - n, mprime - m)
                            * rho ** n * yq[n, m + off]
                        )
                        den = (
                            cst.c[n] ** 2 * cst.c[nprime - n] ** 2
                            * cst.a(nprime, mprime) * r ** (n - nprime)
                        )
                        rhs += num / den * yp[nprime - n, mprime - m + off]
            worst = max(worst, abs(lhs - rhs) / (abs(lhs) + 1.0))
    return worst


def _suite_addition_theorems(seed=3):
    """Legendre addition theorem, the three harmonic translation
    theorems, and the complex-direction polynomial identity behind the
    Sommerfeld basis reduction."""
    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(40):
        t1, p1 = math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)
        t2, p2 = math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)
        cg = math.cos(t1) * math.cos(t2) + math.sin(t1) * math.sin(t2) * math.cos(
            p1 - p2
        )
        for n in range(13):
            s = sum(
                np.conj(sph_harm(n, m, t2, p2)) * sph_harm(n, m, t1, p1)
                for m in range(-n, n + 1)
            )
            lhs = legendre_p(n, np.clip(cg, -1, 1))
            worst = max(worst, abs(lhs - 4 * math.pi / (2 * n + 1) * s))
    cst = constants(15)
    for _ in range(40):
        alpha = rng.uniform(0, 2 * math.pi)
        theta, phi = math.acos(rng.uniform(-1, 1)), rng.uniform(0, 2 * math.pi)
        k0r = math.sin(theta) * math.cos(alpha - phi) + 1j * math.cos(theta)
        for n in range(16):
            lhs = (1j * k0r) ** n / math.gamma(n + 1)
            rhs = sum(
                cst.C(n, m)
                * sph_harm(n, m, theta, 0.0)
                * np.exp(1j * m * (alpha - phi))
                for m in range(-n, n + 1)
            )
            worst = max(worst, abs(lhs - rhs))
    worst = max(worst, _translation_theorem_residuals(rng))
    return {"passed": worst < 1e-12, "worst_residual": float(worst), "samples": 92}


def _suite_cagniard():
    worst = 0.0
    for name in CAGNIARD_CATALOG:
        for rho in (0.0, 0.7, 2.0):
            for z in (0.5, 1.0, 2.5):
                for eta in (0.4, 1.0, 3.0):
                    lhs, rhs = cagniard_identity_check(name, rho, z, eta, tol=1e-9)
                    worst = max(worst, abs(lhs - rhs))
    return {
        "passed": worst < 1e-8,
        "worst_residual": float(worst),
        "samples": 4 * 27,
    }


def run_property_suite(kind="all"):
    """Machine-readable pass/fail summaries of the invariant suites."""
    suites = {
        "lemma21": _suite_lemma21,
        "density_props": _suite_density_props,
        "addition_theorems": _suite_addition_theorems,
        "cagniard": _suite_cagniard,
    }
    if kind == "density_props":
        selected = ["lemma21", "density_props"]
    elif kind == "all":
        selected = list(suites)
    else:
        if kind not in suites:
            raise ValueError(f"unknown suite kind {kind!r}")
        selected = [kind]
    return {name: suites[name]() for name in selected}
