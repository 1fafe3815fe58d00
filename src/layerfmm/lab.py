"""Experiment harness: sweep truncation order p, measure errors against
brute-force oracles, check the theoretical bounds row by row, and fit the
observed geometric decay rates.

`run_experiment` is the one runner of the convergence kinds; the property
suites run through `run_property_suite` (`layerfmm lab suite`).  A
geometric kind (`_KINDS`) places charges and targets and returns only
what differs: its values at the targets truncated at each order, the
bound geometry (denominator, inner and outer radius) and its metadata.
The runner makes the one `_oracle` call (direct sums in free space; for
a reaction component one batched call: over a medium with one finite
layer the image series sommerfeld._image_green, whose coefficients come
from its own real-axis values, so it shares no quadrature, Bessel, K or
coefficient code with the operators' image tables; over any other
medium, or past the series' term budget, the engine
sommerfeld._reaction_green), forms the errors and the bound Q M_sigma /
D (inner/outer)^(p+1) at rate log(outer/inner), with M_sigma = 1 in free
space, and ends in `_verdict`, the one place that sets the noise floors,
the row verdicts and the run metadata.  l2l, whose shift is exact, has
no geometric bound and runs on its own.  Report metadata carry the
operators' and the oracle's stats under keys that name the path that ran
(`_stats_entry`).  The ME kinds and `me_terms` (`layerfmm me`) build
their ME through `_me_setup`.

Reports are deterministic: fixed seeds, quasi-uniform Fibonacci-sphere
target sets, fixed reduction order, and fixed float formatting, so two
runs with the same config produce byte-identical CSV/JSON.
"""

from __future__ import annotations

import json
import math
import numbers
import sys
from dataclasses import dataclass, field, fields

import numpy as np

from . import expansions as xp
from .densities import InterfaceMatrices, density_bound, reaction_densities
from .errors import BoxesNotSeparated, DomainError
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
    read_json,
)
from .sommerfeld import (
    CAGNIARD_CATALOG,
    MIN_TOL,
    _image_green,
    _reaction_green,
    cagniard_identity_check,
)

CSV_SCHEMA = 1
#: least quad_tol: sommerfeld._reaction_green, the oracle over any medium
#: but one finite layer (and there past the image series' term budget),
#: floors its absolute tolerance here, so it could not honour a smaller one
QUAD_TOL_FLOOR = MIN_TOL / (4.0 * math.pi)
#: skew unit vector used for deterministic center placement
_SKEW = np.array([1.0, 0.5, 0.3]) / np.linalg.norm([1.0, 0.5, 0.3])


@dataclass
class ExperimentConfig:
    """Geometry and sweep parameters for one convergence experiment.

    kind selects the operator under test; reaction kinds additionally
    need a medium, a component (a, b, ell, ellprime) and a target_center.
    Free-space kinds ignore the medium.  All geometry must satisfy the
    hypotheses of the bound being exercised (validated at run time); a
    config outside them raises DomainError: an unknown kind, a field of
    the wrong type, a count or order below its range (0 <= p_min <= p_max,
    n_charges >= 0, seed >= 0, n_targets >= 1), a length, c or quad_tol
    that is not a finite number > 0 (target_spread >= 0), a quad_tol
    below QUAD_TOL_FLOOR, an m2l c <= 1, or a center other than 3 finite
    numbers.

    Geometry fields by kind:
      me           charges in a ball of radius a_s at source_center,
                   targets on the sphere of radius eval_radius
      le           charges on a shell of radius eval_radius * a_t,
                   targets at 0.5 a_t inside the box
      m2m / l2l    as me / le with a deterministic center shift
      m2l          target box placed at separation a_s + c * a_t (the
                   only kind that reads c)
      reaction_*   charges in layer l' at source_center (radius a_s);
                   target_center/target_spread (and a_t for LE/M2L)
                   place the evaluation cloud in layer l; reaction_m2l
                   reports its separation factor c_eff, which
                   target_center sets
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

    def __post_init__(self):
        if not isinstance(self.kind, str) or self.kind not in (*_KINDS, "l2l"):
            raise DomainError(f"unknown experiment kind {self.kind!r} (the property "
                              "suites run with `layerfmm lab suite`)")
        for name, low in _INT_FIELDS.items():
            value = getattr(self, name)
            if not _is_number(value, integer=True) or value < low:
                raise DomainError(f"{name} must be an integer >= {low}, got {value!r}")
        if not self.p_min <= self.p_max:
            raise DomainError(f"need 0 <= p_min <= p_max ({self.p_min}, {self.p_max})")
        for name in ("a_s", "a_t", "c", "eval_radius", "quad_tol", "target_spread"):
            value, low = getattr(self, name), ">= 0" if name == "target_spread" else "> 0"
            if not _is_number(value) or value < 0 or (value == 0 and low == "> 0"):
                raise DomainError(f"{name} must be a finite number {low}, got {value!r}")
        if self.quad_tol < QUAD_TOL_FLOOR:
            raise DomainError(f"quad_tol {self.quad_tol!r} is below {QUAD_TOL_FLOOR:.3g}, "
                              "the least absolute tolerance (MIN_TOL/4pi) of the oracle")
        if self.kind == "m2l" and self.c <= 1.0:
            raise DomainError("m2l experiments need separation factor c > 1")
        self.source_center = _numbers("source_center", self.source_center, 3)
        if self.target_center is not None:
            self.target_center = _numbers("target_center", self.target_center, 3)
        if self.component is not None:
            self.component = _numbers("component", self.component, 4, integer=True)
        if not isinstance(self.medium, (LayeredMedium, type(None))):
            raise DomainError(f"medium must be a medium, its mapping or a path, "
                              f"got {self.medium!r}")
        needs = (self.medium, self.component, self.target_center)
        if self.kind.startswith("reaction") and None in needs:
            raise DomainError("reaction kinds need medium, component and target_center")

    @classmethod
    def from_json(cls, path):
        """The config in a JSON file; DomainError for a key that names no
        field."""
        data = read_json(path)
        unknown = sorted(set(data) - {f.name for f in fields(cls)})
        if unknown or "kind" not in data:
            raise DomainError(f"unknown keys {unknown}" if unknown else "no kind given")
        medium = data.get("medium")
        if isinstance(medium, str):
            data["medium"] = LayeredMedium.from_json(medium)
        elif isinstance(medium, dict):
            data["medium"] = LayeredMedium.from_dict(medium)
        return cls(**data)


#: ExperimentConfig's integer fields and the least value of each
_INT_FIELDS = {"p_min": 0, "p_max": 0, "n_charges": 0, "seed": 0, "n_targets": 1}


def _is_number(value, integer=False):
    """Whether value is an integer (integer=True), or else a real number
    a float holds finite; a bool is neither."""
    kind = numbers.Integral if integer else numbers.Real
    return isinstance(value, kind) and not isinstance(value, bool) and (
        integer or abs(value) <= sys.float_info.max)


def _numbers(name, value, size, integer=False):
    """value, a list or tuple of size finite numbers (ints for integer=True),
    as a tuple; DomainError naming the field otherwise."""
    if not (isinstance(value, (list, tuple, np.ndarray)) and len(value) == size
            and all(_is_number(v, integer) for v in value)):
        what = "integers" if integer else "finite numbers"
        raise DomainError(f"{name} must be {size} {what}, got {value!r}")
    return tuple((int if integer else float)(v) for v in value)


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
                    self.ps, self.errors, self.bounds, self.ratios, self.passed_rows
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
    ps, errors = ps[keep], errors[keep]
    half = len(ps) // 2
    ps, errors = ps[half:], errors[half:]
    if len(ps) < 2:
        return float("nan")
    slope = np.polyfit(ps, np.log(errors), 1)[0]
    return float(-slope)


def _box_charges(config, layer=None):
    """Charges in the ball of radius a_s at source_center (the system's
    source_box), inside `layer` of the config's medium when one is given."""
    box = xp.Box(np.asarray(config.source_center), config.a_s)
    return generate_charges(config.seed, config.n_charges, box, config.medium, layer)


def _shell_charges(config, rng, center, radius, widen):
    """Charges at uniform directions about `center` with radii uniform in
    [radius, widen * radius) and q uniform in [-1, 1], drawn from rng in
    that order."""
    direc = rng.normal(size=(config.n_charges, 3))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    radii = radius * rng.uniform(1.0, widen, config.n_charges)
    positions = center + direc * radii[:, None]
    return xp.ChargeSystem.free_space(
        rng.uniform(-1.0, 1.0, config.n_charges), positions
    )


def _eps_floor(reaction, quad_tol, oracle_scale):
    """The smallest error a measurement against an oracle of magnitude
    oracle_scale can certify: 64 ulps of it, and for a reaction oracle
    (a quadrature to relative tolerance quad_tol) 100 quad_tol of it.
    Row checks add it to the bound."""
    eps = float(np.finfo(float).eps)
    if reaction:
        return max(100.0 * quad_tol, 64.0 * eps) * max(oracle_scale, 1e-300)
    return 64.0 * eps * oracle_scale


def _verdict(config, ps, errs, bounds, rate_theory, meta):
    """Judge error rows against their bounds and assemble the report: the
    noise floors, the row verdicts, the rate fit and the run metadata."""
    scale = max(meta["Q"], 1.0)
    reaction = config.kind.startswith("reaction")
    eps_floor = _eps_floor(reaction, config.quad_tol, meta["oracle_scale"])
    # fit_floor: where geometric decay drowns in evaluation noise (rate
    # fits exclude rows below it)
    if reaction:
        fit_floor = 100.0 * config.quad_tol * scale
    else:
        fit_floor = 1e4 * float(np.finfo(float).eps) * scale
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


def _partial_sums(exp, functions):
    """sums[t, p] = Re sum_{n <= p} sum_m exp.coeff[n, m] functions[t, n, m]."""
    return np.cumsum(np.real((exp.coeff * functions).sum(axis=-1)), axis=1)


def _free_me(config):
    system = _box_charges(config)
    center, r = system.source_box.center, config.eval_radius
    targets = center + r * fibonacci_sphere(config.n_targets)
    exp, basis, _ = _me_setup(system, center, config.p_max, targets)
    return (system, targets, _partial_sums(exp, basis),
            (4 * math.pi * (r - config.a_s), config.a_s, r),
            {"r_eval": r, "a_s": config.a_s})


def _free_le(config):
    center = np.asarray(config.source_center, dtype=float)
    system = _shell_charges(
        config, np.random.default_rng(config.seed), center,
        config.eval_radius * config.a_t, 1.5,
    )
    exp = xp.le_from_charges(system, center, config.p_max, radius=config.a_t)
    r_t = 0.5 * config.a_t
    targets = center + r_t * fibonacci_sphere(config.n_targets)
    return (system, targets, _partial_sums(exp, xp.solid_harmonics(exp, targets)),
            (4 * math.pi * (config.a_t - r_t), r_t, config.a_t),
            {"r_t": r_t, "a_t": config.a_t})


def _free_m2m(config):
    system = _box_charges(config)
    center, r = system.source_box.center, config.eval_radius
    r_ss = 0.5 * config.a_s
    a_eff = config.a_s + r_ss
    new_center = center - r_ss * _SKEW
    targets = new_center + r * fibonacci_sphere(config.n_targets)
    recomputed, basis, _ = _me_setup(system, new_center, config.p_max, targets,
                                     radius=a_eff)
    shifted = xp.m2m(xp.me_from_charges(system, center, config.p_max), new_center)
    delta = np.abs(shifted.coeff - recomputed.coeff).max()
    scale = np.abs(recomputed.coeff).max()
    return (system, targets, _partial_sums(shifted, basis),
            (4 * math.pi * (r - a_eff), a_eff, r),
            {"shift": r_ss, "recompute_rel_agreement": float(delta / scale)})


def _free_l2l(config):
    center = np.asarray(config.source_center, dtype=float)
    rng = np.random.default_rng(config.seed)
    system = _shell_charges(config, rng, center, 2.5 * config.a_t, 1.4)
    new_center = center + 0.3 * config.a_t * _SKEW
    pts = center + 0.45 * config.a_t * fibonacci_sphere(config.n_targets) * rng.uniform(
        0.3, 1.0, (config.n_targets, 1)
    )
    ps = list(range(config.p_min, config.p_max + 1))
    errs, scales = [], []
    for p in ps:
        exp = xp.le_from_charges(system, center, p, radius=config.a_t)
        shifted = xp.l2l(exp, new_center)
        vals = xp.eval_expansion(exp, pts)
        vals_sh = xp.eval_expansion(shifted, pts)
        errs.append(float(np.abs(vals - vals_sh).max()))
        scales.append(float(np.abs(vals).max()))
    meta = {
        "Q": system.total_abs_charge,
        "pointwise_scale": scales[-1],
        "oracle_scale": scales[-1],
    }
    return _verdict(
        config, ps, errs, [1e-12 * s for s in scales], float("nan"), meta
    )


def _free_m2l(config):
    system = _box_charges(config)
    center = system.source_box.center
    exp = xp.me_from_charges(system, center, config.p_max)
    sep = config.a_s + config.c * config.a_t
    target_center = center + sep * _SKEW
    targets = target_center + 0.9 * config.a_t * fibonacci_sphere(config.n_targets)
    sums = np.zeros((config.n_targets, config.p_max + 1))
    # highest order first: an order m2l_free does not support fails at once
    for p in range(config.p_max, config.p_min - 1, -1):
        loc = xp.m2l_free(xp.truncated(exp, p), target_center, p)
        sums[:, p] = xp.eval_expansion(loc, targets)
    return (system, targets, sums,
            (4 * math.pi * (config.c - 1) * config.a_t, config.a_s + config.a_t, sep),
            {"c": config.c, "separation": sep})


def _oracle(system, targets, medium, component, tol):
    """(potential of the charges at each target, M_sigma, stats).  In
    free space: direct sums, 1 and {}; for a reaction component: one call
    over every (target, charge) pair at absolute tolerance min(1e-10,
    tol), its density bound and the call's stats.  Over one finite layer
    the call is the image series (sommerfeld._image_green, summed to its
    rounding; stats: its term count and tail bound), which reads sigma's
    coefficients off its own real-axis values and shares no quadrature,
    Bessel, K or coefficient code with the operators; over any other
    medium, or where the series would pass its term budget
    (sommerfeld.IMAGE_GREEN_TERMS), it is the engine,
    sommerfeld._reaction_green (stats: its quadrature counters)."""
    if component is None:
        return np.array([xp.direct_potential(system, r) for r in targets]), 1.0, {}
    pairs = (medium, *component, targets[:, None], system.positions[None])
    found = None
    if medium.num_interfaces == 2:
        found = _image_green(*pairs, min(1e-10, tol))
    values, _, stats = found or _reaction_green(*pairs, min(1e-10, tol))
    a, b, ell, ellprime = component
    return values @ system.q, density_bound(medium, ell, ellprime, a, b), stats


def _stats_entry(stats, oracle=False):
    """The report metadata entry of an expansion's or (oracle) a reaction
    oracle's stats, named by the path that ran: image sums ("images",
    "oracle_images") or quadrature ("quadrature", "oracle_quadrature")."""
    path = "images" if "terms" in stats else "quadrature"
    return {f"oracle_{path}" if oracle else path: stats}


def _expansion(system, center, p, medium, component, radius):
    """The ME of the charges about center, or for a reaction component
    (a, b, l, l') about its polarization center."""
    if component is None:
        return xp.me_from_charges(system, center, p, radius)
    center = polarization_source(medium, *component, center)
    return xp.reaction_me_from_charges(system, medium, *component, center, p, radius)


def _me_setup(system, center, p, targets, medium=None, component=None, tol=1e-11,
              radius=None):
    """(exp, functions, stats): the ME of _expansion and the functions it
    sums at the targets, for a reaction component with the stats of its
    basis table (at relative tolerance tol) under the key of _stats_entry,
    in free space solid harmonics and {}.  A target on or inside the
    ME's sphere, or for a reaction component outside layer l, raises
    DomainError before any table runs."""
    if component is not None and any(medium.layer_of(z) != component[2]
                                     for z in targets[:, 2]):
        raise DomainError(f"every target must lie in layer {component[2]}")
    exp = _expansion(system, center, p, medium, component, radius)
    inside = np.linalg.norm(targets - exp.center, axis=-1) <= exp.radius
    if inside.any():
        raise DomainError(
            f"target {','.join(f'{v:g}' for v in targets[inside.argmax()])} lies "
            f"within radius {exp.radius:g} of the expansion center "
            f"{','.join(f'{v:g}' for v in exp.center)}"
        )
    if component is None:
        return exp, xp.solid_harmonics(exp, targets), {}
    functions, quad = xp.reaction_basis_table(medium, component, p, targets,
                                              exp.center, tol)
    return exp, functions, _stats_entry(quad)


def me_terms(system, center, p, targets, medium=None, component=None, tol=1e-11,
             radius=None):
    """The ME check of `layerfmm me`: _me_setup, then _oracle at the
    targets.  Returns (exp, functions, oracle, floor, M_sigma, stats): the
    ME and the functions it sums there, the oracle there, its _eps_floor,
    M_sigma and, for a reaction component, the stats of the basis table
    and of the oracle under the keys of _stats_entry ({} in free space)."""
    targets = np.asarray(targets, dtype=float)
    exp, functions, stats = _me_setup(system, center, p, targets, medium, component, tol,
                                      radius)
    oracle, msig, oracle_stats = _oracle(system, targets, medium, component, tol)
    if component is not None:
        stats = {**stats, **_stats_entry(oracle_stats, oracle=True)}
    floor = _eps_floor(component is not None, tol, float(np.max(np.abs(oracle), initial=0.0)))
    return exp, functions, oracle, floor, msig, stats


def _reaction_cloud(config, box_radius, cloud_radius):
    """(system, center, targets): charges in layer l' (_box_charges), the
    box of box_radius at target_center in layer l, targets on its sphere
    of cloud_radius."""
    ell, ellprime = config.component[2:]
    system = _box_charges(config, ellprime)
    center = np.asarray(config.target_center, dtype=float)
    check_box_in_layer(config.medium, center, box_radius, ell)
    return system, center, center + cloud_radius * fibonacci_sphere(config.n_targets)


def _reaction_me(config):
    spread = config.target_spread
    system, _, targets = _reaction_cloud(config, max(spread, 1e-9), spread)
    exp, basis, stats = _me_setup(
        system, system.source_box.center, config.p_max, targets, config.medium,
        config.component, config.quad_tol, config.a_s,
    )
    r_min = float(np.linalg.norm(targets - exp.center, axis=1).min())
    return (system, targets, _partial_sums(exp, basis),
            (4 * math.pi * (r_min - config.a_s), config.a_s, r_min),
            {"r_min": r_min, "a_s": config.a_s, **stats})


def _reaction_le(config):
    r_t = 0.6 * config.a_t
    system, center, targets = _reaction_cloud(config, config.a_t, r_t)
    exp, stats = xp.reaction_le_from_charges(
        system, config.medium, *config.component, center, config.p_max,
        radius=config.a_t, rel_tol=config.quad_tol, stats=True,
    )
    return (system, targets, _partial_sums(exp, xp.solid_harmonics(exp, targets)),
            (4 * math.pi * (config.a_t - r_t), r_t, config.a_t),
            {"r_t": r_t, "a_t": config.a_t, **_stats_entry(stats)})


def _reaction_m2l(config):
    system, tc, targets = _reaction_cloud(config, config.a_t, 0.9 * config.a_t)
    pm = config.p_max
    exp = _expansion(system, system.source_box.center, pm, config.medium,
                     config.component, config.a_s)
    sep = float(np.linalg.norm(tc - exp.center))
    c_eff = (sep - config.a_s) / config.a_t
    if c_eff <= 1.0:
        raise BoxesNotSeparated(f"boxes not well separated: effective c = {c_eff:.3f}")
    tmat, stats = xp.reaction_m2l_matrix(exp, config.medium, tc, pm, config.quad_tol)
    # local coefficients by source degree nu, packed [i, nu], so every
    # rectangular truncation (n <= p, nu <= p) is a partial double sum
    ns, ms = xp._packed_indices(pm)
    degree = (ns[:, None] == np.arange(pm + 1)).astype(float)
    by_nu = (tmat * xp._pack(exp.coeff, pm)) @ degree
    loc = xp.HarmonicExpansion("local", tc, pm, xp._unpack(by_nu.sum(axis=1), pm))
    basis = xp.solid_harmonics(loc, targets)[:, ns, ms + pm]
    # term[t, n, nu] = Re sum over packed i of degree n of basis * by_nu
    term = np.real(np.einsum("ti,iu,in->tnu", basis, by_nu, degree))
    grid = np.cumsum(np.cumsum(term, axis=1), axis=2)
    return (system, targets, np.diagonal(grid, axis1=1, axis2=2),
            (2 * math.pi * (c_eff - 1) * config.a_t, config.a_s + config.a_t,
             config.a_s + c_eff * config.a_t),
            {"c_eff": c_eff, "separation": sep, **_stats_entry(stats)})


#: the geometric kinds; l2l, whose shift is exact, runs on its own
_KINDS = {
    "me": _free_me,
    "le": _free_le,
    "m2m": _free_m2m,
    "m2l": _free_m2l,
    "reaction_me": _reaction_me,
    "reaction_le": _reaction_le,
    "reaction_m2l": _reaction_m2l,
}


def run_experiment(config):
    """Execute the experiment of config.kind and return its report.  A
    geometric kind returns (system, targets, sums, (denom, inner, outer),
    meta), sums[t, p] its value at target t truncated at order p; this
    certifies the paper's bound shape max_t |sums[t, p] - oracle[t]| <=
    Q M_sigma / denom (inner / outer)^(p+1) for p_min <= p <= p_max, at
    the rate log(outer / inner), against one _oracle call (M_sigma is 1
    in free space, and is recorded with the oracle's stats for the
    reaction kinds)."""
    if config.kind == "l2l":
        return _free_l2l(config)
    system, targets, sums, (denom, inner, outer), meta = _KINDS[config.kind](config)
    reaction = config.kind.startswith("reaction")
    medium, component = (config.medium, config.component) if reaction else (None, None)
    oracle, msig, stats = _oracle(system, targets, medium, component, config.quad_tol)
    q = system.total_abs_charge
    meta.update({"Q": q, "oracle_scale": float(np.abs(oracle).max())})
    if reaction:
        meta.update({"M_sigma": msig, **_stats_entry(stats, oracle=True)})
    ps = list(range(config.p_min, config.p_max + 1))
    errs = np.abs(sums - oracle[:, None]).max(axis=0)[config.p_min:].tolist()
    bounds = [q * msig / denom * (inner / outer) ** (p + 1) for p in ps]
    return _verdict(config, ps, errs, bounds, math.log(outer / inner), meta)

# ---------------------------------------------------------------------------
# property suites
# ---------------------------------------------------------------------------

def _suite_lemma21():
    """Key inequality for the cumulative interface matrices at random
    media and 10,000 random spectral points in the closed right half plane."""
    rng = np.random.default_rng(7)
    violations = 0
    worst = math.inf
    n_done = 0
    while n_done < 10_000:
        L = int(rng.integers(1, 6))
        d = np.sort(rng.uniform(-5, 5, L))[::-1]
        if L > 1 and np.min(-np.diff(d)) < 1e-3:
            continue
        med = LayeredMedium(d, rng.uniform(0.1, 10, L + 1), rng.uniform(0.1, 10, L + 1))
        batch = min(200, 10_000 - n_done)
        k = rng.uniform(0, 50, batch) + 1j * rng.uniform(-50, 50, batch)
        k = np.abs(k.real) + 1j * k.imag
        mats = InterfaceMatrices(med, k)
        prod = 1.0
        for l in range(1, L + 1):
            prod *= mats.gamma_plus[l] ** 2 - mats.gamma_minus[l] ** 2
            al = mats.alpha[l]
            margin = (np.abs(al[1]) ** 2 - np.abs(al[0]) ** 2) / prod
            worst = min(worst, float(margin.min()))
            violations += int(np.sum(margin < 1.0 - 1e-10))
        n_done += batch
    return {"passed": violations == 0, "worst_margin": worst, "samples": n_done}


def _suite_density_props():
    """Conjugate symmetry, boundedness on a real grid, |e_l| <= 1."""
    rng = np.random.default_rng(11)
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
            bnd = density_bound(med, ell, ellp, *comp)
            grid = np.linspace(0.0, 200.0, 512)
            vals = np.abs(reaction_densities(med, ell, ellp, grid).get(*comp))
            if vals.max() > bnd * (1 + 1e-9) + 1e-14:
                ok = False
    return {"passed": ok and worst < 1e-12, "worst_conjugation": worst, "samples": 20}


def _translation_theorem_residuals(rng):
    """Normalized residuals of the three harmonic translation theorems,
    four samples each, at truncation cap = 24 with center separation ratio
    1/8, where the geometric remainder sits far below 1e-12."""
    cap = 24
    cst = constants(cap + 4)
    worst = 0.0
    for kind in ("outer_outer", "outer_inner", "inner"):
        for _ in range(4):
            q = rng.normal(size=3)
            q /= np.linalg.norm(q)
            p_vec = rng.normal(size=3)
            p_vec /= np.linalg.norm(p_vec)
            p_vec *= {"outer_outer": 8.0, "outer_inner": 0.125, "inner": 0.7}[kind]
            (rho, r, rp), (t_q, t_p, t_s), (p_q, p_p, p_s) = cartesian_to_spherical(
                np.array([q, p_vec, p_vec - q])
            )
            yq, yp = sph_harm_table(cap + 4, np.array([t_q, t_p]), np.array([p_q, p_p]))
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


def _suite_addition_theorems():
    """Legendre addition theorem, the three harmonic translation
    theorems, and the complex-direction polynomial identity behind the
    Sommerfeld basis reduction."""
    rng = np.random.default_rng(3)
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
    groups = {"all": list(suites), "density_props": ["lemma21", "density_props"]}
    if kind not in suites and kind not in groups:
        raise DomainError(f"unknown suite kind {kind!r}")
    return {name: suites[name]() for name in groups.get(kind, [kind])}
