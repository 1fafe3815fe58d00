"""The benchmark's workloads: seeded op lists, the op that is timed, and
the checks of its outputs, which run outside the timed spans.

Every op of a workload is the same kind of work.  Continuous input
properties that set an op's cost are drawn stratified, one draw near the
middle of each of n equal strata, so two seeds give op lists with nearly
the same cost profile; the seed moves the draws inside the middle quarter
of their strata and draws the charges and the order of the components.

The package is called through its module attributes (`xp.m2m`, ...) so
that the traced run, which rebinds those attributes, sees every call.
"""

from __future__ import annotations

import math

import numpy as np

import reference as ref
from layerfmm import expansions as xp
from layerfmm import lab
from layerfmm import medium as md
from layerfmm.densities import density_bound
from layerfmm.harmonics import constants

#: three-layer slab of the acceptance criteria 7-8: interfaces 0, -1
SLAB = md.LayeredMedium([0.0, -1.0], [1.0, 1.0, 1.0], [1.0, 3.0, 8.0])
#: four layers, three interfaces; sources in layer 1, targets in layer 2
STACK = md.LayeredMedium([0.0, -1.0, -2.0], [1.0] * 4, [1.0, 4.0, 2.0, 8.0])


def _strata(rng, n):
    """n draws in (0, 1), the i-th within 1/8 of a stratum of (i + 1/2)/n."""
    return (np.arange(n) + 0.5 + 0.25 * (rng.uniform(size=n) - 0.5)) / n


def _ball(rng, n, center, radius):
    """n points uniform in a ball and n charges uniform in [-1, 1]."""
    direc = rng.normal(size=(n, 3))
    direc /= np.linalg.norm(direc, axis=1, keepdims=True)
    radii = radius * rng.uniform(size=(n, 1)) ** (1.0 / 3.0)
    return rng.uniform(-1.0, 1.0, n), np.asarray(center) + direc * radii


def _unit(rng):
    v = rng.normal(size=3)
    return v / np.linalg.norm(v)


class Workload:
    #: ops checked against the reference: every CHECK_EVERY-th of a round
    CHECK_EVERY = 1

    def full_check(self, index):
        return index % self.CHECK_EVERY == 0


class Certify(Workload):
    """One op: the reaction ME, LE and M2L certification experiments of
    acceptance criteria 7-8 for one (component, seed), at reduced p and
    charge and target counts.  The time goes to the oracle's 1x1 radial
    tables and tiny density sweeps, all at rho/zeta <~ 1."""

    name = "certify"
    ops_per_round = 2
    CHARGES, TARGETS, QUAD_TOL = 3, 6, 1e-12
    #: p_max per experiment; the ME rate fit needs rows p > 6 above the
    #: quadrature floor, the LE and M2L bound rows do not
    P = {"reaction_me": 12, "reaction_le": 6, "reaction_m2l": 6}
    COMPONENTS = ((1, 1, 1, 1), (2, 2, 1, 1))
    ME_TARGET = {(1, 1, 1, 1): (0.0, 0.0, -0.25), (2, 2, 1, 1): (0.15, 0.1, -0.3)}
    #: lab target placement: targets sit at this radius about target_center
    TARGET_RADIUS = {
        "reaction_me": lambda c: c.target_spread,
        "reaction_le": lambda c: 0.6 * c.a_t,
        "reaction_m2l": lambda c: 0.9 * c.a_t,
    }

    def ops(self, seed, n=None):
        rng = np.random.default_rng(seed)
        out = []
        for i in range(n or self.ops_per_round):
            comp = self.COMPONENTS[i % 2]
            base = int(rng.integers(1 << 30))
            dx, dy = rng.uniform(-0.03, 0.03, 2)
            dz = float(rng.uniform(-0.01, 0.01))
            common = dict(
                medium=SLAB, component=comp, p_min=1,
                n_charges=self.CHARGES, n_targets=self.TARGETS,
                quad_tol=self.QUAD_TOL, source_center=(0.0, 0.0, -0.5),
            )
            tx, ty, tz = self.ME_TARGET[comp]
            out.append((
                lab.ExperimentConfig(
                    kind="reaction_me", seed=base, a_s=0.3, p_max=self.P["reaction_me"],
                    target_center=(tx + dx, ty + dy, tz + dz),
                    target_spread=0.05, **common,
                ),
                lab.ExperimentConfig(
                    kind="reaction_le", seed=base + 1, p_max=self.P["reaction_le"],
                    a_s=0.25, a_t=0.35,
                    target_center=(0.9 + dx, 0.6 + dy, -0.45 + dz), **common,
                ),
                lab.ExperimentConfig(
                    kind="reaction_m2l", seed=base + 2, p_max=self.P["reaction_m2l"],
                    a_s=0.3, a_t=0.15,
                    c=3.0, target_center=(0.3375 + dx, dy, -0.83), **common,
                ),
            ))
        return out

    def warm(self, ops):
        for comp in self.COMPONENTS:
            density_bound(SLAB, comp[2], comp[3], comp[0], comp[1])
        constants(2 * max(self.P.values()))

    def run(self, op):
        return [lab.run_experiment(cfg) for cfg in op]

    @staticmethod
    def same(a, b):
        return all(
            x.errors == y.errors and x.bounds == y.bounds for x, y in zip(a, b)
        )

    def check(self, op, reports, full):
        """Bound rows pass; errors decay: errors[0] > 30 errors[-1], and the
        fitted rate > 0.7 of theory (ME and LE; a 4-row M2L fit at p <= 6
        is not a stable estimate of the rate).  full: the oracle scale of
        every report matches the independent reference."""
        for cfg, rep in zip(op, reports):
            if not (rep.passed and all(rep.passed_rows)):
                return f"{cfg.kind}: bound rows fail"
            if not rep.errors[0] > 30.0 * rep.errors[-1]:
                return f"{cfg.kind}: errors do not decay 30x"
            if cfg.kind != "reaction_m2l" and not rep.rate_fit > 0.7 * rep.rate_theory:
                return f"{cfg.kind}: rate {rep.rate_fit:.3g} < 0.7 x {rep.rate_theory:.3g}"
            if full:
                a, b, ell, ellprime = cfg.component
                box = xp.Box(np.asarray(cfg.source_center), cfg.a_s)
                charges = lab.generate_charges(cfg.seed, cfg.n_charges, box, SLAB, ellprime)
                targets = np.asarray(cfg.target_center) + self.TARGET_RADIUS[cfg.kind](
                    cfg
                ) * lab.fibonacci_sphere(cfg.n_targets)
                want = np.abs(ref.reaction_potential(
                    SLAB, ell, ellprime, a, b, charges.q, charges.positions, targets
                )).max()
                got = rep.metadata["oracle_scale"]
                if abs(got - want) > 1e-8 * want + cfg.n_charges * 1e-10:
                    return f"{cfg.kind}: oracle scale {got!r} != reference {want!r}"
        return None


class ReactionOps(Workload):
    """One op: one far-field box pair at FMM order P, for one of the four
    components in STACK: reaction_me_from_charges, then the reaction M2L
    (reaction_m2l_matrix applied to the packed moments).  rho/zeta of the
    M2L table is log-stratified over [0.5, 60]."""

    name = "reaction_ops"
    ops_per_round = 12
    P, CHARGES, TARGETS, REL_TOL = 8, 16, 6, 1e-11
    A_S = A_T = 0.08
    ELL, ELLPRIME = 2, 1
    COMPONENTS = ((1, 1), (1, 2), (2, 1), (2, 2))
    RHO_OVER_ZETA = (0.5, 60.0)
    CHECK_EVERY = 4

    def ops(self, seed, n=None):
        n = n or self.ops_per_round
        rng = np.random.default_rng(seed)
        lo, hi = self.RHO_OVER_ZETA
        ratios = lo * (hi / lo) ** _strata(rng, n)
        which = rng.permutation(np.arange(n) % 4)
        d = STACK.interfaces
        out = []
        for i in range(n):
            a, b = self.COMPONENTS[which[i]]
            zeta = float(rng.uniform(0.4, 0.6))
            zt = 0.1 + float(rng.uniform(0.3, 0.7)) * (zeta - 0.2)
            zs = zeta - zt
            angle = float(rng.uniform(0.0, 2.0 * math.pi))
            rho = ratios[i] * zeta
            zsrc = d[self.ELLPRIME] + zs if b == 1 else d[self.ELLPRIME - 1] - zs
            ztgt = d[self.ELL] + zt if a == 1 else d[self.ELL - 1] - zt
            src = np.array([0.0, 0.0, zsrc])
            tgt = np.array([rho * math.cos(angle), rho * math.sin(angle), ztgt])
            q, pos = _ball(rng, self.CHARGES, src, self.A_S)
            system = xp.ChargeSystem.in_medium(STACK, q, pos)
            out.append({"component": (a, b), "source": src, "target": tgt, "system": system})
        return out

    def warm(self, ops):
        for a, b in self.COMPONENTS:
            density_bound(STACK, self.ELL, self.ELLPRIME, a, b)
        constants(2 * self.P)

    def _pass(self, op, me, p):
        return xp.m2l_reaction(
            me, STACK, op["target"], p, self.REL_TOL, target_radius=self.A_T
        )

    def run(self, op):
        a, b = op["component"]
        center = md.polarization_source(STACK, a, b, self.ELL, self.ELLPRIME, op["source"])
        me = xp.reaction_me_from_charges(
            op["system"], STACK, a, b, self.ELL, self.ELLPRIME, center, self.P,
            radius=self.A_S,
        )
        return me, self._pass(op, me, self.P)

    @staticmethod
    def same(a, b):
        return np.array_equal(a[1].coeff, b[1].coeff)

    def check(self, op, out, full):
        """Local coefficients finite and conjugate-symmetric (real charges).
        full: errors against the reference within the paper's M2L bound,
        and smaller at P than at P/2."""
        me, loc = out
        if not np.all(np.isfinite(loc.coeff)):
            return "non-finite local coefficients"
        scale = float(np.abs(loc.coeff).max())
        if loc.conjugate_symmetry_defect() > 1e-12 * scale:
            return "local coefficients not conjugate-symmetric"
        if not full:
            return None
        a, b = op["component"]
        system = op["system"]
        targets = op["target"] + 0.9 * self.A_T * lab.fibonacci_sphere(self.TARGETS)
        want = ref.reaction_potential(
            STACK, self.ELL, self.ELLPRIME, a, b, system.q, system.positions, targets
        )
        half = self._pass(op, xp.truncated(me, self.P // 2), self.P // 2)
        err = {
            p: float(np.abs(ref.eval_local(e.coeff, op["target"], targets).real - want).max())
            for p, e in ((self.P, loc), (self.P // 2, half))
        }
        sep = float(np.linalg.norm(op["target"] - me.center))
        c_eff = (sep - self.A_S) / self.A_T
        m_sigma = ref.sigma_bound(
            (STACK.interfaces, STACK.a, STACK.b), self.ELL, self.ELLPRIME, a, b
        )
        ratio = (self.A_S + self.A_T) / (self.A_S + c_eff * self.A_T)
        bound = (
            system.total_abs_charge * m_sigma / (2.0 * math.pi * (c_eff - 1.0) * self.A_T)
            * ratio ** (self.P + 1)
        )
        floor = 100.0 * self.REL_TOL * float(np.abs(want).max())
        if err[self.P] > bound + floor:
            return f"M2L error {err[self.P]:.3g} above bound {bound:.3g}"
        if not (err[self.P] < err[self.P // 2] or err[self.P // 2] <= floor):
            return f"error does not fall from p/2 ({err[self.P // 2]:.3g}) to p"
        return None


class FreeSpace(Workload):
    """One op: one free-space box-pair pass at order P: P2M in a leaf,
    M2M to its parent, M2L to the target parent, L2L to a target leaf and
    L2P at the targets.  The separation factor c is stratified over
    [2, 4]."""

    name = "free_space"
    ops_per_round = 64
    P, CHARGES, TARGETS = 10, 48, 24
    LEAF, PARENT = 0.25, 0.5
    SEPARATION = (2.0, 4.0)

    def ops(self, seed, n=None):
        n = n or self.ops_per_round
        rng = np.random.default_rng(seed)
        lo, hi = self.SEPARATION
        cs = lo + (hi - lo) * _strata(rng, n)
        out = []
        for i in range(n):
            parent = np.zeros(3)
            leaf = parent + (self.PARENT - self.LEAF) * _unit(rng)
            q, pos = _ball(rng, self.CHARGES, leaf, self.LEAF)
            target_parent = parent + (self.PARENT + cs[i] * self.PARENT) * _unit(rng)
            target_leaf = target_parent + (self.PARENT - self.LEAF) * _unit(rng)
            _, targets = _ball(rng, self.TARGETS, target_leaf, 0.9 * self.LEAF)
            out.append({
                "c": float(cs[i]), "leaf": leaf, "parent": parent,
                "target_parent": target_parent, "target_leaf": target_leaf,
                "system": xp.ChargeSystem.free_space(q, pos), "targets": targets,
            })
        return out

    def warm(self, ops):
        constants(2 * self.P)

    def run(self, op, p=None):
        p = p or self.P
        me = xp.me_from_charges(op["system"], op["leaf"], p, radius=self.LEAF)
        me = xp.m2m(me, op["parent"])
        loc = xp.m2l_free(me, op["target_parent"], p, target_radius=self.PARENT)
        loc = xp.l2l(loc, op["target_leaf"])
        return np.array([xp.eval_expansion(loc, x) for x in op["targets"]])

    @staticmethod
    def same(a, b):
        return np.array_equal(a, b)

    def check(self, op, values, full):
        """Errors against the direct sum within the classical M2L bound,
        and smaller at P than at P/2."""
        system = op["system"]
        want = ref.free_potential(system.q, system.positions, op["targets"])
        err = float(np.abs(values - want).max())
        err_half = float(np.abs(self.run(op, self.P // 2) - want).max())
        ratio = 2.0 * self.PARENT / (self.PARENT + op["c"] * self.PARENT)
        bound = (
            system.total_abs_charge / (4.0 * math.pi * (op["c"] - 1.0) * self.PARENT)
            * ratio ** (self.P + 1)
        )
        floor = 64.0 * np.finfo(float).eps * float(np.abs(want).max())
        if err > bound + floor:
            return f"M2L error {err:.3g} above bound {bound:.3g}"
        if not err < err_half:
            return f"error does not fall from p/2 ({err_half:.3g}) to p ({err:.3g})"
        return None


WORKLOADS = {w.name: w for w in (Certify(), ReactionOps(), FreeSpace())}
