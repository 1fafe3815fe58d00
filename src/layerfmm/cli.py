"""Command-line interface.

Subcommands:
    density   reaction densities on a spectral grid, CSV
    green     one reaction Green's function value with its error estimate
    me        reaction/free multipole expansion vs oracle at target points
    lab run   convergence experiment from a JSON config
    lab suite property suites (exit code 0 iff everything passes)
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import expansions as xp
from .densities import density_bound, ReactionDensity, reaction_densities
from .errors import ComponentAbsent
from .lab import ExperimentConfig, run_experiment, run_property_suite
from .medium import LayeredMedium, polarization_source, tau_map
from .sommerfeld import eval_reaction_green, radial_table


def _parse_vec(text):
    parts = [float(v) for v in text.split(",")]
    if len(parts) != 3:
        raise click.BadParameter(f"expected x,y,z, got {text!r}")
    return np.array(parts)


def _parse_component(text):
    if text == "free":
        return None
    if len(text) == 2 and text[0] in "12" and text[1] in "12":
        return int(text[0]), int(text[1])
    raise click.BadParameter("component must be one of 11, 12, 21, 22, free")


@click.group()
def main():
    """Layered-media Laplace expansion toolkit."""


@main.command()
@click.option("--medium", "medium_path", required=True, type=click.Path(exists=True))
@click.option("--ell", type=int, required=True, help="target layer index")
@click.option("--ellprime", type=int, required=True, help="source layer index")
@click.option("--k-grid", default="0:50:512", help="start:stop:count")
@click.option("--out", type=click.Path(), default="-")
def density(medium_path, ell, ellprime, k_grid, out):
    """Emit CSV of every present sigma^{ab} on a real spectral grid."""
    medium = LayeredMedium.from_json(medium_path)
    start, stop, count = k_grid.split(":")
    ks = np.linspace(float(start), float(stop), int(count))
    dens = reaction_densities(medium, ell, ellprime, ks)
    comps = dens.components
    header = ["k"]
    for a, b in comps:
        header += [f"re_sigma{a}{b}", f"im_sigma{a}{b}"]
    lines = [",".join(header)]
    cols = [dens.get(a, b) for a, b in comps]
    for i, k in enumerate(ks):
        row = [f"{k:.16e}"]
        for col in cols:
            row += [f"{col[i].real:.16e}", f"{col[i].imag:.16e}"]
        lines.append(",".join(row))
    text = "\n".join(lines) + "\n"
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@main.command()
@click.option("--medium", "medium_path", required=True, type=click.Path(exists=True))
@click.option("--component", default="11")
@click.option("--source", required=True, help="x,y,z of the source point")
@click.option("--target", required=True, help="x,y,z of the target point")
@click.option("--tol", default=1e-10, type=float)
def green(medium_path, component, source, target, tol):
    """One reaction component value with its achieved error estimate."""
    medium = LayeredMedium.from_json(medium_path)
    a, b = _parse_component(component)
    rp = _parse_vec(source)
    r = _parse_vec(target)
    ell = medium.layer_of(r[2])
    ellprime = medium.layer_of(rp[2])
    dens = ReactionDensity(medium, a, b, ell, ellprime)
    tau = tau_map(medium, a, b, ell, ellprime, r, rp)
    rho = math.hypot(tau[0], tau[1])
    vals, errs, stats = radial_table(
        dens, rho, float(tau[2]), [0], [0], np.array([[tol * 4 * math.pi]])
    )
    value = vals[0, 0].real / (4 * math.pi)
    err = errs[0, 0] / (4 * math.pi)
    click.echo(
        f"u^{a}{b}_({ell},{ellprime}) = {value:.15e}  "
        f"error_estimate = {err:.3e}  panels = {stats['panels']}  "
        f"gl_calls = {stats['gl_calls']}  evals = {stats['evals']}"
    )


@main.command()
@click.option("--medium", "medium_path", type=click.Path(exists=True), default=None)
@click.option("--charges", "charges_path", required=True, type=click.Path(exists=True))
@click.option("--component", default="free")
@click.option("--center", required=True, help="x,y,z of the source box center")
@click.option("--p", "order", default=12, type=int)
@click.option("--targets", "targets_path", required=True, type=click.Path(exists=True))
@click.option("--tol", default=1e-11, type=float)
@click.option("--out", type=click.Path(), default="-")
def me(medium_path, charges_path, component, center, order, targets_path, tol, out):
    """Multipole expansion vs brute-force oracle at target points.

    Emits CSV: x, y, z, expansion, oracle, abs_error, bound.
    """
    with open(charges_path) as fh:
        cdata = json.load(fh)["charges"]
    q = [row[0] for row in cdata]
    pos = [row[1:4] for row in cdata]
    with open(targets_path) as fh:
        targets = np.asarray(json.load(fh)["targets"], dtype=float)
    center = _parse_vec(center)
    comp = _parse_component(component)
    lines = ["x,y,z,expansion,oracle,abs_error,bound"]

    if comp is None:
        system = xp.ChargeSystem.free_space(q, pos)
        exp = xp.me_from_charges(system, center, order)
        qq = system.total_abs_charge
        for r in targets:
            val = xp.eval_expansion(exp, r)
            ora = xp.direct_potential(system, r)
            rr = float(np.linalg.norm(r - center))
            bound = qq / (4 * math.pi * (rr - exp.radius)) * (exp.radius / rr) ** (
                order + 1
            )
            lines.append(
                f"{r[0]:.16e},{r[1]:.16e},{r[2]:.16e},"
                f"{val:.16e},{ora:.16e},{abs(val - ora):.16e},{bound:.16e}"
            )
    else:
        if medium_path is None:
            raise click.UsageError("reaction components need --medium")
        medium = LayeredMedium.from_json(medium_path)
        a, b = comp
        system = xp.ChargeSystem.in_medium(medium, q, pos)
        ellprime = int(system.layers[0])
        ell = medium.layer_of(targets[0][2])
        pol_center = polarization_source(medium, a, b, ell, ellprime, center)
        exp = xp.reaction_me_from_charges(
            system, medium, a, b, ell, ellprime, pol_center, order
        )
        msig = density_bound(medium, ell, ellprime, a, b)
        qq = system.total_abs_charge
        for r in targets:
            val = xp.eval_reaction_me(exp, medium, r, tol)
            try:
                ora = sum(
                    qj * eval_reaction_green(medium, a, b, ell, ellprime, r, pj)
                    for qj, pj in zip(system.q, system.positions)
                )
            except ComponentAbsent:
                ora = 0.0
            rr = float(np.linalg.norm(r - pol_center))
            bound = (
                qq * msig / (4 * math.pi * (rr - exp.radius))
                * (exp.radius / rr) ** (order + 1)
            )
            lines.append(
                f"{r[0]:.16e},{r[1]:.16e},{r[2]:.16e},"
                f"{val:.16e},{ora:.16e},{abs(val - ora):.16e},{bound:.16e}"
            )
    text = "\n".join(lines) + "\n"
    if out == "-":
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@main.group()
def lab():
    """Experiment harness."""


@lab.command("run")
@click.option("--config", "config_path", required=True, type=click.Path(exists=True))
@click.option("--out", type=click.Path(), default=None, help="CSV report path")
@click.option("--json", "json_path", type=click.Path(), default=None)
def lab_run(config_path, out, json_path):
    """Run a convergence experiment; exit 0 iff all bound checks pass."""
    config = ExperimentConfig.from_json(config_path)
    report = run_experiment(config)
    if out:
        with open(out, "w") as fh:
            fh.write(report.to_csv())
    else:
        click.echo(report.to_csv(), nl=False)
    if json_path:
        with open(json_path, "w") as fh:
            fh.write(report.to_json())
    click.echo(
        f"kind={report.kind} passed={report.passed} "
        f"rate_fit={report.rate_fit:.4f} rate_theory={report.rate_theory:.4f}",
        err=True,
    )
    if not report.passed:
        sys.exit(1)


@lab.command("suite")
@click.option("--kind", default="all")
def lab_suite(kind):
    """Run the invariant property suites; exit 0 iff all pass."""
    summary = run_property_suite(kind)
    click.echo(json.dumps(summary, indent=2, sort_keys=True, default=float))
    if not all(entry["passed"] for entry in summary.values()):
        sys.exit(1)


if __name__ == "__main__":
    main()
