"""Command-line interface.

Subcommands:
    density   reaction densities on a spectral grid, CSV
    green     one reaction Green's function value with its error estimate
    me        reaction/free multipole expansion vs oracle at target points
    lab run   convergence experiment from a JSON config
    lab suite property suites (exit code 0 iff everything passes)

Every command exits 0 on success, 1 when a check it runs fails, and 2 on
bad input: a DomainError, which the package raises for every input
outside the hypotheses of its results, or an option that does not parse.
"""

from __future__ import annotations

import json
import math
import sys

import click
import numpy as np

from . import expansions as xp
from .densities import reaction_densities
from .errors import DomainError
from .harmonics import MAX_ORDER
from .lab import ExperimentConfig, me_terms, run_experiment, run_property_suite
from .medium import LayeredMedium
from .sommerfeld import _reaction_green


class _Main(click.Group):
    """The command group; its commands report a DomainError as a usage
    error."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except DomainError as exc:
            raise click.UsageError(str(exc)) from exc


def _parse(text, sep, types, form):
    """The sep-separated fields of text, each converted by its click type;
    BadParameter for the wrong number of fields or a field that does not
    convert."""
    fields = text.split(sep)
    if len(fields) != len(types):
        raise click.BadParameter(f"expected {form}, got {text!r}")
    return [kind.convert(v, None, None) for kind, v in zip(types, fields)]


def _parse_vec(text):
    return np.array(_parse(text, ",", (click.FLOAT,) * 3, "x,y,z"))


def _load_rows(path, key, width):
    """The rows under `key` of a JSON object file as an (N, width) array; a
    usage error unless they are a nonempty list of rows of `width` numbers."""
    try:
        with open(path) as fh:
            rows = np.asarray(json.load(fh)[key], dtype=float)
    except (KeyError, TypeError, ValueError):
        rows = np.empty(0)
    if rows.shape[1:] != (width,) or not len(rows):
        raise click.UsageError(f"{key}: need a nonempty list of {width}-number rows")
    return rows


#: the reaction components (a, b) a command takes, as "ab"
_COMPONENTS = ["11", "12", "21", "22"]


def _emit(text, out):
    """Write text to the file `out`, or to stdout for "-" or None."""
    if out in ("-", None):
        click.echo(text, nl=False)
    else:
        with open(out, "w") as fh:
            fh.write(text)


@click.group(cls=_Main)
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
    ks = np.linspace(*_parse(k_grid, ":", (click.FLOAT, click.FLOAT, click.IntRange(0)),
                             "start:stop:count"))
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
    _emit("\n".join(lines) + "\n", out)


@main.command()
@click.option("--medium", "medium_path", required=True, type=click.Path(exists=True))
@click.option("--component", default="11", type=click.Choice(_COMPONENTS))
@click.option("--source", required=True, help="x,y,z of the source point")
@click.option("--target", required=True, help="x,y,z of the target point")
@click.option("--tol", default=1e-10, type=float)
def green(medium_path, component, source, target, tol):
    """One reaction component value with its achieved error estimate."""
    medium = LayeredMedium.from_json(medium_path)
    a, b = map(int, component)
    rp = _parse_vec(source)
    r = _parse_vec(target)
    ell = medium.layer_of(r[2])
    ellprime = medium.layer_of(rp[2])
    value, err, stats = _reaction_green(medium, a, b, ell, ellprime, r, rp, tol)
    click.echo(
        f"u^{a}{b}_({ell},{ellprime}) = {value:.15e}  "
        f"error_estimate = {err:.3e}  panels = {stats['panels']}  "
        f"gl_calls = {stats['gl_calls']}  nodes = {stats['nodes']}  "
        f"evals = {stats['evals']}  certified = {stats['certified']}  "
        f"tol_use = {stats['tol_use']:.3e}"
    )


@main.command()
@click.option("--medium", "medium_path", type=click.Path(exists=True), default=None)
@click.option("--charges", "charges_path", required=True, type=click.Path(exists=True))
@click.option("--component", default="free", type=click.Choice(_COMPONENTS + ["free"]))
@click.option("--center", required=True, help="x,y,z of the source box center")
@click.option("--p", "order", default=12, type=click.IntRange(0, MAX_ORDER))
@click.option("--targets", "targets_path", required=True, type=click.Path(exists=True))
@click.option("--tol", default=1e-11, type=float)
@click.option("--out", type=click.Path(), default="-")
@click.option("--stats", "show_stats", is_flag=True,
              help="print the expansion's and the oracle's stats of a reaction "
                   "component to stderr")
def me(medium_path, charges_path, component, center, order, targets_path, tol, out,
       show_stats):
    """Multipole expansion vs brute-force oracle at target points.

    Emits CSV: x, y, z, expansion, oracle, abs_error, bound, from the lab's
    ME check (lab.me_terms); a reaction oracle runs at min(1e-10, tol).
    bound is the truncation bound plus the smallest error the comparison
    with the oracle can certify.  A reaction component runs from the
    layers of the first target and the first charge.  A target within the
    expansion radius, and a target or charge outside those layers, are
    usage errors (a DomainError of the check).  With --stats a reaction
    component also prints the stats of its basis table and of its oracle
    to stderr, one line each, named by the path that ran as in lab
    reports: "quadrature" and "oracle_quadrature" (the engine's counters),
    or over one finite layer "images" and "oracle_images" (the image
    sums' term count and tail bound).
    """
    charges = _load_rows(charges_path, "charges", 4)
    targets = _load_rows(targets_path, "targets", 3)
    comp = None if component == "free" else tuple(map(int, component))
    if comp is None:
        system = xp.ChargeSystem.free_space(charges[:, 0], charges[:, 1:])
        medium = None
    else:
        if medium_path is None:
            raise click.UsageError("reaction components need --medium")
        medium = LayeredMedium.from_json(medium_path)
        system = xp.ChargeSystem.in_medium(medium, charges[:, 0], charges[:, 1:])
        comp += (medium.layer_of(targets[0][2]), int(system.layers[0]))
    exp, functions, oracle, floor, msig, stats = me_terms(
        system, _parse_vec(center), order, targets, medium, comp, tol
    )
    values = xp._expansion_sum(exp, functions)
    if show_stats:
        for name, rec in stats.items():
            counts = "  ".join(f"{k} = {v:.3e}" if isinstance(v, float) else f"{k} = {v}"
                               for k, v in rec.items())
            click.echo(f"{name}: {counts}", err=True)
    lines = ["x,y,z,expansion,oracle,abs_error,bound"]
    for r, val, ora in zip(targets, values, oracle):
        rr = float(np.linalg.norm(r - exp.center))
        bound = floor + (
            system.total_abs_charge * msig / (4 * math.pi * (rr - exp.radius))
            * (exp.radius / rr) ** (order + 1)
        )
        lines.append(
            f"{r[0]:.16e},{r[1]:.16e},{r[2]:.16e},"
            f"{val:.16e},{ora:.16e},{abs(val - ora):.16e},{bound:.16e}"
        )
    _emit("\n".join(lines) + "\n", out)


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
    _emit(report.to_csv(), out)
    if json_path:
        _emit(report.to_json(), json_path)
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
