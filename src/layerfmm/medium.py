"""Layered-medium geometry.

A medium with L horizontal interfaces at heights d_0 > d_1 > ... > d_{L-1}
has L+1 layers indexed 0 (top, z > d_0) through L (bottom, z < d_{L-1});
layer l occupies d_l < z < d_{l-1}.  Each layer carries a pair of positive
interface constants (a_l, b_l); the classical dielectric transmission
conditions correspond to a_l = 1, b_l = eps_l.

This module owns the four coordinate mappings tau^{ab} that carry a
(target, source) pair into the argument of the decaying spectral kernel,
the xy-plane reflection, and the equivalent polarization sources which
turn each reaction component into a function of a Euclidean difference.
"""

from __future__ import annotations

import json
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import (
    BoxCrossesInterface,
    ComponentAbsent,
    DomainError,
    IndexOutOfRange,
    PointOnInterface,
)


@dataclass(frozen=True)
class LayeredMedium:
    """Interfaces plus per-layer interface constants.

    interfaces : strictly decreasing heights d_0 > ... > d_{L-1}
    a, b       : L+1 positive constants each, one pair per layer
    """

    interfaces: tuple
    a: tuple
    b: tuple

    def __init__(self, interfaces, a, b):
        for name, given in (("interfaces", interfaces), ("a", a), ("b", b)):
            if not isinstance(given, (list, tuple, np.ndarray)) or not all(
                isinstance(v, numbers.Real) for v in given
            ):
                raise DomainError(f"medium {name} must be a list of numbers, got {given!r}")
            object.__setattr__(self, name, tuple(float(v) for v in given))
        self._validate()

    def _validate(self):
        d = self.interfaces
        if any(not np.isfinite(v) for v in d + self.a + self.b):
            raise DomainError("medium parameters must be finite")
        if any(d[i] <= d[i + 1] for i in range(len(d) - 1)):
            raise DomainError("interface heights must be strictly decreasing")
        if len(self.a) != len(d) + 1 or len(self.b) != len(d) + 1:
            raise DomainError("need exactly L+1 values of a and b for L interfaces")
        if any(v <= 0 for v in self.a) or any(v <= 0 for v in self.b):
            raise DomainError("all interface constants a_l, b_l must be positive")

    @property
    def num_interfaces(self):
        return len(self.interfaces)

    @property
    def interface_tolerance(self):
        """Rejection band around interfaces: 1e-14 * (max|d| + 1)."""
        scale = max((abs(d) for d in self.interfaces), default=0.0)
        return 1e-14 * (scale + 1.0)

    def layer_of(self, z):
        """Index l with d_l < z < d_{l-1}.

        Points within the interface tolerance are rejected rather than
        snapped; snapping would corrupt the positivity invariants of the
        tau mappings.
        """
        z = float(z)
        tol = self.interface_tolerance
        for d in self.interfaces:
            if abs(z - d) <= tol:
                raise PointOnInterface(f"z={z} coincides with interface at {d}")
        # interfaces are decreasing: count how many lie above z
        lo = 0
        for d in self.interfaces:
            if z < d:
                lo += 1
            else:
                break
        return lo

    def check_layer(self, ell):
        if not 0 <= ell <= self.num_interfaces:
            raise IndexOutOfRange(
                f"layer index {ell} outside 0..{self.num_interfaces}"
            )

    @classmethod
    def from_dict(cls, data):
        """The medium of a mapping with the lists interfaces, a and b;
        DomainError when one is missing."""
        try:
            return cls(data["interfaces"], data["a"], data["b"])
        except (KeyError, TypeError) as exc:
            raise DomainError(f"a medium needs interfaces, a and b ({exc!r})") from exc

    @classmethod
    def from_json(cls, path):
        return cls.from_dict(read_json(path))

    def to_dict(self):
        return {
            "interfaces": list(self.interfaces),
            "a": list(self.a),
            "b": list(self.b),
        }


def read_json(path):
    """The JSON object in the file at path; DomainError if the file cannot
    be read or holds no JSON object."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DomainError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise DomainError(f"{path} holds no JSON object")
    return data


def reflect(r):
    """xy-plane reflection tau(r) = (x, y, -z)."""
    r = np.asarray(r, dtype=float)
    out = r.copy()
    out[..., 2] = -out[..., 2]
    return out


def component_exists(medium, a, b, ell, ellprime):
    """Whether the reaction component u^{ab}_{l,l'} is present.

    a=1 needs an interface below the target layer (ell < L), a=2 one above
    (ell > 0); b=1 / b=2 need the same on the source side.  With no
    interfaces every component is absent.
    """
    if a not in (1, 2) or b not in (1, 2):
        raise DomainError("component indices a, b must be 1 or 2")
    medium.check_layer(ell)
    medium.check_layer(ellprime)
    L = medium.num_interfaces
    if a == 1 and ell >= L:
        return False
    if a == 2 and ell <= 0:
        return False
    if b == 1 and ellprime >= L:
        return False
    if b == 2 and ellprime <= 0:
        return False
    return True


def require_component(medium, a, b, ell, ellprime):
    if not component_exists(medium, a, b, ell, ellprime):
        raise ComponentAbsent(
            f"component ({a},{b}) vanishes for target layer {ell}, "
            f"source layer {ellprime} in a medium with "
            f"{medium.num_interfaces} interface(s)"
        )


def tau_map(medium, a, b, ell, ellprime, r, rprime):
    """Coordinate mapping tau^{ab}_{l,l'}(r, r').

    The transverse part is always (x-x', y-y'); the third component adds
    the distances of z and z' to the interface selected by a and b:

        a=1: z - d_l        a=2: d_{l-1} - z
        b=1: z' - d_{l'}    b=2: d_{l'-1} - z'

    It is strictly positive whenever r lies in layer l and r' in layer l'.
    r and r' are points or arrays of points along the last axis, broadcast
    against each other.
    """
    require_component(medium, a, b, ell, ellprime)
    r = np.asarray(r, dtype=float)
    rprime = np.asarray(rprime, dtype=float)
    d = medium.interfaces
    zt = r[..., 2] - d[ell] if a == 1 else d[ell - 1] - r[..., 2]
    zs = rprime[..., 2] - d[ellprime] if b == 1 else d[ellprime - 1] - rprime[..., 2]
    dx = r[..., 0] - rprime[..., 0]
    dy = r[..., 1] - rprime[..., 1]
    return np.stack([dx, dy, zt + zs], axis=-1)


def polarization_source(medium, a, b, ell, ellprime, rprime):
    """Equivalent polarization source r'_{ab}.

    Mirrors/offsets the physical source so that
    tau^{1b}(r, r') = r - r'_{1b} and tau^{2b}(r, r') = reflect(r - r'_{2b}).
    The z-coordinate lands strictly below d_l for a=1 and strictly above
    d_{l-1} for a=2 when r' lies in layer l'.  r' is a point or an array of
    points along the last axis.
    """
    require_component(medium, a, b, ell, ellprime)
    rprime = np.asarray(rprime, dtype=float)
    d = medium.interfaces
    zs = rprime[..., 2] - d[ellprime] if b == 1 else d[ellprime - 1] - rprime[..., 2]
    out = rprime.copy()
    out[..., 2] = d[ell] - zs if a == 1 else d[ell - 1] + zs
    return out


def check_box_in_layer(medium, center, radius, ell):
    """Reject charge boxes that cross an interface of the layer they claim."""
    center = np.asarray(center, dtype=float)
    medium.check_layer(ell)
    d = medium.interfaces
    L = medium.num_interfaces
    lo = d[ell] if ell < L else -np.inf
    hi = d[ell - 1] if ell > 0 else np.inf
    if center[2] - radius <= lo or center[2] + radius >= hi:
        raise BoxCrossesInterface(
            f"box at z={center[2]} with radius {radius} leaves layer {ell} "
            f"(bounds {lo}, {hi})"
        )
