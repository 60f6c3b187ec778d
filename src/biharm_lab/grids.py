"""Uniform radial grids, scalar fields and finite-difference stencils.

All differential operators are second-order central differences.  The
coordinate singularity at r = 0 is handled through the even extension
f(-r) = f(r), which gives the limit value lap f(0) = n f''(0); the outer
boundary uses one-sided second-order stencils.  Verifiers exclude a 4h
margin at the window ends from pass/fail statistics because the one-sided
stencils degrade accuracy there.

``laplacian_values`` is the one radial Laplacian: the profile checks call
it, and ``parabolic.RadialBall.laplacian`` keeps its axis and interior rows
and replaces its wall row by a zero-flux ghost row.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DomainError, SizeError, require_above, require_count, require_spacing

#: nodes excluded at each window end when computing pass/fail statistics
TRIM_NODES = 4
#: the fewest nodes the stencils take (the wall row reaches three nodes in)
STENCIL_NODES = 4
#: the fewest intervals of a verification grid (RadialGrid.uniform)
MIN_INTERVALS = 16


@dataclass(frozen=True)
class RadialGrid:
    """Uniform grid r_i = i*h, i = 0..N, for radial functions in dimension n.

    N = 0 is the one-node window at r = 0 of a shot that stops before its
    first node; the entry points refuse N < 1 from users.
    """

    n: int
    h: float
    num_intervals: int

    def __post_init__(self):
        require_count("dimension n", self.n, 3, DomainError)
        require_spacing("h", self.h, 2.0 * self.n)   # the axis row's weight
        require_count("num_intervals", self.num_intervals, 0)

    @classmethod
    def uniform(cls, n: int, r_max: float, num_intervals: int) -> "RadialGrid":
        """Standard verification grid over [0, r_max]; enforces N >= MIN_INTERVALS."""
        require_count("num_intervals", num_intervals, MIN_INTERVALS)
        return cls(n=n, h=require_above("r_max", r_max) / num_intervals,
                   num_intervals=num_intervals)

    @cached_property
    def r(self) -> np.ndarray:
        # built once per grid and shared by every caller, so read-only
        r = np.arange(self.num_intervals + 1) * self.h
        r.flags.writeable = False
        return r

    @property
    def r_max(self) -> float:
        return self.num_intervals * self.h

    @property
    def num_nodes(self) -> int:
        return self.num_intervals + 1

    def trim_slice(self, margin: int = TRIM_NODES) -> slice:
        """Indices of the interior used for pass/fail statistics."""
        if self.num_intervals <= 2 * margin:
            raise SizeError("grid too small to trim a 4h margin at each end")
        return slice(margin, self.num_intervals + 1 - margin)

    def to_dict(self) -> dict:
        return {"n": self.n, "h": self.h, "N": self.num_intervals}


@dataclass
class Field:
    """Scalar samples aligned to a RadialGrid."""

    grid: RadialGrid
    values: np.ndarray
    positive: bool = False

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.grid.num_nodes,):
            raise SizeError(
                f"field has {self.values.shape} values for a grid of {self.grid.num_nodes} nodes"
            )
        if not np.all(np.isfinite(self.values)):
            raise DomainError("field values must be finite")
        if self.positive and not np.all(self.values > 0):
            raise DomainError("field flagged positive has non-positive entries")

    def columns(self, name: str = "values") -> dict:
        """Named CSV columns: r and the values."""
        return {"r": self.grid.r, name: self.values}


def _check_size(values: np.ndarray):
    if values.shape[-1] < STENCIL_NODES:
        raise SizeError("stencils need at least 4 nodes (N >= 4)")


def laplacian_values(f: np.ndarray, h: float, n: int, df: np.ndarray | None = None) -> np.ndarray:
    """lap f = f'' + (n-1) f'/r on raw samples of an even radial function (r: last axis).

    f'' is differenced from f.  f' in the singular transport term is too,
    unless samples ``df`` of f' are given: profiles that carry their
    derivative as data use them, which keeps the truncation error uniformly
    O(h^2) down to r = 0.
    """
    f = np.asarray(f, dtype=float)
    _check_size(f)
    r = np.arange(1, f.shape[-1]) * h   # r_1, ..., r_N
    if df is None:   # f'/r as a difference of f over 2 h r
        den, wall_slope = 2.0 * h * r, 3.0 * f[..., -1] - 4.0 * f[..., -2] + f[..., -3]
    else:
        den, wall_slope = r, df[..., -1]
    out = np.empty_like(f)
    out[..., 1:-1] = (f[..., 2:] - 2.0 * f[..., 1:-1] + f[..., :-2]) / h**2 \
        + (n - 1) * (f[..., 2:] - f[..., :-2] if df is None else df[..., 1:-1]) / den[:-1]
    # r = 0: even extension makes f'(0) = 0 and lap f(0) = n f''(0)
    out[..., 0] = n * 2.0 * (f[..., 1] - f[..., 0]) / h**2
    out[..., -1] = (2.0 * f[..., -1] - 5.0 * f[..., -2] + 4.0 * f[..., -3] - f[..., -4]) / h**2 \
        + (n - 1) * wall_slope / den[-1]
    return out


def derivative_values(f: np.ndarray, h: float) -> np.ndarray:
    """Central first derivative; 0 at r = 0 (even extension), one-sided at r_N."""
    f = np.asarray(f, dtype=float)
    _check_size(f)
    out = np.empty_like(f)
    out[1:-1] = (f[2:] - f[:-2]) / (2.0 * h)
    out[0] = 0.0
    out[-1] = (3.0 * f[-1] - 4.0 * f[-2] + f[-3]) / (2.0 * h)
    return out


def radial_laplacian(f: Field) -> Field:
    """Second-order finite-difference Laplacian of a radial field."""
    return Field(f.grid, laplacian_values(f.values, f.grid.h, f.grid.n))


def radial_gradient_sq(f: Field) -> Field:
    """|grad f|^2 = (f')^2 for radial f; exactly 0 at r = 0 by smoothness."""
    df = derivative_values(f.values, f.grid.h)
    return Field(f.grid, df * df)


def convergence_order(coarse_err: float, fine_err: float) -> float:
    """Observed order between grid levels h and h/2 from max-norm errors."""
    if fine_err == 0:
        return np.inf
    return float(np.log2(coarse_err / fine_err))


def self_convergence_order(values_by_level: list[np.ndarray]) -> float:
    """Observed order from three nested grid levels (h, h/2, h/4).

    Each finer level must contain the coarser nodes (node i at level k maps
    to node 2i at level k+1); the order is estimated from the max-norm of
    successive differences on the common (coarsest) nodes, excluding
    2 * TRIM_NODES nodes at each window end.
    """
    if len(values_by_level) < 3:
        raise SizeError("self-convergence needs three grid levels")
    v0, v1, v2 = values_by_level[-3:]
    m = v0.shape[0]
    sl = slice(2 * TRIM_NODES, m - 2 * TRIM_NODES)
    d01 = np.abs(v1[::2][:m] - v0)[sl].max()
    d12 = np.abs(v2[::4][:m] - v1[::2][:m])[sl].max()
    return convergence_order(d01, d12)
