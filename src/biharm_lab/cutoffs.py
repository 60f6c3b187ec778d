"""Smooth plateau cutoffs phi = psi^m with measured derivative-bound constants.

The base bump is psi = 1 on |x| <= 1/2, psi = exp(1 - 1/(1 - s^2)) with
s = 2|x| - 1 on the transition annulus, and psi = 0 for |x| >= 1.  This
family has closed-form radial derivatives, so the Laplacian entering the
measured constants is evaluated analytically rather than by stencils; the
finite-difference operators cross-check it in the test suite.

The measured constants are

    C_lap  = sup |lap phi| / phi^(1 - 2/m)
    C_grad = sup phi^(-1) |grad phi|^2 / phi^(1 - 2/m)

taken over grid nodes where phi exceeds a support floor.  They are finite,
stabilize under grid refinement, and transform as C -> C / R^2 under the
rescaling phi_R(x) = phi(x/R).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, require_above, require_in
from .grids import Field, RadialGrid

#: nodes with phi below this floor are outside the measured support interior
SUPPORT_FLOOR = 1e-12


def bump(x: np.ndarray) -> np.ndarray:
    """Base plateau bump: 1 on |x| <= 1/2, 0 on |x| >= 1, smooth transition."""
    x = np.abs(np.asarray(x, dtype=float))
    s = np.clip(2.0 * x - 1.0, 0.0, 1.0)
    out = np.zeros_like(s)
    inner = s <= 0.0
    out[inner] = 1.0
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    out[mid] = np.exp(1.0 - 1.0 / (1.0 - sm * sm))
    return out


def bump_derivatives(x: np.ndarray):
    """(psi, psi_r, psi_rr) with respect to the radial coordinate."""
    x = np.abs(np.asarray(x, dtype=float))
    s = np.clip(2.0 * x - 1.0, 0.0, 1.0)
    psi = bump(x)
    d1 = np.zeros_like(psi)
    d2 = np.zeros_like(psi)
    mid = (s > 0.0) & (s < 1.0)
    sm = s[mid]
    g = 1.0 - sm * sm
    # d/ds log psi = -2s/g^2 ; second factors from differentiating again
    dpsi_ds = psi[mid] * (-2.0 * sm / g**2)
    d2psi_ds2 = psi[mid] * ((2.0 * sm / g**2) ** 2 - (2.0 + 6.0 * sm * sm) / g**3)
    d1[mid] = 2.0 * dpsi_ds          # chain rule through s = 2x - 1
    d2[mid] = 4.0 * d2psi_ds2
    return psi, d1, d2


@dataclass(frozen=True)
class CutoffFamily:
    """phi = psi^m sampled on [0, R] with its measured bound constants."""

    m: float
    R: float
    grid: RadialGrid
    phi: Field
    c_lap: float
    c_grad: float

    def __call__(self, x):
        return bump(np.asarray(x, dtype=float) / self.R) ** self.m


def build_cutoff(m: float, R: float, num_intervals: int = 4096, n: int = 3) -> CutoffFamily:
    """Sample phi = psi^m on [0, R] and measure C_lap, C_grad in dimension n.

    Requires m >= 2 so that the exponent 1 - 2/m in the bound shape is
    nonnegative and phi is at least C^1-matched at the support boundary.
    """
    require_in("m", m, 2.0)
    require_above("R", R)
    grid = RadialGrid.uniform(n, R, num_intervals)
    r = grid.r
    psi, psi_r, psi_rr = bump_derivatives(r / R)
    psi_r = psi_r / R
    psi_rr = psi_rr / R**2

    phi = psi**m
    mask = phi > SUPPORT_FLOOR
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_r = m * psi ** (m - 1) * psi_r
        phi_rr = m * psi ** (m - 1) * psi_rr + m * (m - 1) * psi ** (m - 2) * psi_r**2
        lap_phi = phi_rr.copy()
        lap_phi[1:] += (n - 1) * phi_r[1:] / r[1:]   # phi_r(0) = 0 on the plateau
        shape = phi ** (1.0 - 2.0 / m)
        ratio_lap = np.where(mask, np.abs(lap_phi) / shape, 0.0)
        ratio_grad = np.where(mask, phi_r**2 / phi**(2.0 - 2.0 / m), 0.0)
    c_lap = float(np.max(ratio_lap))
    c_grad = float(np.max(ratio_grad))
    if not (np.isfinite(c_lap) and np.isfinite(c_grad)):
        raise DomainError("measured cutoff constants are not finite")
    return CutoffFamily(m=float(m), R=float(R), grid=grid,
                        phi=Field(grid, phi), c_lap=c_lap, c_grad=c_grad)
