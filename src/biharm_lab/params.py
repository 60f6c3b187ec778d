"""Coefficient formulas and admissibility conditions for the pointwise bounds.

The admissible region for the Laplacian lower bound

    lap u >= alpha u^(-1)|grad u|^2 + beta u^(-(q-1)/2)

is cut out by three inequalities: alpha <= 1/2, beta <= beta_max(alpha, q, n)
and q >= q_min(alpha, n).  The derived coefficients of the auxiliary-function
differential inequality (I1, I2, I3, K1, K2, and the gamma-weighted J1, J2,
L1, L2) are all elementary algebra in (n, q, alpha, beta, gamma); on the
admissible set the I's are nonnegative and the K's positive, and for gamma
inside the feasible interval L1, L2 are strictly positive.

The region formulas are written once, in NumPy: a single checked tuple runs
through them as scalars and a grid block of the region sweep as arrays, and
an array element gets the scalar's value bitwise.  The public functions
return Python floats, with NumPy's overflow and invalid-value warnings off
where Python's float arithmetic turns out inf or NaN silently.  The private
formulas do not validate their inputs: ParamSet does.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, PreconditionError, require_above, require_count, require_in

#: comparison slack for region boundaries (boundaries are algebraic numbers)
BOUNDARY_TOL = 1e-12


def _square(x):
    # libm pow, as Python's x ** 2 calls it; an ndarray's ** 2 multiplies
    # instead, which rounds differently about once in a thousand
    return np.float_power(x, 2.0)


def _leq(a, b):
    return a <= b + BOUNDARY_TOL * np.maximum(np.maximum(1.0, abs(a)), abs(b))


def _half_p(q):
    return (q - 1.0) / 2.0


@dataclass(frozen=True)
class ParamSet:
    """The tuple (n, q, alpha, beta, gamma) the verifiers are parameterized by."""

    n: int
    q: float
    alpha: float = 0.0
    beta: float = 0.0
    gamma: float | None = None

    def __post_init__(self):
        require_count("dimension n", self.n, 3, DomainError)
        require_above("q", self.q, 1.0)
        require_in("alpha", self.alpha, 0.0)
        require_in("beta", self.beta, 0.0)
        if self.gamma is not None:
            require_in("gamma", self.gamma, 0.0, 1.0)

    def to_dict(self) -> dict:
        return {"n": self.n, "q": self.q, "alpha": self.alpha,
                "beta": self.beta, "gamma": self.gamma}


@dataclass(frozen=True)
class Coefficients:
    """Derived coefficients of the auxiliary differential inequality."""

    I1: float
    I2: float
    I3: float
    K1: float
    K2: float
    J1: float
    J2: float
    L1: float
    L2: float
    p_half: float

    def to_dict(self) -> dict:
        return {k: getattr(self, k) for k in
                ("I1", "I2", "I3", "K1", "K2", "J1", "J2", "L1", "L2", "p_half")}


@np.errstate(over="ignore", invalid="ignore")
def coefficients(params: ParamSet) -> Coefficients:
    """All nine derived coefficients; gamma defaults to 0 when unset."""
    g = params.gamma if params.gamma is not None else 0.0
    c = _coefficients(params.n, params.q, params.alpha, params.beta, g)
    return Coefficients(*map(float, c.to_dict().values()))


def _coefficients(n, q, a, b, g=0.0) -> Coefficients:
    p = _half_p(q)
    K1 = 1.0 + 4.0 * (1.0 - 2.0 * a) / n
    K2 = p - 4.0 * a / n
    return Coefficients(
        I1=(2.0 / n) * _square(1.0 - 2.0 * a) - 2.0 * a * a + a,
        I2=1.0 + (2.0 / n) * a * b * b - p * b * b,
        I3=p * ((q + 1.0) / 2.0 - a) - a * (q - 8.0 * a / n + 4.0 / n),
        K1=K1,
        K2=K2,
        J1=2.0 * a / n + g,
        J2=a + g,
        L1=K1 * a - 3.0 * g * a - g * g + g,
        L2=(K2 - g) * b,
        p_half=p,
    )


def _q_floor(alpha, n):
    return 3.0 * alpha + np.sqrt(9.0 * alpha * alpha
                                 + (1.0 - 2.0 * alpha) * (1.0 + 16.0 * alpha / n))


def q_min(alpha: float, n: int) -> float:
    """Smallest admissible q for a given gradient coefficient alpha in (0, 1/2]."""
    if not (0.0 < alpha <= 0.5):
        raise DomainError(f"alpha must lie in (0, 1/2], got {alpha}")
    require_count("dimension n", n, 3, DomainError)
    return float(_q_floor(alpha, n))


def beta_max_or_zero(alpha: float, q: float, n: int) -> float:
    """beta_max(alpha, q, n) where it is defined, else 0 (the default beta)."""
    return float(_beta_max_or_zero(alpha, q, n))


def _beta_max_or_zero(alpha, q, n):
    den = np.asarray(q - 1.0 - 4.0 * alpha / n)
    out = np.zeros(den.shape)
    pos = den > 0
    out[pos] = np.sqrt(2.0 / den[pos])
    return out[()]   # a NumPy scalar for scalar inputs


def beta_max(alpha: float, q: float, n: int) -> float:
    """Largest admissible singular-term coefficient beta."""
    b = beta_max_or_zero(alpha, q, n)
    if b == 0.0:
        raise DomainError(f"beta_max undefined: q - 1 - 4*alpha/n must be positive and "
                          f"finite, got q = {q}, alpha = {alpha}, n = {n}")
    return b


def weak_coefficient(q: float) -> float:
    """Baseline coefficient sqrt(2/(q-1)) of the gradient-free bound, beta_max at alpha = 0."""
    require_above("q", q, 1.0)
    return beta_max_or_zero(0.0, q, 3)   # n drops out at alpha = 0


@dataclass(frozen=True)
class AdmissibilityResult:
    admissible: bool
    reasons: list[str]
    coefficient_signs: dict[str, int]
    coefficients: Coefficients


@np.errstate(over="ignore", invalid="ignore")
def check_admissible(params: ParamSet) -> AdmissibilityResult:
    """Evaluate the three region inequalities and report coefficient signs.

    The verdict mirrors the non-strict boundary convention of the region
    (<= / >=); the sign report lets callers confirm that admissibility forces
    I1, I2, I3 >= 0 and K1, K2 > 0.
    """
    n, q, a, b = params.n, params.q, params.alpha, params.beta
    alpha_ok, bmax, beta_ok, qf, q_ok, admissible = _region_tests(n, q, a, b)
    reasons = []
    if not alpha_ok:
        reasons.append(f"alpha <= 1/2 violated (alpha = {a})")
    if bmax == 0.0:
        reasons.append(
            f"beta <= beta_max violated (beta_max undefined: q <= 1 + 4*alpha/n, q = {q})")
    elif not beta_ok:
        reasons.append(f"beta <= beta_max violated (beta = {b}, beta_max = {bmax:.12g})")
    if alpha_ok and not q_ok:
        reasons.append(f"q >= q_min violated (q = {q}, q_min = {qf:.12g})")

    coefs = coefficients(params)

    def sign(x: float) -> int:
        if abs(x) <= BOUNDARY_TOL:
            return 0
        return 1 if x > 0 else -1

    signs = {k: sign(getattr(coefs, k)) for k in ("I1", "I2", "I3", "K1", "K2")}
    return AdmissibilityResult(admissible=bool(admissible), reasons=reasons,
                               coefficient_signs=signs, coefficients=coefs)


def _region_tests(n, q, a, b):
    """The three region inequalities and their conjunction, on scalars or arrays.

    Returns (alpha_ok, bmax, beta_ok, qf, q_ok, admissible): bmax is 0 where
    beta_max is undefined, and qf is q_min at min(alpha, 1/2).
    """
    alpha_ok = _leq(a, 0.5)
    bmax = _beta_max_or_zero(a, q, n)
    beta_ok = (bmax != 0.0) & _leq(b, bmax)
    qf = _q_floor(np.minimum(a, 0.5), n)
    q_ok = _leq(qf, q)
    return alpha_ok, bmax, beta_ok, qf, q_ok, alpha_ok & beta_ok & q_ok


@dataclass(frozen=True)
class GammaInterval:
    """Feasible growth weights [0, gamma_star); empty when gamma_star <= 0."""

    gamma_star: float

    def contains(self, gamma: float) -> bool:
        return 0.0 <= gamma < self.gamma_star


def gamma_interval(alpha: float, q: float, n: int) -> GammaInterval:
    """Feasible interval for the weight gamma of the u^(-gamma)-scaled check.

    gamma_star is the least of: the positive root of
    g^2 + (3 alpha - 1) g - alpha - 4 alpha (1 - 2 alpha)/n = 0, the bound
    (q - 1 - 8 alpha/n)/2, and 1.
    """
    res = check_admissible(ParamSet(n=n, q=q, alpha=alpha, beta=0.0))
    if not res.admissible:
        raise PreconditionError("; ".join(res.reasons))
    return GammaInterval(gamma_star=float(_gamma_star(alpha, q, n)))


def _gamma_star(alpha, q, n):
    b_lin = 3.0 * alpha - 1.0
    c_const = -(alpha + 4.0 * alpha * (1.0 - 2.0 * alpha) / n)
    root = (-b_lin + np.sqrt(b_lin * b_lin - 4.0 * c_const)) / 2.0
    cap = (q - 1.0 - 8.0 * alpha / n) / 2.0
    return np.minimum(np.minimum(root, cap), 1.0)


def growth_exponent(gamma: float) -> float:
    """Admissible growth power 2/(1-gamma) for the weight gamma."""
    return 2.0 / (1.0 - require_in("gamma", gamma, 0.0, 1.0))


def tau(q: float, n: int) -> float:
    """Growth power min{4, 4/(-q + 3 + 4/n)_+} of the alpha = 1/2 bound."""
    require_count("dimension n", n, 3, DomainError)
    require_above("q", q, 1.0)
    if q < 3:
        raise DomainError(f"tau requires q >= 3, got q = {q}")
    pos = max(0.0, -q + 3.0 + 4.0 / n)
    second = math.inf if pos == 0.0 else 4.0 / pos
    return min(4.0, second)
