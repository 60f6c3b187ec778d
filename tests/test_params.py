import math

import numpy as np
import pytest

from biharm_lab.errors import DomainError, PreconditionError
from biharm_lab.params import (BOUNDARY_TOL, GammaInterval, ParamSet,
                               beta_max, beta_max_or_zero, check_admissible, coefficients,
                               gamma_interval, growth_exponent, q_min, tau,
                               weak_coefficient)


def brute_admissible(n, q, a, b):
    """Independent re-evaluation of the three region inequalities."""
    if a > 0.5:
        return False
    den = q - 1.0 - 4.0 * a / n
    if den <= 0 or b > math.sqrt(2.0 / den):
        return False
    return q >= 3.0 * a + math.sqrt(9.0 * a * a + (1.0 - 2.0 * a) * (1.0 + 16.0 * a / n))


class TestParamSet:
    def test_invariants(self):
        with pytest.raises(DomainError):
            ParamSet(n=2, q=7.0)
        with pytest.raises(DomainError):
            ParamSet(n=3, q=1.0)
        with pytest.raises(DomainError):
            ParamSet(n=3, q=7.0, gamma=1.0)

    @pytest.mark.parametrize("kwargs", [
        dict(n=3.5, q=7.0), dict(n=3, q=math.inf), dict(n=3, q=7.0, alpha=math.inf),
        dict(n=3, q=7.0, beta=math.inf)])
    def test_non_integer_or_infinite_refused(self, kwargs):
        with pytest.raises(DomainError):
            ParamSet(**kwargs)


class TestCoefficients:
    def test_alpha_half_degeneracies(self):
        c = coefficients(ParamSet(n=5, q=4.0, alpha=0.5, beta=0.3))
        assert c.I1 == pytest.approx(0.0, abs=1e-15)
        assert c.K1 == pytest.approx(1.0)

    def test_i2_vanishes_at_beta_max(self):
        for (n, q, a) in [(3, 7.0, 0.5), (4, 3.0, 0.25), (5, 5.0, 0.1)]:
            b = beta_max(a, q, n)
            c = coefficients(ParamSet(n=n, q=q, alpha=a, beta=b))
            assert abs(c.I2) <= 1e-12

    def test_hand_case(self):
        # (n, q, alpha, beta, gamma) = (3, 7, 1/2, sqrt(3/8), 0)
        c = coefficients(ParamSet(n=3, q=7.0, alpha=0.5, beta=math.sqrt(3 / 8)))
        assert c.K2 == pytest.approx(7.0 / 3.0, rel=1e-14)
        assert c.L2 == pytest.approx(7.0 / 3.0 * math.sqrt(3 / 8), rel=1e-14)
        assert c.p_half == 3.0

    def test_recompute_identities(self):
        rng = np.random.default_rng(7)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            q = float(rng.uniform(1.01, 10))
            a = float(rng.uniform(0, 0.5))
            b = float(rng.uniform(0, 2))
            g = float(rng.uniform(0, 0.99))
            c = coefficients(ParamSet(n=n, q=q, alpha=a, beta=b, gamma=g))
            p = (q - 1) / 2
            assert c.K1 == pytest.approx(1 + 4 * (1 - 2 * a) / n, rel=1e-14)
            assert c.K2 == pytest.approx(p - 4 * a / n, rel=1e-13, abs=1e-13)
            assert c.J1 == pytest.approx(2 * a / n + g, rel=1e-14)
            assert c.J2 == pytest.approx(a + g, rel=1e-14)
            assert c.L1 == pytest.approx(c.K1 * a - 3 * g * a - g * g + g,
                                         rel=1e-13, abs=1e-13)
            assert c.L2 == pytest.approx((c.K2 - g) * b, rel=1e-13, abs=1e-13)


class TestQMin:
    def test_alpha_half_exact(self):
        for n in range(3, 9):
            assert q_min(0.5, n) == 3.0

    def test_alpha_to_zero_limit(self):
        for n in (3, 5, 8):
            assert abs(q_min(1e-6, n) - 1.0) < 1e-3

    def test_hand_value(self):
        assert q_min(0.25, 4) == pytest.approx(2.0, abs=1e-14)

    def test_domain(self):
        with pytest.raises(DomainError):
            q_min(0.0, 3)
        with pytest.raises(DomainError):
            q_min(0.6, 3)
        with pytest.raises(DomainError):
            q_min(0.5, 3.5)

    def test_strictly_increasing_in_alpha(self):
        for n in (3, 4, 8):
            a = np.linspace(1e-4, 0.5, 4000)
            vals = np.array([q_min(x, n) for x in a])
            assert np.all(np.diff(vals) > 0)


class TestBetaMax:
    def test_weak_coefficient_recovered(self):
        for q in (1.5, 3.0, 7.0):
            assert beta_max(0.0, q, 5) == pytest.approx(weak_coefficient(q), rel=1e-15)

    def test_alpha_half(self):
        assert beta_max(0.5, 7.0, 3) == pytest.approx(math.sqrt(3 / 8), rel=1e-15)
        for q, n in [(3.5, 3), (3.0, 4)]:
            assert beta_max(0.5, q, n) == pytest.approx(
                math.sqrt(2 / (q - 1 - 2 / n)), rel=1e-15)

    def test_domain(self):
        with pytest.raises(DomainError):
            beta_max(0.5, 1.5, 3)   # q - 1 - 2/n < 0

    # outside ParamSet's domain: n = 0 divided by zero, n = 2 and alpha < 0 gave numbers
    @pytest.mark.parametrize("alpha,n", [(0.5, 0), (0.5, 2), (-1.0, 3)])
    def test_outside_param_domain_refused(self, alpha, n):
        for fn in (beta_max, beta_max_or_zero):
            with pytest.raises(DomainError):
                fn(alpha, 7.0, n)

    def test_weak_coefficient_refuses_infinite_q(self):
        with pytest.raises(DomainError):
            weak_coefficient(math.inf)   # sqrt(2/(q-1)) would read 0


class TestAdmissibility:
    def test_reference_point(self):
        res = check_admissible(ParamSet(n=3, q=7.0, alpha=0.5, beta=math.sqrt(3 / 8)))
        assert res.admissible and res.reasons == []
        s = res.coefficient_signs
        assert s["I1"] >= 0 and s["I2"] >= 0 and s["I3"] >= 0
        assert s["K1"] > 0 and s["K2"] > 0

    def test_alpha_violation_named(self):
        res = check_admissible(ParamSet(n=3, q=7.0, alpha=0.6, beta=0.1))
        assert not res.admissible
        assert any("alpha <= 1/2" in r for r in res.reasons)

    def test_randomized_against_brute_force(self):
        rng = np.random.default_rng(123)
        mismatches = 0
        for _ in range(10_000):
            n = int(rng.integers(3, 9))
            q = float(rng.uniform(1.0 + 1e-9, 10.0))
            a = float(rng.uniform(0.0, 0.6))
            b = float(rng.uniform(0.0, 2.0))
            got = check_admissible(ParamSet(n=n, q=q, alpha=a, beta=b)).admissible
            if got != brute_admissible(n, q, a, b):
                mismatches += 1
        assert mismatches == 0

    def test_signs_on_admissible_samples(self):
        rng = np.random.default_rng(321)
        count = 0
        while count < 500:
            n = int(rng.integers(3, 9))
            a = float(rng.uniform(1e-3, 0.5))
            q = float(q_min(a, n) + rng.uniform(0, 5))
            b = float(rng.uniform(0, 1)) * beta_max(a, q, n)
            res = check_admissible(ParamSet(n=n, q=q, alpha=a, beta=b))
            assert res.admissible
            c = res.coefficients
            assert c.I1 >= -BOUNDARY_TOL and c.I2 >= -BOUNDARY_TOL and c.I3 >= -BOUNDARY_TOL
            assert c.K1 > 0 and c.K2 > 0
            count += 1


class TestGammaInterval:
    def test_reference_case(self):
        assert gamma_interval(0.5, 3.0, 3).gamma_star == pytest.approx(1 / 3, rel=1e-12)

    def test_growth_consistency_with_tau(self):
        # sup growth exponent 2/(1 - gamma_star) at (alpha, q, n) = (1/2, 3, 3)
        # agrees with the alpha = 1/2 growth power tau(3, 3) = 3
        gs = gamma_interval(0.5, 3.0, 3).gamma_star
        assert 2.0 / (1.0 - gs) == pytest.approx(tau(3.0, 3), rel=1e-12)

    def test_gamma_zero_feasible(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            n = int(rng.integers(3, 9))
            a = float(rng.uniform(1e-3, 0.5))
            q = float(q_min(a, n) + rng.uniform(1e-6, 4))
            if q - 1 - 8 * a / n <= 0:
                continue
            assert gamma_interval(a, q, n).contains(0.0)

    def test_positive_l_coeffs_inside_interval(self):
        rng = np.random.default_rng(5)
        for _ in range(500):
            n = int(rng.integers(3, 9))
            a = float(rng.uniform(1e-3, 0.5))
            q = float(q_min(a, n) + rng.uniform(1e-6, 4))
            b = float(rng.uniform(1e-6, 1)) * beta_max(a, q, n)
            star = gamma_interval(a, q, n).gamma_star
            g = float(rng.uniform(0, 1)) * star * (1 - 1e-9)
            c = coefficients(ParamSet(n=n, q=q, alpha=a, beta=b, gamma=g))
            assert c.L1 > 0
            assert c.L2 > 0

    def test_precondition(self):
        with pytest.raises(PreconditionError):
            gamma_interval(0.6, 7.0, 3)

    def test_empty_interval_type(self):
        assert not GammaInterval(0.0).contains(0.0)
        assert GammaInterval(0.5).contains(0.0)


class TestGrowthExponent:
    @pytest.mark.parametrize("g,e", [(0.0, 2.0), (0.5, 4.0), (1 / 3, 3.0)])
    def test_values(self, g, e):
        assert growth_exponent(g) == pytest.approx(e, rel=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            growth_exponent(1.0)


class TestTau:
    def test_values(self):
        assert tau(3.0, 3) == pytest.approx(3.0, rel=1e-14)
        assert tau(3.0, 4) == pytest.approx(4.0, rel=1e-14)
        assert tau(7.0, 3) == 4.0          # positive part vanishes
        assert tau(3 + 4 / 5, 5) == 4.0

    def test_floor(self):
        # min{4, n} >= 3 lower bound over the whole q >= 3 range
        for n in (3, 4, 5, 8):
            for q in np.linspace(3.0, 12.0, 50):
                assert tau(float(q), n) >= min(4, n) - 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            tau(2.9, 3)
        with pytest.raises(DomainError):
            tau(math.inf, 3)
        with pytest.raises(DomainError):
            tau(7.0, 3.5)


def cell_rows(n_values, q_values, alpha_values):
    """region_sweep's rows one checked cell at a time, through the public API."""
    from dataclasses import replace

    from biharm_lab.params import beta_max_or_zero
    rows = []
    for n in sorted(n_values):
        for q in sorted(q_values):
            for alpha in sorted(alpha_values):
                params = ParamSet(n=n, q=float(q), alpha=float(alpha))
                beta = beta_max_or_zero(alpha, q, n)
                res = check_admissible(replace(params, beta=float(beta)))
                c = res.coefficients
                rows.append({"alpha": float(alpha), "q": float(q), "n": int(n),
                             "beta": float(beta), "admissible": res.admissible,
                             "I1": c.I1, "I2": c.I2, "I3": c.I3, "K1": c.K1, "K2": c.K2,
                             "gamma_star": float(gamma_interval(alpha, q, n).gamma_star)
                             if res.admissible else None})
    return rows


def exact(rows):
    """Rows with floats as float.hex and every other value tagged with its type."""
    return [{k: v.hex() if type(v) is float else (type(v).__name__, v) for k, v in row.items()}
            for row in rows]


class TestRegionSweep:
    """The per-dimension array blocks give the checked per-cell rows bitwise."""

    # alpha = 1/2, alpha above it (by more and less than BOUNDARY_TOL), q with
    # beta_max undefined, q exactly at q_min, and unsorted, repeated entries
    N = (7, 3, 4)
    ALPHA = (0.6, 0.0, 0.1, 0.25, 0.5, 0.5 + 1e-13, 0.5 + 1e-9, 0.37, 0.1)
    Q = (7.0, 1.1, 1.5, q_min(0.25, 4), q_min(0.5, 3), q_min(0.1, 7), 3.0, 10.0, 2.2)

    def test_rows_match_cells(self):
        from biharm_lab.sweeps import region_sweep
        rows = region_sweep(self.N, self.Q, self.ALPHA)
        ref = cell_rows(self.N, self.Q, self.ALPHA)
        assert exact(rows) == exact(ref)
        # the grid reaches every branch of the verdict
        verdicts = {(r["admissible"], r["beta"] == 0.0) for r in rows}
        assert verdicts == {(True, False), (False, False), (False, True)}
        assert any(r["admissible"] and r["q"] == q_min(0.5, 3) for r in rows)

    def test_default_grid_matches_cells(self):
        from biharm_lab.sweeps import region_sweep
        grid = ((3, 4, 5, 6, 7, 8), tuple(np.linspace(1.25, 10.0, 36)),
                tuple(np.linspace(0.0, 0.5, 21)))
        assert exact(region_sweep()) == exact(cell_rows(*grid))

    @pytest.mark.parametrize("grid", [{}, {"n_values": (3, 5), "q_values": (2.0, 7.0),
                                           "alpha_values": (0.0, 0.25, 0.5)}],
                             ids=["defaults", "cli-lists"])
    def test_row_types(self, grid):
        from biharm_lab.sweeps import region_sweep
        rows = region_sweep(**grid)
        assert any(r["gamma_star"] is not None for r in rows)
        for row in rows:
            assert type(row["n"]) is int and type(row["admissible"]) is bool
            assert all(type(row[k]) is float for k in ("alpha", "q", "beta", "I1", "I2",
                                                       "I3", "K1", "K2"))
            assert type(row["gamma_star"]) is (float if row["admissible"] else type(None))

    @pytest.mark.parametrize("grid", [
        ((3, 2), (7.0,), (0.1,)), ((3, 2.5), (1.0, 7.0), (0.1,)),
        ((3, 4), (7.0, 0.5), (0.2, -0.1)), ((3, 4), (math.inf, 7.0), (0.2, -0.1)),
        ((1, 2), (0.5,), (-1.0,)), ((3,), (7.0, math.nan), (0.2,)),
        ((3,), (7.0,), (0.2, math.inf)), ((4, 3, 2**23), (7.0,), (0.2,)),
        ((3,), (), (0.2,))])
    def test_refusals_match_cells(self, grid):
        from biharm_lab.sweeps import region_sweep
        try:
            expected = cell_rows(*grid)
        except DomainError as exc:
            with pytest.raises(DomainError) as got:
                region_sweep(*grid)
            assert str(got.value) == str(exc)
        else:
            assert expected == [] and region_sweep(*grid) == []


def test_region_sweep_huge_alpha_is_inadmissible():
    # (1 - 2 alpha)^2 overflows: the block carries inf and NaN, warns nothing,
    # and the verdict stays inadmissible; the finite cells are unaffected
    from biharm_lab.sweeps import region_sweep
    rows = region_sweep((3,), (7.0,), (0.2, 1e200))
    assert rows[0]["admissible"] and not rows[1]["admissible"]
    assert math.isnan(rows[1]["I1"]) and rows[1]["gamma_star"] is None
    assert exact(rows[:1]) == exact(cell_rows((3,), (7.0,), (0.2,)))


def test_square_is_libm_pow():
    # an ndarray's ** 2 multiplies, which rounds differently from Python's
    # x ** 2 about once in a thousand; the region block must not
    from biharm_lab.params import _square
    x = np.random.default_rng(3).uniform(-10.0, 10.0, 20000)
    assert [v.hex() for v in _square(x).tolist()] == [(v ** 2).hex() for v in x.tolist()]
