import copy
import math
import random
from decimal import ROUND_FLOOR, Inexact, Overflow, localcontext
from fractions import Fraction

import mpmath
import pytest
from hypothesis import example, given, settings, strategies as st

from raymoments import (
    ExactValue,
    LineTable,
    PhasePoint,
    PolyGauss,
    Polynomial,
    extended_transform,
    field_scale_report,
    line_moment,
    line_moment_quadrature,
    random_field,
    rational_sqrt,
    serialize_field,
    sym_field,
)
from raymoments import polygauss
from raymoments.moments import value_diff
from raymoments.polygauss import _monomials, random_polynomial
from conftest import assert_same_table, termwise_mass

SQRT_PI = math.sqrt(math.pi)


def _gaussian_moment(k):
    """The integral of t^k exp(-t^2) over the real line, as a multiple of sqrt(pi).

    Zero for odd k; for k = 2j the multiplier is (2j-1)!! / 2^j.
    """
    if k % 2:
        return Fraction(0)
    return Fraction(math.prod(range(1, k, 2)), 2 ** (k // 2))


def _line_coefficients(p, x, xi):
    """Exact coefficients in t of p(x + t*xi), lowest degree first."""
    out = [Fraction(0)] * (p.total_degree() + 1)
    for exps, coef in p.terms.items():
        # expand prod_i (x_i + t*xi_i)^{e_i} one coordinate at a time
        conv = [coef]
        for xc, vc, e in zip(x, xi, exps):
            base = [math.comb(e, j) * xc ** (e - j) * vc ** j for j in range(e + 1)]
            new = [Fraction(0)] * (len(conv) + e)
            for a, ca in enumerate(conv):
                for b, cb in enumerate(base):
                    new[a + b] += ca * cb
            conv = new
        for d, c in enumerate(conv):
            out[d] += c
    return out


def _reference_line_moment(g, q, x, xi):
    """The exact line integral by expansion along the line, kept as an oracle.

    Expands g's polynomial in t, shifts t = tau - c/s to complete the square
    and sums one-dimensional Gaussian moments; independent of LineTable.
    """
    x = [Fraction(v) for v in x]
    xi = [Fraction(v) for v in xi]
    s = sum(v * v for v in xi)
    c = sum(a * b for a, b in zip(x, xi))
    exponent = -(sum(a * a for a in x) - c * c / s)
    coeffs = [Fraction(0)] * q + _line_coefficients(g.poly, x, xi)
    shift = -c / s
    shifted = [Fraction(0)] * len(coeffs)
    for j, a in enumerate(coeffs):
        if a == 0:
            continue
        for k in range(j + 1):
            shifted[k] += a * math.comb(j, k) * shift ** (j - k)
    total = sum((shifted[k] * _gaussian_moment(k) / s ** (k // 2)
                 for k in range(0, len(shifted), 2)), Fraction(0))
    return ExactValue(total, 1 / s, exponent)


class _ReferenceLineTable:
    """The moment recurrence of the LineTable docstring in the line's own scalars.

    Entries are mu_q(e) themselves, Fractions or floats, built with the
    unscaled weights: on a rational line, the reference of LineTable's int
    entries; on a float line, the float recurrence that LineTable ran
    before it read every line as its dyadic rational line, kept as an
    accuracy bound.
    """

    def __init__(self, x, xi):
        exact = all(isinstance(v, (int, Fraction)) for v in (*x, *xi))
        scalar = Fraction if exact else float
        self.x = tuple(scalar(v) for v in x)
        self.xi = tuple(scalar(v) for v in xi)
        self.s = sum(v * v for v in self.xi)
        self.c = c = sum(a * b for a, b in zip(self.x, self.xi))
        self.exponent = -(sum(a * a for a in self.x) - c * c / self.s)
        self.mean = -c / self.s
        self.var = 1 / (2 * self.s)
        self.mu = {(0, (0,) * len(x)): scalar(1)}

    def _recurrence(self, q, e):
        for i, a in enumerate(e):
            if a:
                lower = e[:i] + (a - 1,) + e[i + 1:]
                pairs = ((self.x[i], (q, lower)), (self.xi[i], (q + 1, lower)))
                break
        else:
            pairs = ((self.mean, (q - 1, e)), (self.var * (q - 1), (q - 2, e)))
        return [(w, key) for w, key in pairs if w]

    def moment(self, q, e):
        mu = self.mu
        zero = 0 * self.s
        todo = [(q, e)]
        while todo:
            key = todo[-1]
            if key in mu:
                todo.pop()
                continue
            pairs = self._recurrence(*key)
            missing = [dep for _, dep in pairs if dep not in mu]
            if missing:
                todo.extend(missing)
                continue
            mu[key] = sum((w * mu[dep] for w, dep in pairs), zero)
            todo.pop()
        return mu[(q, e)]

    def absolute(self) -> "_ReferenceLineTable":
        """The same recurrence on |x|, |xi|, |mean| and var, with no entry built.

        Every weight is then non-negative, so each entry bounds the absolute
        value of every partial sum that the entry of this table adds up.
        """
        out = copy.copy(self)
        out.x, out.xi = tuple(map(abs, self.x)), tuple(map(abs, self.xi))
        out.mean, out.mu = abs(self.mean), {(0, (0,) * len(self.x)): 1 + 0 * self.s}
        return out

    def line_moment(self, terms, q):
        """The integral of t^q times ``{exps: Fraction}``, summed in the dict's order."""
        coef = 0 * self.s
        for e, c in terms.items():
            mu = self.moment(q, e)
            if mu:
                coef += c * mu
        if isinstance(coef, Fraction):
            return ExactValue(coef, 1 / self.s, self.exponent)
        return coef * math.sqrt(math.pi / self.s) * math.exp(self.exponent)


def _float_recurrence_bound(floaty, terms, q) -> float:
    """A bound on the rounding of ``floaty.line_moment(terms, q)`` on a float line.

    u (4 (deg + q + 2 + len(terms)) + 2 |x|^2 + 2 c^2 / s + 8) times the
    line moment of the |c_e| on the absolute recurrence, u = 2^-53.  The
    recurrence's depth and the number of terms count the roundings of each
    sum; the |x|^2 and c^2 / s terms cover the rounding of the exponent,
    which exp turns into a relative error.

    Two errors are not relative to the entries: the mean -c / s, whose sum
    c of n products may cancel, and every product whose result is
    subnormal, off by up to ulp(0) / 2 however small it is (a sum is exact
    there; ulp(0) / 2 is no float, so ulp(0) is charged).  So each entry
    also carries an absolute error: ulp(0) per product, the errors of the
    entries it reads times their weights, and the mean's error times the
    entry that the mean weights.  The absolute recurrence takes the mean
    that much larger.  The line moment adds ulp(0) per term, and 2 ulp(0)
    for its last two products and the rounding of the value it is compared
    with.
    """
    u, tiny, n = 2.0 ** -53, math.ulp(0.0), len(floaty.x)
    dots = math.fsum(abs(a * b) for a, b in zip(floaty.x, floaty.xi))
    # c and s sum n products, the mean divides them
    c_error, s_error = (n + 1) * u * dots + n * tiny, (n + 1) * u * floaty.s + n * tiny
    mean_error = ((c_error + abs(floaty.mean) * s_error) / (floaty.s - s_error)
                  + u * abs(floaty.mean) + tiny)
    absolute = floaty.absolute()
    absolute.mean += mean_error
    errors = {(0, (0,) * n): 0.0}

    def error(key):
        if key not in errors:
            errors[key] = math.fsum(
                w * error(dep) + tiny
                + (mean_error * absolute.moment(*dep) if dep[0] == key[0] - 1 else 0.0)
                for w, dep in absolute._recurrence(*key))
        return errors[key]

    mass = math.fsum(float(abs(c)) * absolute.moment(q, e) for e, c in terms.items())
    spread = math.fsum(float(abs(c)) * error((q, e)) + tiny for e, c in terms.items())
    deg = max(map(sum, terms), default=0)
    steps = (4 * (deg + q + 2 + len(terms)) + 2 * sum(v * v for v in floaty.x)
             + 2 * floaty.c ** 2 / floaty.s + 8)
    scale = math.sqrt(math.pi / floaty.s) * math.exp(floaty.exponent)
    return (u * steps * mass + spread) * scale + 2 * tiny


def _reference(v):
    """coef * sqrt(root) * sqrt(pi) * exp(exponent) as a 70-digit mpmath number."""
    with mpmath.workdps(70):
        return (mpmath.mpf(v.num) / v.den
                * mpmath.sqrt(mpmath.mpf(v.root.numerator) / v.root.denominator)
                * mpmath.sqrt(mpmath.pi)
                * mpmath.exp(mpmath.mpf(v.exponent.numerator) / v.exponent.denominator))


def _reference_float(v):
    """The 70-digit reference of ``v`` rounded once to a float.

    The mpf is made an exact Fraction first: float(Fraction) rounds correctly
    over the whole range, subnormals included, and float(mpf) need not under
    gradual underflow.
    """
    value = _reference(v)
    man, exp = value.man_exp  # the magnitude: man_exp drops the sign
    magnitude = Fraction(man) * Fraction(2) ** exp
    return float(magnitude if value > 0 else -magnitude)


def _place(e):
    """The place of an exponent tuple in the graded index of its dimension."""
    return _monomials(len(e)).pos[e]


def _table_entries(table):
    """Every entry a table has built, as (q, e, entry)."""
    exps = _monomials(len(table.x)).exps
    return [(q, exps[j], a) for q, row in enumerate(table.rows) for j, a in enumerate(row)]


def _entry(table, q, e):
    """mu_q(e) of a table, read from its row once a line moment has built it."""
    line_moment(PolyGauss(Polynomial(len(e), {e: 1})), q, table)
    return Fraction(table.rows[q][_place(e)], table.scale ** (q + 2 * sum(e)))


def _check_table(table, ref, g, q):
    """The int table of an exact line against the reference, entry by entry."""
    assert line_moment(g, q, table) == ref.line_moment(g.poly.terms, q)
    for e in g.poly.terms:
        assert table.rows[q][_place(e)] == ref.moment(q, e) * table.scale ** (q + 2 * sum(e))
    for j, e, a in _table_entries(table):
        assert type(a) is int
        assert a == ref.moment(j, e) * table.scale ** (j + 2 * sum(e))


_small_rationals = st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))


@st.composite
def _exact_lines(draw):
    """A rational line in dimension 1..3; zero coordinates and any norm."""
    n = draw(st.integers(1, 3))
    x = draw(st.lists(_small_rationals, min_size=n, max_size=n))
    xi = draw(st.lists(_small_rationals, min_size=n, max_size=n).filter(any))
    return x, xi


@st.composite
def _float_lines(draw):
    """A float line with |x_i| <= 3 and |xi_i| <= 2, max |xi_i| >= 0.1."""
    n = draw(st.integers(1, 3))
    x = draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n))
    xi = draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n)
              .filter(lambda v: max(map(abs, v)) >= 0.1))
    return x, xi


# seed 41096 draws -2 x1 + x2 - x3 / 3 at degree 1, which vanishes on this
# line: the exact integral is 0, and the quadrature mass of the polynomial
# is as small as the float error (about 1.6e-17)
_VANISHING_LINE = ([Fraction(1, 3), Fraction(1), Fraction(1)],
                   [Fraction(1), Fraction(2), Fraction(0)])


def gauss(n):
    return PolyGauss(Polynomial(n, {(0,) * n: 1}))


class TestDerive:
    def test_gaussian_gradient(self):
        g = gauss(2).derive(1)
        assert g.poly == Polynomial(2, {(1, 0): Fraction(-2)})

    def test_product_rule(self):
        g = PolyGauss(Polynomial(2, {(1, 0): 1})).derive(1)
        assert g.poly == Polynomial(2, {(0, 0): Fraction(1), (2, 0): Fraction(-2)})

    @given(st.integers())
    @settings(max_examples=25, deadline=None)
    def test_mixed_partials_commute(self, seed):
        rng = random.Random(seed)
        g = PolyGauss(random_polynomial(2, 3, rng))
        assert g.derive(1).derive(2) == g.derive(2).derive(1)

    def test_index_out_of_range(self):
        for i in (0, 3):
            with pytest.raises(ValueError):
                gauss(2).derive(i)

    def test_linearity_and_leibniz(self):
        rng = random.Random(4)
        g = PolyGauss(random_polynomial(2, 2, rng))
        h = PolyGauss(random_polynomial(2, 2, rng))
        lhs = (g * Fraction(2, 3) + h).derive(1)
        assert lhs == g.derive(1) * Fraction(2, 3) + h.derive(1)
        # d/dx1 (x1 * g) = g + x1 * dg/dx1
        x1 = Polynomial(2, {(1, 0): 1})
        prod = PolyGauss(x1 * g.poly)
        assert prod.derive(1) == g + PolyGauss(x1 * g.derive(1).poly)


class TestGaussianMoment:
    """The oracle's one-dimensional Gaussian moments."""

    def test_base_values(self):
        assert _gaussian_moment(0) == Fraction(1)
        assert _gaussian_moment(1) == Fraction(0)
        assert _gaussian_moment(4) == Fraction(3, 4)

    def test_recurrence(self):
        for k in range(0, 12):
            assert _gaussian_moment(k + 2) == Fraction(k + 1, 2) * _gaussian_moment(k)


class TestLineMoment:
    def test_centered_gaussian(self):
        # orthogonal offset, unit direction: the integral is sqrt(pi) e^{-|x|^2}
        x = [Fraction(0), Fraction(2)]
        xi = [Fraction(1), Fraction(0)]
        value = line_moment(gauss(2), 0, LineTable(x, xi))
        assert value == ExactValue(Fraction(1), Fraction(1), Fraction(-4))
        expected = SQRT_PI * math.exp(-4)
        assert float(value) == pytest.approx(expected, rel=1e-14)
        oracle = line_moment_quadrature(gauss(2), 0, x, xi)
        assert float(value) == pytest.approx(oracle, rel=1e-13)

    def test_odd_moment_on_centered_line(self):
        x = [Fraction(0), Fraction(1)]
        xi = [Fraction(1), Fraction(0)]
        assert line_moment(gauss(2), 1, LineTable(x, xi)).is_zero

    def test_direction_scaling(self):
        x = [Fraction(1, 2), Fraction(1)]
        xi = [Fraction(3, 5), Fraction(4, 5)]
        lam = Fraction(3)
        base = line_moment(gauss(2), 0, LineTable(x, xi))
        scaled = line_moment(gauss(2), 0, LineTable(x, [lam * v for v in xi]))
        assert (scaled - base.scaled(Fraction(1, lam))).is_zero

    def test_shift_along_direction(self):
        rng = random.Random(8)
        g = PolyGauss(random_polynomial(2, 3, rng))
        x = [Fraction(1, 3), Fraction(-1, 2)]
        xi = [Fraction(1), Fraction(1, 4)]
        s = Fraction(2, 5)
        q = 3
        shifted_x = [a + s * b for a, b in zip(x, xi)]
        lhs = line_moment(g, q, LineTable(shifted_x, xi))
        rhs = ExactValue.zero_value()
        for j in range(q + 1):
            coef = Fraction(math.comb(q, j)) * (-s) ** (q - j)
            rhs = rhs + line_moment(g, j, LineTable(x, xi)).scaled(coef)
        assert (lhs - rhs).is_zero

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            line_moment(gauss(2), 0, LineTable([Fraction(0)] * 2, [Fraction(0)] * 2))

    @given(_exact_lines(), st.integers(0, 3), st.integers(0, 3), st.integers())
    @example(_VANISHING_LINE, 1, 0, 41096)
    @example(_VANISHING_LINE, 1, 3, 41096)
    @settings(max_examples=40, deadline=None)
    def test_quadrature_oracle_agreement(self, line, degree, q, seed):
        x, xi = line
        g = PolyGauss(random_polynomial(len(x), degree, random.Random(seed)))
        closed = float(line_moment(g, q, LineTable(x, xi)))
        quad = line_moment_quadrature(g, q, x, xi)
        assert abs(closed - quad) <= 1e-12 * termwise_mass(g, q, x, xi)

    @given(_exact_lines(), st.integers(0, 3), st.integers(0, 4), st.integers())
    @example(_VANISHING_LINE, 1, 0, 41096)
    @settings(max_examples=60, deadline=None)
    def test_float_path_matches_exact_path(self, line, degree, q, seed):
        # the float table of a rational line against its exact value; 6,000
        # draws of this range gave a worst relative error of about 1.5e-13
        x, xi = line
        g = PolyGauss(random_polynomial(len(x), degree, random.Random(seed)))
        exact = float(line_moment(g, q, LineTable(x, xi)))
        floaty = line_moment(g, q, LineTable([float(v) for v in x], [float(v) for v in xi]))
        assert isinstance(floaty, float)
        assert abs(floaty - exact) <= 1e-12 * termwise_mass(g, q, x, xi)


class TestLineTable:
    """Exact line moments as a dot product with one memoized table."""

    @given(_exact_lines(), st.integers(0, 7), st.integers(0, 5), st.integers())
    @settings(max_examples=60, deadline=None)
    def test_fresh_table_matches_reference(self, line, degree, q, seed):
        x, xi = line
        g = PolyGauss(random_polynomial(len(x), degree, random.Random(seed)))
        assert line_moment(g, q, LineTable(x, xi)) == _reference_line_moment(g, q, x, xi)
        _check_table(LineTable(x, xi), _ReferenceLineTable(x, xi), g, q)

    @given(_exact_lines(),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5), st.integers()),
                    min_size=1, max_size=8))
    @settings(max_examples=30, deadline=None)
    def test_shared_table_matches_reference(self, line, requests):
        # one table serves many polynomials and orders, asked in any order
        x, xi = line
        table, ref = LineTable(x, xi), _ReferenceLineTable(x, xi)
        for degree, q, seed in requests:
            g = PolyGauss(random_polynomial(len(x), degree, random.Random(seed)))
            value = line_moment(g, q, table)
            assert value == _reference_line_moment(g, q, x, xi)
            _check_table(table, ref, g, q)

    def test_entries_are_normal_moments(self):
        # mu_q(0) = E[T^q] for T ~ N(-c/s, 1/(2s)); here mean 1/2, variance 1/4
        table = LineTable([Fraction(-1), Fraction(3)], [Fraction(2), Fraction(0)])
        assert (table.s, table.mean, table.var) == (4, Fraction(1, 2), Fraction(1, 8))
        mean, var = table.mean, table.var
        zero = (0, 0)
        assert _entry(table, 1, zero) == mean
        assert _entry(table, 2, zero) == mean ** 2 + var
        assert _entry(table, 3, zero) == mean ** 3 + 3 * mean * var
        assert _entry(table, 4, zero) == mean ** 4 + 6 * mean ** 2 * var + 3 * var ** 2
        # x_2 is constant along the line, so it only scales
        assert _entry(table, 2, (0, 3)) == 27 * _entry(table, 2, zero)

    def test_phase_points_carry_their_table(self):
        f = random_field(2, 1, 3, 5)
        exact = PhasePoint([Fraction(1, 2), Fraction(-1)], [Fraction(1), Fraction(1, 3)])
        # a point is the table of its line, filled by the transforms taken there
        assert isinstance(exact, LineTable)
        value = extended_transform(f, 1, exact)
        assert isinstance(value, ExactValue) and len(_table_entries(exact)) > 1
        floaty = PhasePoint([0.5, -1.0], [1.0, 1 / 3])
        assert isinstance(floaty, LineTable) and not floaty.is_exact
        approx = extended_transform(f, 1, floaty)
        assert isinstance(approx, float) and len(_table_entries(floaty)) > 1
        # the float point's table is the int table of its dyadic line
        assert all(type(a) is int for _, _, a in _table_entries(floaty))
        dyadic = PhasePoint([Fraction(v) for v in floaty.x], [Fraction(v) for v in floaty.xi])
        assert approx == float(extended_transform(f, 1, dyadic))
        assert approx == pytest.approx(float(value), rel=1e-12)

    def test_high_degree_monomial_builds_iteratively(self):
        # a chain of 1,500 dependent entries, deeper than Python's recursion limit
        g = PolyGauss(Polynomial(1, {(1500,): Fraction(1)}))
        value = line_moment(g, 0, LineTable([Fraction(0)], [Fraction(1)]))
        assert value == ExactValue(_gaussian_moment(1500))

    @given(_float_lines(), st.integers(0, 6), st.integers(0, 4), st.integers())
    # the polynomial of seed 41096 vanishes on this line, so its own
    # quadrature mass (about 1e-17) is rounding noise, not a scale
    @example(([1 / 3, 1.0, 1.0], [1.0, 2.0, 0.0]), 1, 1, 41096)
    @example(([1 / 3, 1.0, 1.0], [1.0, 2.0, 0.0]), 1, 4, 41096)
    @settings(max_examples=200, deadline=None)
    def test_float_path_against_quadrature(self, line, degree, q, seed):
        # the float line moment, the exact value rounded once, against
        # pointwise quadrature on a scale that does not cancel
        x, xi = line
        g = PolyGauss(random_polynomial(len(x), degree, random.Random(seed)))
        closed = line_moment(g, q, LineTable(x, xi))
        quad = line_moment_quadrature(g, q, x, xi)
        assert abs(closed - quad) <= 1e-12 * termwise_mass(g, q, x, xi)

    @given(_float_lines())
    @settings(max_examples=60, deadline=None)
    def test_float_line_keeps_its_direction_as_ints(self, line):
        table = LineTable(*line)
        den = table.xi_den
        assert den > 0 and den & (den - 1) == 0  # a power of 2
        assert all(type(num) is int for num in table.xi_nums)
        assert all(Fraction(num, den) == Fraction(v)
                   for num, v in zip(table.xi_nums, table.xi))

    def test_non_finite_float_line_rejected(self):
        # an infinite direction and a NaN offset
        g = gauss(2)
        for x, xi in (((0.0, 0.0), (math.inf, 0.0)), ((math.nan, 0.0), (1.0, 0.0))):
            with pytest.raises(ValueError):
                line_moment(g, 1, LineTable(x, xi))
            with pytest.raises(ValueError):
                PhasePoint(x, xi)
        # |x|^2 overflows a float, but the line is a finite dyadic one, read in
        # ints: its exponent is -1e308^2, and its moment the float of its exact value
        x, xi = (1e308, 1e308), (1.0, 0.0)
        exact = line_moment(g, 1, LineTable([Fraction(v) for v in x], [Fraction(v) for v in xi]))
        assert exact.exponent == -Fraction(1e308) ** 2
        assert line_moment(g, 1, LineTable(x, xi)) == 0.0 == float(exact)
        assert PhasePoint(x, xi).exponent == exact.exponent

    @given(_float_lines(),
           st.lists(st.tuples(st.integers(0, 7), st.integers(0, 5), st.integers()),
                    min_size=1, max_size=4))
    # the float recurrence cancels here: off by 2.2e-11, above the
    # 1e-12 * termwise_mass = 2.08e-11 that once bounded it
    @example(([2.875, 0.0, 0.0], [2.0, 0.0, 0.25]), [(7, 0, 92)])
    # a subnormal offset: the float recurrence is off by 1.5e-323, where its
    # relative bound underflows to 0.0
    @example(([2.2250738585e-313], [0.75]), [(0, 1, 0)])
    @settings(max_examples=60, deadline=None)
    def test_float_line_is_its_dyadic_line(self, line, requests):
        # a finite float is a dyadic rational: the float line's table is the
        # int table of that rational line, and its line moment is the exact
        # value there, rounded once
        x, xi = line
        dx, dxi = [Fraction(v) for v in x], [Fraction(v) for v in xi]
        table, dyadic = LineTable(x, xi), LineTable(dx, dxi)
        ref, floaty = _ReferenceLineTable(dx, dxi), _ReferenceLineTable(x, xi)
        assert not table.is_exact and dyadic.is_exact
        scalars = ("s", "c", "exponent", "mean", "var", "scale", "root", "root_factor",
                   "xi_den", "xi_nums")
        assert [getattr(table, a) for a in scalars] == [getattr(dyadic, a) for a in scalars]
        for degree, q, seed in requests:
            g = PolyGauss(random_polynomial(len(x), degree, random.Random(seed)))
            value = line_moment(g, q, table)
            exact = ref.line_moment(g.poly.terms, q)
            assert line_moment(g, q, dyadic) == exact
            assert type(value) is float and value.hex() == float(exact).hex()
            # the float recurrence is off by its rounding, bounded by the same
            # recurrence on absolute values, which does not cancel
            error = abs(floaty.line_moment(g.poly.terms, q) - value)
            assert error <= _float_recurrence_bound(floaty, g.poly.terms, q)
        assert table.rows == dyadic.rows
        assert all(type(a) is int for _, _, a in _table_entries(table))

    @given(_exact_lines())
    @example(([Fraction(-1), Fraction(3)], [Fraction(2), Fraction(0)]))  # 1/s = 1/4
    @example(([Fraction(1, 2), Fraction(0)], [Fraction(1), Fraction(2, 3)]))  # 1/s = 9/13
    @example(([Fraction(0), Fraction(0), Fraction(0)],
              [Fraction(-3, 4), Fraction(0), Fraction(1, 2)]))  # 1/s = 16/13
    @example(([Fraction(-5, 3)], [Fraction(-2, 9)]))  # 1/s = 81/4
    @settings(max_examples=200, deadline=None)
    def test_int_setup_matches_fraction_formulas(self, line):
        # the scalars of an exact line, set up from int sums over one common
        # denominator, against the Fraction formulas of the reference
        x, xi = line
        table, ref = LineTable(x, xi), _ReferenceLineTable(x, xi)
        mine = (table.s, table.c, table.exponent, table.mean, table.var)
        assert mine == (ref.s, ref.c, ref.exponent, ref.mean, ref.var)
        assert all(type(v) is Fraction for v in mine)
        # scale, the int recurrence weights and the root, as defined from them
        big = math.lcm(*(v.denominator for v in (*ref.x, *ref.xi, ref.mean, ref.var)))
        assert table.scale == big
        assert table._weights == (tuple(int(big * big * v) for v in ref.x),
                                  tuple(int(big * v) for v in ref.xi),
                                  int(big * ref.mean), int(big * big * ref.var))
        assert all(type(w) is int for w in (*table._weights[0], *table._weights[1],
                                            *table._weights[2:]))
        r = rational_sqrt(1 / ref.s)
        expected = (Fraction(1), r) if r is not None else (1 / ref.s, Fraction(1))
        assert (table.root, table.root_factor) == expected
        # a point of the line has the same scalars
        pt = PhasePoint(x, xi)
        assert (pt.s, pt.c) == (ref.s, ref.c)

    @given(_exact_lines(), st.integers(1, 12), st.integers(1, 12), st.integers())
    @example(([Fraction(0)], [Fraction(1, 3)]), 6, 4, 0)
    @settings(max_examples=100, deadline=None)
    def test_int_constructor_matches_the_fraction_one(self, line, kx, kxi, seed):
        # from ints over any common denominators, brought to lowest terms: every
        # scalar, and the rows after the same integrals, as from the Fractions
        x, xi = (tuple(map(Fraction, vec)) for vec in line)
        x_den = kx * math.lcm(*(v.denominator for v in x))
        xi_den = kxi * math.lcm(*(v.denominator for v in xi))
        table = LineTable._from_ints([int(v * x_den) for v in x], x_den,
                                     [int(v * xi_den) for v in xi], xi_den)
        assert table.x == x and all(type(v) is Fraction for v in table.x + table.xi)
        assert_same_table(table, LineTable(x, xi), random.Random(seed))

    def test_scale_is_the_common_denominator(self):
        # x = (1/2, 0), xi = (1, 2/3): s = 13/9, mean = -9/26, var = 9/26
        table = LineTable([Fraction(1, 2), Fraction(0)], [Fraction(1), Fraction(2, 3)])
        assert (table.mean, table.var, table.scale) == (Fraction(-9, 26), Fraction(9, 26), 78)
        assert _entry(table, 1, (0, 0)) == table.mean and table.rows[1][_place((0, 0))] == -27
        # 1/s = 9/13 has no rational root; 1/s = 1/4 does
        assert (table.root, table.root_factor) == (Fraction(9, 13), 1)
        table = LineTable([Fraction(1), Fraction(3)], [Fraction(2), Fraction(0)])
        assert (table.root, table.root_factor) == (1, Fraction(1, 2))

    @pytest.mark.parametrize("q", [-1, True, 1.5])
    def test_bad_order_raises(self, q):
        for x, xi in (([1, 2], [1, 0]), ([0.5, 2.0], [1.0, 0.0])):
            with pytest.raises(ValueError):
                line_moment(gauss(2), q, LineTable(x, xi))
            with pytest.raises(ValueError):
                line_moment_quadrature(gauss(2), q, x, xi)


class TestRingOps:
    def test_views_are_fresh_dicts(self):
        # terms and nums are built on each read: changing one changes no polynomial
        p = random_polynomial(2, 3, random.Random(7))
        stored, terms = p.key, p.terms
        for view in (p.terms, p.nums):
            view[(0, 0)] = 99
            view.pop(next(iter(view)))
        assert p.terms is not p.terms and p.terms == terms and p.key == stored

    def test_additive_inverse(self):
        rng = random.Random(3)
        g = PolyGauss(random_polynomial(2, 2, rng))
        assert (g + g * Fraction(-1)).is_zero()

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            gauss(2) + gauss(3)

    def test_product_of_two_fields_rejected(self):
        with pytest.raises(TypeError):
            gauss(2) * gauss(2)

    def test_float_coefficients_rejected(self):
        with pytest.raises(TypeError):
            Polynomial(2, {(0, 0): 0.5})
        with pytest.raises(TypeError):
            gauss(2) * 0.5

    def test_bad_exponents_rejected(self):
        for exps in [(True, 0), ("a", 0), (-1, 0), (1.0, 0), (1, 0, 0)]:
            with pytest.raises(ValueError):
                Polynomial(2, {exps: Fraction(1)})

    @given(st.integers(), st.integers())
    @settings(max_examples=40, deadline=None)
    def test_subtraction_is_addition_of_the_negation(self, seed_a, seed_b):
        p = random_polynomial(2, 3, random.Random(seed_a))
        q = random_polynomial(2, 3, random.Random(seed_b))
        assert (p - q).terms == (p + (-q)).terms
        assert all((p - q).terms.values())
        assert not (p - p).terms
        assert PolyGauss(p) - PolyGauss(q) == PolyGauss(p + (-q))

    def test_subtraction_keeps_type_and_shape_errors(self):
        p = Polynomial(2, {(1, 0): 1})
        for a, b in [(p, 1), (p, Fraction(1)), (p, PolyGauss(p)),
                     (PolyGauss(p), 1), (PolyGauss(p), p)]:
            with pytest.raises(TypeError):
                a - b
        with pytest.raises(ValueError):
            p - Polynomial(3, {(1, 0, 0): 1})
        with pytest.raises(ValueError):
            gauss(2) - gauss(3)

    def test_line_coefficients_expand_the_restriction(self):
        # the oracle's expansion, evaluated in t, is p restricted to the line
        p = random_polynomial(3, 4, random.Random(5))
        x = (Fraction(1, 2), Fraction(-2, 3), Fraction(3))
        xi = (Fraction(2, 7), Fraction(1), Fraction(-1, 5))
        coefs = _line_coefficients(p, x, xi)
        for t in (Fraction(0), Fraction(1, 3), Fraction(-2), Fraction(5, 4)):
            point = [a + t * b for a, b in zip(x, xi)]
            assert sum(c * t ** d for d, c in enumerate(coefs)) == p.evaluate_exact(point)


# The Fraction-dict arithmetic that Polynomial ran before it stored int
# numerators over one denominator, kept as the reference of its results.

def _ref_add(a, b):
    data = dict(a)
    for exps, coef in b.items():
        data[exps] = data.get(exps, Fraction(0)) + coef
    return {e: c for e, c in data.items() if c}


def _ref_sub(a, b):
    data = dict(a)
    for exps, coef in b.items():
        data[exps] = data[exps] - coef if exps in data else -coef
    return {e: c for e, c in data.items() if c}


def _ref_neg(a):
    return {e: -c for e, c in a.items()}


def _ref_scale(a, c):
    return {e: k * c for e, k in a.items() if k * c}


def _ref_mul(a, b):
    data = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = tuple(x + y for x, y in zip(e1, e2))
            data[exps] = data.get(exps, Fraction(0)) + c1 * c2
    return {e: c for e, c in data.items() if c}


def _ref_partial(a, i):
    data = {}
    for exps, coef in a.items():
        e = exps[i - 1]
        if e:
            new = exps[: i - 1] + (e - 1,) + exps[i:]
            data[new] = data.get(new, Fraction(0)) + coef * e
    return {e: c for e, c in data.items() if c}


def _ref_derive(a, i):
    data, shifted = {}, {}
    for exps, coef in a.items():
        head, e, tail = exps[:i - 1], exps[i - 1], exps[i:]
        if e:
            data[head + (e - 1,) + tail] = coef * e
        shifted[head + (e + 1,) + tail] = -2 * coef
    for exps, coef in shifted.items():
        data[exps] = data[exps] + coef if exps in data else coef
    return {e: c for e, c in data.items() if c}


@st.composite
def _polynomial_pairs(draw):
    """Two polynomials of one dimension 1..3 and degree <= 5 with mixed denominators.

    The second one negates some terms of the first, so that sums and
    differences cancel terms and common factors of the denominator.
    """
    n = draw(st.integers(1, 3))
    monomial = st.lists(st.integers(0, 5), min_size=n, max_size=n).map(tuple).filter(
        lambda e: sum(e) <= 5)
    coef = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 9, 12)))
    a = draw(st.dictionaries(monomial, coef, max_size=8))
    b = {e: -c for e, c in a.items() if draw(st.booleans())}
    b.update(draw(st.dictionaries(monomial, coef, max_size=6)))
    return n, a, b


class TestIntStorage:
    """Int numerators over one normalized denominator against the Fraction reference."""

    @given(_polynomial_pairs(), st.builds(Fraction, st.integers(-6, 6), st.integers(1, 8)),
           st.integers(1, 3))
    @settings(max_examples=200, deadline=None)
    def test_arithmetic_matches_fraction_reference(self, pair, c, i):
        n, a, b = pair
        i = min(i, n)
        p, q = Polynomial(n, a), Polynomial(n, b)
        a, b = dict(p.terms), dict(q.terms)
        cases = [(p + q, _ref_add(a, b)), (q + p, _ref_add(b, a)),
                 (p - q, _ref_sub(a, b)), (q - p, _ref_sub(b, a)),
                 (-p, _ref_neg(a)), (p * c, _ref_scale(a, c)), (c * q, _ref_scale(b, c)),
                 (p * q, _ref_mul(a, b)), (p.partial(i), _ref_partial(a, i)),
                 (PolyGauss(p).derive(i).poly, _ref_derive(a, i)),
                 (PolyGauss(q).derive(i).poly, _ref_derive(b, i))]
        for got, ref in cases:
            # the reference's terms, listed in index order
            assert list(got.terms.items()) == sorted(ref.items(), key=lambda t: _place(t[0]))
            assert type(got.den) is int and got.den >= 1
            assert math.gcd(got.den, *got.vec) == 1
            assert all(type(num) is int for num in got.vec)
            assert not got.vec or got.vec[-1]
            assert got == Polynomial(n, ref)
        for got1, ref1 in cases:
            for got2, ref2 in cases:
                assert (got1 == got2) == (ref1 == ref2)

    @pytest.mark.parametrize("seed", range(6))
    def test_unit_weights_over_mixed_denominators(self, seed):
        # a factor of 1 or -1 adds or subtracts a tuple as it is; a tuple
        # over a smaller denominator is scaled to the lcm first
        rng = random.Random(f"unit-weights:{seed}")
        n = rng.randint(1, 3)
        dicts = [{tuple(rng.randint(0, 3) for _ in range(n)): Fraction(rng.randint(-5, 5), den)
                  for _ in range(rng.randint(0, 5))} for den in (12, 3, 2, 12, 1, 4)]
        weights = [rng.choice((1, -1)) for _ in dicts]
        # one tuple cancels another
        dicts.append(dicts[0])
        weights.append(-weights[0])
        row_den = rng.choice((1, 2, 5))
        ref = {}
        for w, d in zip(weights, dicts):
            for e, v in d.items():
                ref[e] = ref.get(e, Fraction(0)) + w * v / row_den
        polys = [Polynomial(n, d) for d in dicts]
        got = Polynomial._from_weighted(n, zip(weights, polys), row_den)
        assert got == Polynomial(n, ref)
        assert got.terms == {e: v for e, v in ref.items() if v}

    def test_zero_results_have_denominator_one(self):
        p = Polynomial(2, {(1, 0): Fraction(1, 6), (0, 2): Fraction(-5, 4)})
        for zero in (p - p, p * 0, p + (-p), Polynomial(2, {(0, 0): Fraction(1, 3)}).partial(1)):
            assert (zero.den, zero.nums, zero.terms) == (1, {}, {})
            assert zero == Polynomial.zero(2)


@st.composite
def _one_source_rows(draw):
    """One polynomial of dimension 1..3 and degree <= 5 (possibly zero), an int
    weight in [-50, 50] and a row denominator in [1, 30]."""
    n = draw(st.integers(1, 3))
    monomial = st.lists(st.integers(0, 5), min_size=n, max_size=n).map(tuple).filter(
        lambda e: sum(e) <= 5)
    coef = st.builds(Fraction, st.integers(-30, 30), st.sampled_from((1, 2, 3, 4, 5, 6, 9, 12)))
    terms = draw(st.one_of(st.just({}), st.dictionaries(monomial, coef, max_size=8)))
    return n, terms, draw(st.integers(-50, 50)), draw(st.integers(1, 30))


class TestFromWeightedOneSource:
    """A row of one source is scaled in one pass: the same stored form as the
    general path and as the Fraction reference."""

    @given(_one_source_rows())
    @example((2, {(1, 0): Fraction(2, 3), (0, 2): Fraction(4, 3)}, 0, 6))
    @example((2, {}, 7, 6))
    @example((2, {(1, 0): Fraction(2, 3), (0, 2): Fraction(4, 3)}, 9, 6))
    @example((1, {(3,): Fraction(5)}, -1, 1))
    @settings(max_examples=300, deadline=None)
    def test_matches_general_path_and_fraction_reference(self, row):
        n, terms, weight, row_den = row
        poly = Polynomial(n, terms)
        got = Polynomial._from_weighted(n, [(weight, poly)], row_den)
        # a second pair of weight 0 takes the general path to the same sum
        general = Polynomial._from_weighted(n, [(weight, poly), (0, poly)], row_den)
        ref = Polynomial(n, {e: weight * c / row_den for e, c in poly.terms.items()})
        assert got.key == general.key == ref.key
        assert type(got.vec) is tuple and all(type(num) is int for num in got.vec)
        assert math.gcd(got.den, *got.vec) == 1 and (not got.vec or got.vec[-1])
        assert got == ref and got.terms == ref.terms

    @pytest.mark.parametrize("weight,terms", [
        (0, {(1, 0): Fraction(2, 3), (0, 2): Fraction(-5, 4)}),
        (5, {}),
        (0, {}),
    ], ids=["zero-weight", "zero-polynomial", "both"])
    def test_zero_is_the_canonical_zero(self, weight, terms):
        got = Polynomial._from_weighted(2, [(weight, Polynomial(2, terms))], 6)
        assert (got.den, got.vec) == (1, ())
        assert got == Polynomial.zero(2) and not got


def _index_order(e):
    """By degree, then descending lexicographic: the order of the graded index."""
    return sum(e), tuple(-v for v in e)


_KERNEL_DEGREES = {1: 12, 2: 8, 3: 5, 4: 4, 5: 3}
_KERNEL_LINES = (([Fraction(1, 2), Fraction(0)], [Fraction(1), Fraction(2, 3)]),
                 ([0.5, 0.0], [1.0, 2 / 3]))


@st.composite
def _kernel_cases(draw):
    """Polynomials as {exps: Fraction} dicts and the arguments of every kernel.

    Three dicts of one dimension 1..5, each possibly empty, with zero
    coefficients and mixed denominators, the second negating some terms of
    the first so that sums cancel; a rational scalar; int weights and a row
    denominator; a coordinate; an order; an exact and a float line.
    """
    n = draw(st.integers(1, 5))
    top = _KERNEL_DEGREES[n]
    monomial = st.lists(st.integers(0, top), min_size=n, max_size=n).map(tuple).filter(
        lambda e: sum(e) <= top)
    coef = st.builds(Fraction, st.integers(-12, 12), st.sampled_from((1, 2, 3, 4, 6, 9, 12)))
    dicts = draw(st.lists(st.dictionaries(monomial, coef, max_size=6), min_size=3, max_size=3))
    dicts[1].update({e: -v for e, v in dicts[0].items() if draw(st.booleans())})
    c = draw(st.builds(Fraction, st.integers(-6, 6), st.integers(1, 8)))
    weights = draw(st.lists(st.integers(-9, 9), min_size=3, max_size=3))
    lines = (draw(st.lists(_small_rationals, min_size=n, max_size=n)),
             draw(st.lists(_small_rationals, min_size=n, max_size=n).filter(any)))
    floats = (draw(st.lists(st.floats(-3, 3), min_size=n, max_size=n)),
              draw(st.lists(st.floats(-2, 2), min_size=n, max_size=n)
                   .filter(lambda v: max(map(abs, v)) >= 0.1)))
    return (n, dicts, c, weights, draw(st.integers(1, 12)), draw(st.integers(1, n)),
            draw(st.integers(0, 4)), lines, floats)


class TestDenseKernel:
    """The numerator tuples and row tables against plain {exps: Fraction} dicts."""

    @given(_kernel_cases())
    @example((2, [{}, {}, {}], Fraction(3, 2), [1, -2, 3], 6, 1, 2, *_KERNEL_LINES))
    @example((2, [{(17, 23): Fraction(3, 4)}, {(40, 0): Fraction(-1, 6), (1, 0): Fraction(2)},
                  {(0, 39): Fraction(5, 9)}], Fraction(-2, 3), [2, 1, -3], 4, 2, 3,
              *_KERNEL_LINES))
    @settings(max_examples=100, deadline=None)
    def test_matches_fraction_dicts(self, case):
        n, dicts, c, weights, row_den, i, q, (x, xi), (fx, fxi) = case
        refs = [{e: v for e, v in d.items() if v} for d in dicts]
        polys = [Polynomial(n, d) for d in dicts]
        (a, b, _), (p, r, _) = refs, polys
        weighted = {}
        for w, ref in zip(weights, refs):
            for e, v in ref.items():
                weighted[e] = weighted.get(e, Fraction(0)) + w * v / row_den
        cases = list(zip(polys, refs)) + [
            (p + r, _ref_add(a, b)), (p - r, _ref_sub(a, b)), (p * c, _ref_scale(a, c)),
            (PolyGauss(p).derive(i).poly, _ref_derive(a, i)),
            (PolyGauss(r).derive(i).poly, _ref_derive(b, i)),
            (Polynomial._from_weighted(n, zip(weights, polys), row_den),
             {e: v for e, v in weighted.items() if v})]
        exact = _ReferenceLineTable(x, xi)
        dyadic = _ReferenceLineTable([Fraction(v) for v in fx], [Fraction(v) for v in fxi])
        for got, ref in cases:
            assert got.terms == ref
            assert list(got.terms) == sorted(ref, key=_index_order)
            assert got.total_degree() == max(map(sum, ref), default=0)
            # one stored form: trimmed, in lowest terms, zero over 1
            assert got == Polynomial(n, ref) and (not got.vec or got.vec[-1])
            assert math.gcd(got.den, *got.vec) == 1 and (got.vec or got.den == 1)
            g = PolyGauss(got)
            assert line_moment(g, q, LineTable(x, xi)) == exact.line_moment(ref, q)
            floaty = line_moment(g, q, LineTable(fx, fxi))
            assert floaty.hex() == float(dyadic.line_moment(ref, q)).hex()


class TestExactValue:
    def test_perfect_square_absorption(self):
        v = ExactValue(Fraction(3), Fraction(4, 9), Fraction(-1))
        assert v.coef == Fraction(2) and v.root == Fraction(1)

    def test_irrational_root_kept(self):
        v = ExactValue(Fraction(1), Fraction(1, 2), Fraction(0))
        assert v.root == Fraction(1, 2)
        assert float(v) == pytest.approx(SQRT_PI / math.sqrt(2), rel=1e-15)

    def test_root_reconciliation_in_sums(self):
        a = ExactValue(Fraction(1), Fraction(1, 2), Fraction(0))
        b = ExactValue(Fraction(1), Fraction(2), Fraction(0))
        # sqrt(2) = 2 * sqrt(1/2), so the sum collapses to a single radical
        assert (a + b).coef == Fraction(3)

    def test_incompatible_exponents_raise(self):
        a = ExactValue(Fraction(1), Fraction(1), Fraction(0))
        b = ExactValue(Fraction(1), Fraction(1), Fraction(-1))
        with pytest.raises(ArithmeticError):
            a + b

    def test_incompatible_roots_raise(self):
        a = ExactValue(Fraction(1), Fraction(2), Fraction(0))
        b = ExactValue(Fraction(1), Fraction(3), Fraction(0))
        with pytest.raises(ArithmeticError):
            a + b

    def test_equality_compares_the_stored_form(self):
        # only a root that is a perfect square is absorbed, so sqrt(8) keeps
        # its square factor: two stored forms of one real, told apart by ==
        # and equal by value
        a, b = ExactValue(1, 8), ExactValue(2, 2)
        assert (a.num, a.den, a.root) == (1, 1, 8) and (b.num, b.den, b.root) == (2, 1, 2)
        assert a != b and not a == b
        assert value_diff(a, b) == 0.0 and (a - b).is_zero and (b - a).is_zero

    def test_zero_absorbs_anything(self):
        z = ExactValue.zero_value()
        v = ExactValue(Fraction(2), Fraction(3), Fraction(-5))
        assert (z + v) == v and (v + z) == v

    @pytest.mark.parametrize("coef, root, exponent", [
        (Fraction(3, 2), Fraction(1, 2), Fraction(-1)),   # 1/s = 1/2, no rational root
        (Fraction(3), Fraction(4, 9), Fraction(-7, 3)),   # 1/s = 4/9, a perfect square
        (Fraction(0), Fraction(5, 2), Fraction(-2)),      # zero
    ])
    def test_trusted_results_match_the_checked_constructor(self, coef, root, exponent):
        v = ExactValue(coef, root, exponent)
        w = ExactValue(Fraction(-1, 5), root, exponent)

        def fields(value):
            return value.coef, value.root, value.exponent

        def checked(c):
            return fields(ExactValue(c, v.root, v.exponent))

        assert fields(v.scaled(Fraction(-4, 3))) == checked(v.coef * Fraction(-4, 3))
        assert fields(v.scaled(0)) == checked(Fraction(0)) == (0, 1, 0)
        assert fields(-v) == checked(-v.coef)
        assert fields(v + v) == checked(2 * v.coef)
        assert fields(v + -v) == fields(v - v) == (0, 1, 0)
        if not v.is_zero and v.root == w.root:
            assert fields(v + w) == checked(v.coef + w.coef)
            assert fields(v + ExactValue(-coef, root, exponent)) == (0, 1, 0)
        results = (v.scaled(3), -v, v + v, v - v)
        assert all(type(x) is Fraction for r in results for x in fields(r))

    def test_float_is_correctly_rounded(self):
        # the nearest float to -7/3 * sqrt(5/2) * sqrt(pi) * exp(-11/4)
        v = ExactValue(Fraction(-7, 3), Fraction(5, 2), Fraction(-11, 4))
        assert float(v) == -0.41803428397115217 == _reference_float(v)

    def test_float_reads_only_the_top_bits_of_a_huge_int(self, monkeypatch):
        # 2^-1442695 * exp(10^6) * sqrt(pi), about 1.82: its 1,442,696-bit
        # denominator would take seconds to convert in full, as CPython
        # converts an int to a Decimal in time quadratic in its digits
        seen = []

        class Recording(polygauss.Decimal):
            # what a Decimal is built from, and what it is divided or multiplied by
            def __new__(cls, value="0", *args):
                seen.append(value)
                return super().__new__(cls, value, *args)

            def __truediv__(self, other):
                seen.append(other)
                return super().__truediv__(other)

            def __mul__(self, other):
                seen.append(other)
                return super().__mul__(other)

        monkeypatch.setattr(polygauss, "Decimal", Recording)
        v = ExactValue(Fraction(1, 2 ** 1442695), 1, 10 ** 6)
        assert float(v) == 1.8234075169051651 == _reference_float(v)
        bits = [a.bit_length() for a in seen if type(a) is int]
        assert bits and max(bits) <= 200

    def test_float_ignores_the_callers_decimal_context(self):
        # the caller's precision, rounding and traps do not reach the conversion
        v = ExactValue(Fraction(-7, 3), Fraction(5, 2), Fraction(-11, 4))
        with localcontext() as ctx:
            ctx.prec, ctx.rounding = 3, ROUND_FLOOR
            ctx.traps[Inexact] = ctx.traps[Overflow] = True
            assert float(v) == -0.41803428397115217
            with pytest.raises(OverflowError):
                float(ExactValue(Fraction(-1), Fraction(1), Fraction(10 ** 400)))

    @pytest.mark.parametrize("coef, root, exponent", [
        (Fraction(10 ** 400), Fraction(1), Fraction(-900)),      # coef overflows, about 2.4e9
        (Fraction(1, 10 ** 400), Fraction(1), Fraction(900)),    # exp overflows, about 1.3e-9
        (Fraction(-10 ** 400), Fraction(1), Fraction(-900)),     # negative coef
        (Fraction(3, 10 ** 400), Fraction(5, 7), Fraction(900)),  # root with no rational sqrt
        (Fraction(1, 10 ** 200), Fraction(1, 10 ** 401), Fraction(1300)),  # root underflows
        (Fraction(10 ** 300), Fraction(1), Fraction(-800)),      # exp underflows, about 6.5e-48
        # every factor fits, but coef * sqrt(root) underflows: about -6.5e-264
        (Fraction(-6548619478267659, 10 ** 383), Fraction(95993, 248203 * 10 ** 46),
         Fraction(106699, 365)),
    ])
    def test_float_of_a_value_whose_factors_leave_the_float_range(self, coef, root, exponent):
        # no factor needs to be a float: the value is the nearest float to
        # the 70-digit reference
        v = ExactValue(coef, root, exponent)
        assert float(v).hex() == _reference_float(v).hex()

    @pytest.mark.parametrize("coef, root, exponent", [
        (Fraction(-3, 2 ** 1030), Fraction(4, 9), Fraction(0)),   # a subnormal value
        (Fraction(7, 2 ** 1025), Fraction(5, 2), Fraction(-1, 3)),  # a normal one, about 3.9e-308
    ])
    def test_float_of_a_subnormal_quotient_is_rounded_once(self, coef, root, exponent):
        # num / den is subnormal: the value is still rounded once, to the
        # nearest float to the 70-digit reference
        v = ExactValue(coef, root, exponent)
        assert float(v).hex() == _reference_float(v).hex()

    @given(st.integers(-10 ** 30, 10 ** 30).filter(bool), st.integers(1, 10 ** 30),
           st.integers(1, 10 ** 30), st.integers(1, 10 ** 30),
           st.integers(-50_000, 50_000), st.integers(1, 100), st.integers(-1080, 1023))
    @example(1, 1, 1, 1, 574_817, 1000, 0)        # exp(574.8) scaled into range
    @example(-3, 1, 4, 9, 0, 1, -1074)             # about the least subnormal
    @settings(max_examples=300, deadline=None)
    def test_float_is_the_nearest_float_to_a_reference(self, num, den, rn, rd, en, ed, target):
        # coef * sqrt(root) * sqrt(pi) * exp(exponent), its coefficient scaled
        # by a power of 2 so that |value| lies in [2^target, 2^(target + 1)):
        # normal values, subnormal ones and ones that round to a signed zero,
        # each the nearest float to the 70-digit reference
        v = ExactValue(Fraction(num, den), Fraction(rn, rd), Fraction(en, ed))
        man, exp = _reference(v).man_exp  # |value| in [2^(exp + bits - 1), 2^(exp + bits))
        scale = target + 1 - exp - man.bit_length()
        v = ExactValue(v.coef * Fraction(2) ** scale, v.root, v.exponent)
        assert float(v).hex() == _reference_float(v).hex()

    @pytest.mark.parametrize("coef, exponent", [
        (Fraction(10 ** 400), Fraction(0)),
        (Fraction(1), Fraction(800)),
        (Fraction(-1), Fraction(10 ** 400)),
    ])
    def test_float_out_of_range_overflows(self, coef, exponent):
        with pytest.raises(OverflowError):
            float(ExactValue(coef, Fraction(1), exponent))

    def test_float_below_range_is_a_signed_zero(self):
        assert float(ExactValue(Fraction(-1), Fraction(1), Fraction(-10 ** 400))) == 0.0
        assert math.copysign(1, float(ExactValue(Fraction(-1), Fraction(1), Fraction(-800)))) == -1

    @given(st.integers(-10 ** 30, 10 ** 30), st.integers(1, 10 ** 30), st.integers(1, 40),
           st.integers(-9, 9), st.integers(1, 9), st.integers(-9, 9), st.integers(1, 9))
    @example(0, 7, 12, 5, 2, -3, 4)
    @example(-12, 18, 6, 0, 9, 1, 1)
    @settings(max_examples=150, deadline=None)
    def test_int_pair_against_a_fraction_reference(self, num, den, common, rn, rd, en, ed):
        # ints with a common factor and either sign, against Fraction's normal form
        root, exponent = Fraction(rn * rn + 1, rd), Fraction(en, ed)
        r = rational_sqrt(root)
        # the canonical triple: a perfect-square root absorbed into the coefficient
        coef, canon = (Fraction(num, den), root) if r is None else (Fraction(num, den) * r, 1)
        triple = (coef, canon, exponent) if coef else (0, 1, 0)
        checked = ExactValue(Fraction(num, den), root, exponent)
        trusted = ExactValue._from_ints(coef.numerator * common, coef.denominator * common,
                                        Fraction(canon), exponent)
        for built in (checked, trusted):
            assert type(built.num) is int and type(built.den) is int
            assert built.den > 0 and math.gcd(built.num, built.den) == 1
            assert type(built.coef) is Fraction and built.coef == Fraction(built.num, built.den)
            assert (built.coef, built.root, built.exponent) == triple
            assert built.is_zero == (not coef)
            assert hash(built) == hash(triple)
            assert float(built) == float(checked)
        assert checked == trusted and hash(checked) == hash(trusted)
        other = ExactValue(coef + Fraction(1, common), canon, exponent)
        assert (trusted == other) == (triple == (other.coef, other.root, other.exponent))
        assert (trusted != other) == (triple != (other.coef, other.root, other.exponent))

    @given(st.fractions(max_denominator=10 ** 6), st.fractions(max_denominator=10 ** 6),
           st.integers(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_arithmetic_keeps_the_triple_of_the_fraction_reference(self, a, b, c):
        root, exponent = Fraction(2, 3), Fraction(-1, 7)
        va, vb = ExactValue(a, root, exponent), ExactValue(b, root, exponent)
        for value, coef in ((va + vb, a + b), (va - vb, a - b), (-va, -a),
                            (va.scaled(c), a * c), (va.scaled(Fraction(c, 7)), a * c / 7),
                            (va * Fraction(1, 3), a / 3), (3 * va, 3 * a)):
            assert value == ExactValue(coef, root, exponent)
            assert (value.coef, value.root, value.exponent) == (
                (coef, root, exponent) if coef else (0, 1, 0))
            assert value.den > 0 and math.gcd(value.num, value.den) == 1

    def test_zero_is_one_canonical_value(self):
        zero = ExactValue.zero_value()
        assert zero is ExactValue.zero_value()
        assert (zero.num, zero.den, zero.root, zero.exponent) == (0, 1, 1, 0)
        v = ExactValue(Fraction(2, 3), Fraction(2), Fraction(-1))
        for z in (ExactValue(0, Fraction(5), Fraction(3)), v.scaled(0), v - v, v + (-v),
                  ExactValue._from_ints(0, 7, v.root, v.exponent)):
            assert z == zero and hash(z) == hash(zero)
            assert (z.coef, z.root, z.exponent) == (0, 1, 0)
        assert v.scaled(0) is zero and (v - v) is zero
        assert zero + v is v and v + zero is v
        assert not (zero == 0) and zero != (0, 1, 0)

    def test_assignment_raises(self):
        v = ExactValue(Fraction(1, 2), Fraction(3), Fraction(-1))
        for name, value in (("num", 5), ("den", 3), ("root", Fraction(1)),
                            ("exponent", Fraction(0)), ("coef", Fraction(1)), ("other", 1)):
            with pytest.raises(AttributeError):
                setattr(v, name, value)
        with pytest.raises(AttributeError):
            del v.num
        assert not hasattr(v, "__dict__")
        assert (v.num, v.den, v.root, v.exponent) == (1, 2, 3, -1)

    def test_constructor_still_checks_its_input(self):
        with pytest.raises(TypeError):
            ExactValue(0.5)
        with pytest.raises(TypeError):
            ExactValue(Fraction(1), 2.0)
        with pytest.raises(ValueError):
            ExactValue(Fraction(1), Fraction(-2))
        with pytest.raises(TypeError):
            ExactValue(Fraction(1)).scaled(0.5)

    def test_rational_sqrt(self):
        assert rational_sqrt(Fraction(9, 16)) == Fraction(3, 4)
        assert rational_sqrt(Fraction(2)) is None
        assert rational_sqrt(Fraction(-4)) is None


def _ref_random_polynomial(n, degree, rng):
    """The Fraction sampler that the int ``random_polynomial`` replaced."""
    index = _monomials(n)
    index.grow(degree)
    terms = {}
    for exps in sorted(index.exps[:index.starts[degree + 1]]):
        num = rng.randint(-4, 4)
        if num:
            terms[exps] = Fraction(num, rng.choice((1, 2, 3)))
    return Polynomial(n, terms)


class TestRandomField:
    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_int_draw_matches_the_fraction_draw(self, n):
        # the same rng calls in the same order, the same stored form
        for seed in range(200):
            rng, ref = random.Random(f"poly:{n}:{seed}"), random.Random(f"poly:{n}:{seed}")
            for degree in range(4):
                got, want = random_polynomial(n, degree, rng), _ref_random_polynomial(n, degree, ref)
                assert (got.den, got.vec) == (want.den, want.vec)
                assert rng.getstate() == ref.getstate()

    def test_seed_determinism(self):
        a = random_field(3, 2, 2, 99)
        b = random_field(3, 2, 2, 99)
        assert a == b

    def test_rank_zero_degree_zero(self):
        f = random_field(2, 0, 0, 5)
        poly = f.get(()).poly
        assert set(poly.terms) <= {(0, 0)}

    def test_distinct_seeds_differ(self):
        fields = [random_field(2, 1, 2, seed) for seed in range(100)]
        distinct = {serialize_field(f) for f in fields}
        assert len(distinct) >= 99

    def test_component_dimensions_validated(self):
        with pytest.raises(ValueError):
            sym_field(2, 1, {(1,): gauss(3)})
        with pytest.raises(TypeError):
            sym_field(2, 0, {(): Polynomial.zero(2)})

    def test_scale_report(self):
        f = sym_field(2, 1, {(1,): PolyGauss(Polynomial(2, {(0, 0): Fraction(-7, 2)}))})
        assert field_scale_report(f) == Fraction(7, 2)
