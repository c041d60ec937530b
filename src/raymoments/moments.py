"""Momentum ray transforms and the derivative calculus on transform data.

The q-th moment transform integrates t^q times the direction-contracted field
along a line.  On the manifold of oriented lines (unit direction, orthogonal
offset) this is the classical momentum transform; the extended version lives
on arbitrary (x, xi) with xi nonzero, where partial derivatives in both
variables make sense.

Derivatives of transform data are never taken by finite differences: closed
rewrite rules express them as rational combinations of transforms of derived
or restricted fields (MomentExpression, which names each datum, times a
xi-monomial, by address and no field), so every transform-level identity can
be evaluated exactly on rational lines.  Every point, exact or float, keeps
its direction as ints, contracts the field with it once per restriction, in
ints, and differentiates that one polynomial, so each datum costs one derive
and one line integral at most, taken on the point, which is its own line
table (an exact value; on a float point, that value correctly rounded).  A datum
is read from the field's jet only when it is fully restricted: then there is
nothing to contract, and every point and the operators share the jet's
derivative.  Exact values are summed as int pairs (``ExactValue.sum``), and
weighted by the direction in one place (``_xi_weighted_sum``).  The two
John identities read one table of John data per multiset of pairs p < q,
evaluated once per point (and field and fixed multiset) and kept on it.
The John chains behind it, the recovery expressions and the
direction-weighted sums depend on neither the line nor the field: each is
built once per field shape (the John chains once per rank left after the
restriction, relabelled per fixed multiset), and a point only evaluates them.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import random
import sys
from fractions import Fraction
from typing import Sequence

from .diffops import _alternated, _pair_key, _splits
from .polygauss import (
    ExactValue,
    LineTable,
    PolyGauss,
    Polynomial,
    _jet,
    _ratio_sqrt,
    is_rational,
    line_moment,
)
from .symtensor import (
    RawTensor,
    _check_indices,
    _multiset_difference,
    _orbits,
    _over_lcm,
    _row,
    SymTensor,
    all_canonical_tuples,
    restriction_indices,
    symmetrize,
    tuple_multiplicity,
)

PROJECTION_TOL = 1e-12


class PhasePoint(LineTable):
    """A point (x, xi) with xi nonzero; the argument of extended transforms.

    A point is the LineTable of its line x + t*xi, the table that
    ``line_moment`` takes, which decides its scalars: a point is exact when
    every coordinate is rational, otherwise its line integrals are floats,
    each the exact integral on the same dyadic line correctly rounded.
    ``s`` = |xi|^2 and ``c`` = x.xi are exact either way.  The point keeps
    its coordinates only as ints, xi as ``xi_nums`` over ``xi_den``, the
    lcm of its denominators (a power of 2 on a float point), so that the
    direction weights of a rank-r transform datum are ints over
    ``xi_den**r`` (see ``_contraction``), and x as ``x_nums`` over
    ``x_den``; ``x`` and ``xi`` are views built on read (a float point's
    reads -0.0 as 0.0).  The samplers build exact points from ints.

    Three memos, which live as long as the point, make each value at it one
    computation.  ``contracted`` holds the direction contractions of a
    field under ``(sorted fixed, sorted derivs, id(field))`` (see
    ``_contraction``), and ``_john_tables`` its John tables under ``(sorted
    fixed, id(field))``; each entry also holds its field, so that no id in a
    key can pass to another field while the entry lives.  ``integrals``
    holds line integrals of PolyGauss values under the order and the
    polynomial's stored form, ``(q, poly.key)``, so that a polynomial
    reached through two objects is integrated once.  Every line integral
    this module takes goes through ``integral``, so a transform datum is
    one lookup in each.  ``zero`` is the value of an empty sum at the
    point: the shared exact zero on an exact point, 0.0 on a float one.
    """

    __slots__ = ("zero", "contracted", "integrals", "_john_tables")

    def _setup(self, *line) -> None:
        super()._setup(*line)
        self.zero = ExactValue.zero_value() if self.is_exact else 0.0
        self.contracted: dict = {}
        self.integrals: dict = {}
        self._john_tables: dict = {}

    def _translated(self, den: int) -> "PhasePoint":
        """The exact point (x + xi / den, xi), from the point's ints, for an int ``den`` > 0."""
        return PhasePoint._from_ints(
            [den * a * self.xi_den + b * self.x_den for a, b in zip(self.x_nums, self.xi_nums)],
            den * self.x_den * self.xi_den, self.xi_nums, self.xi_den)

    def integral(self, g, q: int):
        """The integral of t^q g along the point's line, computed once."""
        poly = g.poly
        key = (q, poly.key)
        hit = self.integrals.get(key)
        if hit is None:
            hit = self.integrals[key] = line_moment(g, q, self)
        return hit

    @property
    def n(self) -> int:
        return len(self.x_nums)

    def project(self) -> "TSPoint":
        """The oriented-line representative: orthogonal offset, unit direction."""
        if self.is_exact:
            # x + mean * xi, mean = -c/s the parameter of the line's closest point
            (mn, md), dx, dxi = self.mean_ratio, self.x_den, self.xi_den
            xp = [a * md * dxi + mn * b * dx for a, b in zip(self.x_nums, self.xi_nums)]
            den = dx * md * dxi
            lam = _ratio_sqrt(*self.s_ratio)
            if lam is not None:  # xi / lam, with lam = sqrt(s) = a / b
                a, b = lam
                return TSPoint._from_ints(xp, den, [v * b for v in self.xi_nums], dxi * a)
            x, xi = [v / den for v in xp], [v / dxi for v in self.xi_nums]
        else:
            x, xi = list(self.x), list(self.xi)
        norm = math.sqrt(sum(v * v for v in xi))
        u = [v / norm for v in xi]
        for _ in range(2):
            d = sum(a * b for a, b in zip(x, u))
            x = [a - d * b for a, b in zip(x, u)]
        return TSPoint(x, u)

    def __repr__(self) -> str:
        kind = "exact" if self.is_exact else "float"
        return f"PhasePoint(x={self.x}, xi={self.xi}, {kind})"


class TSPoint(PhasePoint):
    """An oriented line: unit direction and offset orthogonal to it.

    Exact coordinates must satisfy the constraints exactly; float coordinates
    within PROJECTION_TOL, with the residual recorded.
    """

    __slots__ = ("projection_residual",)

    def _setup(self, *line) -> None:
        super()._setup(*line)
        if self.is_exact:
            if self.s_ratio[0] != self.s_ratio[1]:
                raise ValueError("direction must have exact unit norm")
            if self.c_ratio[0]:
                raise ValueError("offset must be exactly orthogonal to direction")
            self.projection_residual = 0.0
        else:
            res = float(max(abs(self.s - 1), abs(self.c)))
            if res > PROJECTION_TOL:
                raise ValueError(f"line constraints violated by {res:.3e}")
            self.projection_residual = res


def _unit_nums(n: int, rng: random.Random) -> tuple[list, int]:
    """A random rational vector of exact unit norm, as int numerators over one denominator.

    Circle points (a^2 - b^2, 2ab) / (a^2 + b^2), nested across coordinates,
    then randomly permuted.
    """
    if n == 1:
        return [rng.choice((-1, 1))], 1
    vec, den = [1], 1
    while len(vec) < n:  # [c] + s * vec for a circle point (c, s)
        a = b = 0
        while not (a or b):
            a, b = rng.randint(-6, 6), rng.randint(-6, 6)
        vec = [(a * a - b * b) * den] + [2 * a * b * v for v in vec]
        den *= a * a + b * b
    order = list(range(n))
    rng.shuffle(order)
    return [vec[i] for i in order], den


def rational_unit_vector(n: int, rng: random.Random) -> tuple[Fraction, ...]:
    """A random rational vector of exact unit norm (drawn in ints by ``_unit_nums``)."""
    nums, den = _unit_nums(n, rng)
    return tuple(Fraction(v, den) for v in nums)


def _random_rational_nums(n: int, rng: random.Random) -> list[int]:
    return [rng.randint(-4, 4) * (12 // rng.choice((2, 3, 4))) for _ in range(n)]


def random_ts_point(n: int, rng: random.Random) -> TSPoint:
    """A random exact oriented line with offset norm at most 3/2, drawn in ints."""
    u, u_den = _unit_nums(n, rng)
    x, den = [0] * n, 1
    for _ in range(16):
        y = _random_rational_nums(n, rng)
        c = sum(map(operator.mul, y, u))
        cand = [a * u_den * u_den - c * b for a, b in zip(y, u)]
        if any(cand):
            x, den = cand, 12 * u_den * u_den
            break
    while 4 * sum(v * v for v in x) > 9 * den * den:
        den *= 2
    return TSPoint._from_ints(x, den, u, u_den)


def random_phase_point(n: int, rng: random.Random) -> PhasePoint:
    """A random exact phase point with rational direction norm in [1/2, 2].

    The offset keeps a minimum angle to the direction so the projected line
    stays well separated from the degenerate locus.  Drawn in ints.
    """
    u, u_den = _unit_nums(n, rng)
    lam = rng.randint(2, 8)
    xi, xi_den = [lam * v for v in u], 4 * u_den
    for _ in range(64):
        x, den = _random_rational_nums(n, rng), 12
        norm2 = sum(v * v for v in x)
        while norm2 > 4 * den * den:
            den *= 2
        c = sum(map(operator.mul, x, u))
        if 100 * norm2 <= den * den or 16 * c * c <= 15 * norm2 * u_den * u_den:
            return PhasePoint._from_ints(x, den, xi, xi_den)
    return PhasePoint._from_ints([0] * n, 1, xi, xi_den)


def random_float_ts_point(n: int, rng: random.Random) -> TSPoint:
    """A random float-path oriented line (projected and normalized)."""
    while True:
        xi = [rng.gauss(0.0, 1.0) for _ in range(n)]
        if math.sqrt(sum(v * v for v in xi)) > 1e-3:
            break
    x = [rng.gauss(0.0, 0.7) for _ in range(n)]
    return PhasePoint(x, xi).project()


def magnitude(v) -> float:
    """|v| as a float that is 0.0 only for an exact zero.

    ``v`` is a Fraction or an ExactValue.  A nonzero magnitude is clamped to
    [math.ulp(0.0), sys.float_info.max], so that neither underflow nor
    overflow changes whether it reads as zero.
    """
    if (v.is_zero if isinstance(v, ExactValue) else v == 0):
        return 0.0
    try:
        mag = abs(float(v))
    except OverflowError:
        return sys.float_info.max
    return min(max(mag, math.ulp(0.0)), sys.float_info.max)


def value_diff(a, b) -> float:
    """Absolute difference of two transform values.

    Two ExactValues of equal stored form give 0.0 at once; others are
    subtracted exactly, as an int sum (``ExactValue.sum``), and the difference
    goes through ``magnitude``, so the result is 0.0 iff they are equal as
    reals; values that cannot be subtracted exactly (different
    exponents or incompatible roots) raise ArithmeticError.  Two floats, on
    the float route, give the float difference; an ExactValue against a
    float raises TypeError.
    """
    if isinstance(a, ExactValue) and isinstance(b, ExactValue):
        return 0.0 if a == b else magnitude(a - b)
    if isinstance(a, ExactValue) or isinstance(b, ExactValue):
        raise TypeError("cannot compare an exact value with a float one")
    return abs(float(a) - float(b))


def _weighted_sum(pairs, zero, den: int = 1):
    """Sum of weight * value over (weight, value) pairs, over ``den``; ``zero`` if none.

    Exact (an ExactValue, summed in ints by ``ExactValue.sum``) when every
    value is exact and every weight rational, ``math.fsum`` of the float
    products when no value is exact.  An exact value with a float value or
    weight raises TypeError, as in ``value_diff``: an exact sum never falls
    back to float.  ``den`` is a positive int.  On the float route each
    weight is divided by it before it meets its value, so that an int
    weight and ``den`` too large for a float still give their finite
    quotient.
    """
    pairs = list(pairs)
    if not pairs:
        return zero
    if all(isinstance(v, ExactValue) and is_rational(w) for w, v in pairs):
        return ExactValue.sum(pairs, den)
    if any(isinstance(v, ExactValue) for _, v in pairs):
        raise TypeError("cannot sum exact values with float values or weights")
    return math.fsum(w / den * float(v) for w, v in pairs)


def _xi_weighted_sum(pt: PhasePoint, terms, den: int = 1):
    """Sum of weight * xi^K * value over (weight, K, value) terms, K a tuple of axes.

    The one place where transform values are weighted by the direction: in
    int weights over ``den * pt.xi_den**r``, r the longest K, each weight
    times the ints ``pt.xi_nums`` on K and ``pt.xi_den`` as often as K lacks.
    """
    terms, xi, xi_den = list(terms), pt.xi_nums, pt.xi_den
    r = max((len(axes) for _, axes, _ in terms), default=0)
    return _weighted_sum(((math.prod((xi[a - 1] for a in axes),
                                     start=weight * xi_den ** (r - len(axes))), value)
                          for weight, axes, value in terms), pt.zero, den * xi_den ** r)


@functools.lru_cache(maxsize=64)
def _keys_with_multiplicity(n: int, rank: int) -> tuple:
    """``(key, tuple_multiplicity(key))`` for the canonical keys of a rank."""
    return tuple((key, tuple_multiplicity(key)) for key in all_canonical_tuples(n, rank))


def _contraction(f: SymTensor, pt: PhasePoint, fixed: tuple, derivs: tuple) -> PolyGauss:
    """The direction contraction of the derivative ``derivs`` of f restricted at ``fixed``.

    For sorted ``fixed`` and ``derivs``: the sum, over the canonical keys J
    of the remaining rank r, of the multiplicity of J times the product of
    xi_j over J (ints in ``pt.xi_nums``, over ``pt.xi_den**r``) times the
    partial derivative ``derivs`` of f's component at ``fixed + J``.
    When ``fixed`` fills the rank, there is nothing to contract: the
    datum is the jet entry of f at ``(fixed, derivs)`` (``_jet``), which
    every point and the operators share.  Otherwise differentiation is
    linear, so only the root entry, with no derivatives, reads f: its
    components, read by canonical key (every caller has validated
    ``fixed``), are added up in ints, as the diffops stencils are applied.
    Every other entry is its prefix in the sorted ``derivs`` differentiated
    once more, so each entry costs one derive and reads no jet entry of f.
    Memoized in the point's ``contracted`` under ``(fixed, derivs, id(f))``,
    with the field held beside it.
    """
    if len(fixed) == f.rank:
        return _jet(f, fixed, derivs)
    memo_key = (fixed, derivs, id(f))
    hit = pt.contracted.get(memo_key)
    if hit is None:
        if derivs:
            value = _contraction(f, pt, fixed, derivs[:-1]).derive(derivs[-1])
        else:
            rank, xi, read = f.rank - len(fixed), pt.xi_nums, f.components.get
            value = PolyGauss(Polynomial._from_weighted(
                f.n, ((weight, read(tuple(sorted(fixed + key)), f.zero).poly)
                      for key, mult in _keys_with_multiplicity(pt.n, rank)
                      if (weight := math.prod((xi[j - 1] for j in key), start=mult))),
                pt.xi_den ** rank))
        hit = pt.contracted[memo_key] = (f, value)
    return hit[1]


def _transform_value(f: SymTensor, q: int, pt: PhasePoint, fixed=(), derivs=()):
    """The q-th transform of the derivative ``derivs`` of f restricted at ``fixed``.

    The line integral of t^q times the direction-contracted field
    (``_contraction``), one polynomial that the point holds: one line
    integral on the point's table, none when the contraction is zero.  Both
    the contraction and the integral are read through the point's memos.
    """
    if f.n != pt.n:
        raise ValueError("field and point dimensions differ")
    return _sorted_value(f, q, pt, tuple(sorted(fixed)), tuple(sorted(derivs)))


def _sorted_value(f: SymTensor, q: int, pt: PhasePoint, fixed: tuple, derivs: tuple):
    """``_transform_value`` at a sorted ``fixed`` and ``derivs``, read as they are."""
    g = _contraction(f, pt, fixed, derivs)
    return pt.integral(g, q) if g else pt.zero


def moment_transform(f: SymTensor, q: int, pt: TSPoint):
    """The q-th momentum transform of a field on an oriented line."""
    if not isinstance(pt, TSPoint):
        raise TypeError("moment_transform requires an oriented-line point")
    return _transform_value(f, q, pt)


def extended_transform(f: SymTensor, q: int, pt: PhasePoint):
    """The q-th transform at an arbitrary phase point (xi nonzero)."""
    if not isinstance(pt, PhasePoint):
        raise TypeError("extended_transform requires a PhasePoint")
    return _transform_value(f, q, pt)


def moment_stack(f: SymTensor, k: int, pt: TSPoint) -> list:
    """The first k+1 momentum transforms at one line."""
    if k < 0:
        raise ValueError("k must be non-negative")
    return [moment_transform(f, q, pt) for q in range(k + 1)]


def extended_from_moments(i_values: Sequence, q: int, pt: PhasePoint, rank: int):
    """Rebuild the extended transform from moment data on the projected line.

    ``i_values`` are the transforms of orders 0..q at pt.project().  Exact,
    with int weights over one denominator, when the direction norm is
    rational and the values are exact; exact values at an irrational
    direction norm raise TypeError.
    """
    if q < 0 or len(i_values) < q + 1:
        raise ValueError("need moment values of orders 0..q")
    e = rank - 2 * q - 1
    lam, (cn, cd) = _ratio_sqrt(*pt.s_ratio), pt.c_ratio
    if lam is None:  # an irrational direction norm takes the weights to floats
        lam, c = math.sqrt(float(pt.s)), float(pt.c)
        return _weighted_sum((((-1) ** (q - ell) * math.comb(q, ell) * lam ** (e + ell)
                               * c ** (q - ell), i_values[ell]) for ell in range(q + 1)),
                             pt.zero)
    a, b = lam
    top, bottom = (a, b) if e >= 0 else (b, a)
    return _weighted_sum((((-1) ** (q - ell) * math.comb(q, ell) * top ** abs(e)
                           * (a * cd) ** ell * (b * cn) ** (q - ell), i_values[ell])
                          for ell in range(q + 1)), pt.zero,
                         (b * cd) ** q * bottom ** abs(e))


class MomentExpression:
    """A rational-linear combination of transform data of one field shape.

    An expression names no field.  It holds the shape ``(n, m)`` of the
    fields it applies to, dimension and rank, and the row (``_row``) of its
    ``(address, weight)`` parts: ``terms`` sorted by address, int weights
    over ``den``.  The address ``(q, fixed, derivs, mono)`` names xi^mono
    (the product of xi_a over a in ``mono``) times the q-th transform of
    the partial derivative ``derivs`` of a field restricted at the indices
    ``fixed``; all three tuples are sorted, as factors and partials commute,
    also with restriction.  Structurally canceling identities collapse to
    the empty expression, and expressions compare and hash by value.
    ``evaluate(f, pt)`` reads every address of one field at one point.
    """

    __slots__ = ("n", "m", "den", "terms")

    def __init__(self, n: int, m: int, parts=(), den: int = 1):
        den, terms = _row(parts, den)
        self.n, self.m, self.den, self.terms = n, m, den, tuple(sorted(terms))

    @classmethod
    def transform(cls, f: SymTensor, q: int,
                  fixed: Sequence[int] = ()) -> "MomentExpression":
        """The q-th transform of fields of f's shape restricted at the indices ``fixed``."""
        if q < 0:
            raise ValueError("moment order must be non-negative")
        fixed = tuple(sorted(restriction_indices(f, fixed)))
        return cls._datum(f.n, f.rank, q, fixed)

    @classmethod
    def _datum(cls, n: int, m: int, q: int, fixed: tuple = ()) -> "MomentExpression":
        return cls(n, m, (((q, fixed, (), ()), 1),))

    def _same_shape(self, n: int, m: int) -> None:
        if (n, m) != (self.n, self.m):
            raise ValueError(f"shape {(n, m)} is not the expression's {(self.n, self.m)}")

    def _over(self, den: int):
        """The terms as int weights over ``den``, a multiple of ``self.den``."""
        scale = den // self.den
        return ((address, weight * scale) for address, weight in self.terms)

    def __eq__(self, other) -> bool:
        return (isinstance(other, MomentExpression)
                and (self.n, self.m, self.den, self.terms)
                == (other.n, other.m, other.den, other.terms))

    def __hash__(self) -> int:
        return hash((self.n, self.m, self.den, self.terms))

    def __add__(self, other: "MomentExpression") -> "MomentExpression":
        if not isinstance(other, MomentExpression):
            return NotImplemented
        self._same_shape(other.n, other.m)
        den = math.lcm(self.den, other.den)
        return MomentExpression(self.n, self.m, [*self._over(den), *other._over(den)], den)

    def __neg__(self) -> "MomentExpression":
        return MomentExpression(self.n, self.m, ((a, -w) for a, w in self.terms), self.den)

    def __sub__(self, other: "MomentExpression") -> "MomentExpression":
        return self + (-other)

    def __mul__(self, coef) -> "MomentExpression":
        if not is_rational(coef):
            return NotImplemented
        num, den = coef.as_integer_ratio()
        return MomentExpression(self.n, self.m, ((a, w * num) for a, w in self.terms),
                                self.den * den)

    __rmul__ = __mul__

    def evaluate(self, f: SymTensor, pt: PhasePoint):
        """Value for the field f, which must have the expression's shape, at one point.

        Each address is read through the point's memos, which live as long
        as the point: a contraction or line integral of f that any
        evaluation or check at the point has already met is not computed
        again.  The addresses are sorted, so they are read as they are.
        """
        self._same_shape(f.n, f.rank)
        if f.n != pt.n:
            raise ValueError("field and point dimensions differ")
        return _xi_weighted_sum(pt, ((weight, mono, _sorted_value(f, q, pt, fixed, derivs))
                                     for (q, fixed, derivs, mono), weight in self.terms),
                                self.den)


def dx(e: MomentExpression, i: int) -> MomentExpression:
    """Partial derivative of transform data in the i-th base coordinate.

    Differentiation under the integral moves onto the field componentwise.
    """
    axis = _check_indices((i,), e.n)
    return MomentExpression(e.n, e.m, (((q, fixed, tuple(sorted(derivs + axis)), mono), w)
                                       for (q, fixed, derivs, mono), w in e.terms), e.den)


def dxi(e: MomentExpression, i: int) -> MomentExpression:
    """Partial derivative of transform data in the i-th direction coordinate.

    Three contributions: the line parametrization (order rises by one, field
    differentiated), the direction contraction (rank-many copies of the
    transform of the field restricted at i) and the address's xi^mono (one
    copy per factor xi_i, with that factor taken out).
    """
    axis = _check_indices((i,), e.n)
    parts = []
    for (q, fixed, derivs, mono), w in e.terms:
        parts.append(((q + 1, fixed, tuple(sorted(derivs + axis)), mono), w))
        r = e.m - len(fixed)
        if r:
            parts.append(((q, tuple(sorted(fixed + axis)), derivs, mono), w * r))
        if times := mono.count(i):
            parts.append(((q, fixed, derivs, _multiset_difference(mono, axis)), w * times))
    return MomentExpression(e.n, e.m, parts, e.den)


def john(e: MomentExpression, p: int, q: int) -> MomentExpression:
    """The John operator in coordinates p, q applied to transform data."""
    if p == q:
        raise ValueError("John operator requires two distinct coordinates")
    return dx(dxi(e, q), p) - dx(dxi(e, p), q)


def _recovery_term(r: int, p: int) -> int:
    """Sign and binomial factor of the p-th term of the recovery sum."""
    return (-1) ** p * math.comb(r, p)


# The chains below depend on the field shape (n, m) and a sorted fixed
# multiset, so each is built once per shape.  Their keys also carry every
# function of this module the build reaches (``rewrites``), as
# diffops._stencil keeps ``series``: a patched one is never served a chain
# built before the patch.

@functools.lru_cache(maxsize=64)
def _recovery(n: int, m: int, fixed: tuple, rewrites: tuple) -> MomentExpression:
    """The restricted-recovery expression at the sorted ``fixed``.

    ``rewrites`` is ``(_recovery_term, dx, dxi)``.  The alternating sum runs
    over every ordering of the fixed indices, so it depends only on their
    multiset.  Built once per orbit of coordinate relabellings, in int
    weights merged once, and relabelled by an increasing map.
    """
    labels = sorted(set(fixed))
    first = tuple(labels.index(i) + 1 for i in fixed)
    if first != fixed:
        back = (0, *labels)
        e = _recovery(n, m, first, rewrites)
        return MomentExpression(n, m, (
            ((q, *(tuple(back[i] for i in axes) for axes in address)), w)
            for (q, *address), w in e.terms), e.den)
    r = len(fixed)
    signs = [_recovery_term(r, p) for p in range(r + 1)]
    perms, parts = dict.fromkeys(itertools.permutations(fixed)), []
    for perm in perms:  # every distinct ordering stands for as many of the r!
        for p, sign in enumerate(signs):
            e = MomentExpression._datum(n, m, p)
            for i in perm[:p]:
                e = dx(e, i)
            for i in perm[p:]:
                e = dxi(e, i)
            parts.extend((address, sign * w) for address, w in e.terms)  # e.den is 1
    den = len(perms) * math.factorial(m) // math.factorial(m - r)
    return MomentExpression(n, m, parts, den)


def recover_restricted(f: SymTensor, fixed: Sequence[int], pt: PhasePoint):
    """Transform of a restricted field rebuilt from derivatives of moment data.

    Symmetrizes over the fixed indices an alternating sum of mixed x/xi
    derivatives of the transforms of orders 0..r and evaluates at pt; equals
    the zeroth transform of the restriction of f at those indices.  The
    expression is built once per field shape and fixed multiset
    (``_recovery``).
    """
    fixed = tuple(sorted(restriction_indices(f, fixed)))
    return _recovery(f.n, f.rank, fixed, (_recovery_term, dx, dxi)).evaluate(f, pt)


@functools.lru_cache(maxsize=64)
def _john_chains(n: int, m: int, fixed: tuple, rewrites: tuple) -> dict:
    """The John chains of the zeroth transform at the sorted ``fixed``, per pair multiset.

    ``rewrites`` is ``(john, dx, dxi)``.  One MomentExpression per multiset
    of ``m - len(fixed)`` pairs p < q, the chain that applies ``john`` once
    per pair, keyed by ``_pair_key(pairs)[0]``.  John operators commute, so
    a multiset names its chain, and each shorter chain is built once and
    extended by every pair that may follow it.  The rewrites read a
    restriction only through the rank left after it (``dxi``'s factor), so
    the chains are built once per ``(n, m - len(fixed))`` at no fixed index
    and relabelled: the address ``(q, S, D, K)`` becomes ``(q, fixed + S, D,
    K)``, sorted.
    """
    if fixed:
        return {key: MomentExpression(n, m, (
                    ((q, tuple(sorted(fixed + restricted)), derivs, mono), w)
                    for (q, restricted, derivs, mono), w in e.terms), e.den)
                for key, e in _john_chains(n, m - len(fixed), (), rewrites).items()}
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    chains = {(): MomentExpression._datum(n, m, 0)}
    for length in range(1, m + 1):
        for word in itertools.combinations_with_replacement(pairs, length):
            chains[word] = john(chains[word[:-1]], *word[-1])
    return {_pair_key(word)[0]: e for word, e in chains.items() if len(word) == m}


def _john_table(f: SymTensor, k: int, fixed: Sequence[int], pt: PhasePoint) -> dict:
    """The (m-k)-fold John data of the k-fold restriction, per pair multiset.

    Evaluates for f at pt the John chains of its shape at ``fixed``
    (``_john_chains``), under ``_pair_key(pairs)[0]``.  John operators
    commute and ``J_qp = -J_pq``, so any other ordered chain is a signed
    entry.  Each contraction and line integral the chains read is computed
    once per point, and so is the table (``contracted``, ``integrals``
    and ``_john_tables``).
    """
    m = f.rank
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < rank, got k={k}, rank={m}")
    if len(fixed) != k:
        raise ValueError(f"expected {k} fixed indices, got {len(fixed)}")
    fixed = tuple(sorted(restriction_indices(f, fixed)))
    hit = pt._john_tables.get((fixed, id(f)))
    if hit is None:
        chains = _john_chains(f.n, m, fixed, (john, dx, dxi))
        hit = pt._john_tables[fixed, id(f)] = (f, {key: e.evaluate(f, pt)
                                                  for key, e in chains.items()})
    return hit[1]


def john_power_residual(f: SymTensor, k: int, fixed: Sequence[int],
                        pt: PhasePoint) -> float:
    """Iterated John operator versus the alternated-derivative transform.

    Compares the John data of each pair multiset p < q with (-2)^(m-k)
    (m-k)! times the scalar transform of the matching alternated-derivative
    component of the k-fold restriction, read from f's jet; both are built
    once, per point and per field (``diffops._alternated``).
    """
    table = _john_table(f, k, fixed, pt)
    mk = f.rank - k
    alt = _alternated(f, tuple(sorted(fixed)))
    scale = (-2) ** mk * math.factorial(mk)
    return max((value_diff(lhs, pt.integral(alt.get(key), 0) * scale)
                for key, lhs in table.items()), default=0.0)


@functools.lru_cache(maxsize=64)
def _signed_pair_reads(n: int, r: int) -> tuple:
    """The John table entries that the collapsed derivatives read, per q-multiset.

    One ``(qt, den, reads)`` row per sorted r-tuple qt of axes, merging
    ``((key, sorted ptuple), sign)`` over the r-tuples ptuple with no
    ``p_a == q_a``: the chain of the pairs ``(p_a, q_a)`` is ``sign`` times
    the table entry at ``key`` (``_pair_key``), weighted by xi^ptuple.  A
    rearrangement of qt, with its ptuples rearranged alike, reads the same
    entries with the same signs and weights, so only sorted tuples are walked.
    """
    axes = range(1, n + 1)
    out = []
    for qt in itertools.combinations_with_replacement(axes, r):
        parts = []
        for ptuple in itertools.product(axes, repeat=r):
            if all(map(operator.ne, ptuple, qt)):
                key, sign = _pair_key(zip(ptuple, qt))
                parts.append(((key, tuple(sorted(ptuple))), sign))
        out.append((qt, *_row(parts)))
    return tuple(out)


def collapsed_derivative_residual(f: SymTensor, k: int, fixed: Sequence[int],
                                  pt: PhasePoint) -> float:
    """Direction contraction of iterated John data versus pure x-derivatives.

    For every derivative multi-index the contraction of the (m-k)-fold John
    data against the direction components must equal (-1)^(m-k) (m-k)! times
    the corresponding x-derivative of the restricted transform; holds with no
    kernel hypothesis on f.  Both sides depend only on the multiset of the
    derivative multi-index, so one sorted tuple stands for its
    rearrangements.  Each ordered John chain is a signed entry of the John
    table (``_signed_pair_reads``), and each x-derivative the datum at the
    address ``(0, fixed, qkey, ())``.
    """
    table = _john_table(f, k, fixed, pt)
    mk = f.rank - k
    scale = (-1) ** mk * math.factorial(mk)
    best = 0.0
    for qkey, den, reads in _signed_pair_reads(f.n, mk):
        acc = _xi_weighted_sum(pt, ((sign, ptuple, table[key])
                                    for (key, ptuple), sign in reads), den)
        rhs = _transform_value(f, 0, pt, fixed, qkey) * scale
        best = max(best, value_diff(acc, rhs))
    return best


def symmetrization_split_residual(t: RawTensor, k: int) -> Fraction:
    """Full symmetrization versus its two-term split for block-symmetric input.

    The input must be symmetric in its first rank-k and last k positions.
    Returns the largest absolute component difference, an exact Fraction.
    The split symmetrizes ``(k t + (m - k) rot) / m`` over slots 1..m-1,
    ``rot`` moving each key's first index last; so on a full orbit of |O|
    members summing to S, at a member ending in a letter held c times, the
    difference is (c S - k E - (m - k) B) / (c |O|), E and B the sums over
    the members that end and begin with it: ints over t's denominator.
    """
    m = t.rank
    if not 0 <= k <= m:
        raise ValueError(f"split k={k} outside [0, {m}]")
    front = tuple(range(1, m - k + 1))
    back = tuple(range(m - k + 1, m + 1))
    if len(front) >= 2 and symmetrize(t, front) != t:
        raise ValueError("input not symmetric in its leading block")
    if len(back) >= 2 and symmetrize(t, back) != t:
        raise ValueError("input not symmetric in its trailing block")
    best = Fraction(0)
    if k == 0:
        return best
    nums, den = _over_lcm(t.components.values())
    nums = dict(zip(t.components, nums))
    for orbit in _orbits(t.components, list(range(m))):
        values = [nums.get(key, 0) for key in orbit]
        total = sum(values)
        for a in set(orbit[0]):
            c = orbit[0].count(a)
            ends = sum(v for key, v in zip(orbit, values) if key[-1] == a)
            begins = sum(v for key, v in zip(orbit, values) if key[0] == a)
            if diff := abs(c * total - k * ends - (m - k) * begins):
                best = max(best, Fraction(diff, c * len(orbit) * den))
    return best


def symmetrized_derivative_residual(f: SymTensor, r: int, pt: PhasePoint) -> float:
    """Symmetrized spatial derivatives of restricted moment data.

    For each canonical index tuple, averages over its rearrangements the
    (rank-r)-fold x-derivative of the zeroth transform of the r-fold
    restriction; vanishes whenever the order-r operator annihilates f.
    A rearrangement reads only the multiset F of its last r slots: it
    restricts at F and differentiates along key - F.  So the average is one
    datum per distinct r-sub-multiset F of the key, weighted by the share of
    rearrangements that split the key there (``diffops._splits``).
    """
    m = f.rank
    if not 0 <= r <= m:
        raise ValueError(f"restriction depth r={r} outside [0, {m}]")
    best = 0.0
    for den, splits in _splits(f.n, m, r).values():
        total = _weighted_sum(((weight, _transform_value(f, 0, pt, fixed, derivs))
                               for (fixed, derivs), weight in splits), pt.zero, den)
        best = max(best, value_diff(total, pt.zero))
    return best


def restriction_contraction_residual(f: SymTensor, fixed: Sequence[int], k: int,
                                     pt: PhasePoint) -> float:
    """Transform of a deeper restriction versus the contracted shallower one.

    The zeroth transform of an r-fold restriction equals the sum over the
    remaining k-r fixed indices, weighted by direction components, of the
    k-fold restriction's transform (``_restriction_contraction``).
    """
    fixed = restriction_indices(f, fixed)
    r = len(fixed)
    if not r <= k <= f.rank:
        raise ValueError(f"need len(fixed) <= k <= rank, got {r}, {k}, {f.rank}")
    lhs = _transform_value(f, 0, pt, fixed)
    rhs = _restriction_contraction(f.n, f.rank, tuple(sorted(fixed)), k).evaluate(f, pt)
    return value_diff(lhs, rhs)


@functools.lru_cache(maxsize=64)
def _restriction_contraction(n: int, m: int, fixed: tuple, k: int) -> MomentExpression:
    """Sum over tails of k - len(fixed) axes of xi^tail times the transform at fixed + tail.

    One term per multiset of tails, its number of orderings the weight.
    """
    return MomentExpression(n, m, (((0, tuple(sorted(fixed + tail)), (), tail), mult)
                                   for tail, mult in _keys_with_multiplicity(n, k - len(fixed))))


@functools.lru_cache(maxsize=64)
def _directional(e: MomentExpression, rewrite) -> MomentExpression:
    """The expression sum_i xi_i rewrite(e, i), with ``rewrite`` ``dx`` or ``dxi``.

    Built once per expression, which hashes by value, and rewrite, which is
    in the key as in ``_recovery``, however many fields and points use it.
    """
    return MomentExpression(e.n, e.m, (
        ((q, fixed, derivs, tuple(sorted(mono + (i,)))), w)
        for i in range(1, e.n + 1)
        for (q, fixed, derivs, mono), w in rewrite(e, i)._over(e.den)), e.den)


def directional_x_derivative(e: MomentExpression, f: SymTensor, pt: PhasePoint):
    """Evaluate for f the direction-contracted x-gradient of transform data at pt."""
    return _directional(e, dx).evaluate(f, pt)


def directional_xi_derivative(e: MomentExpression, f: SymTensor, pt: PhasePoint):
    """Evaluate for f the direction-contracted xi-gradient of transform data at pt."""
    return _directional(e, dxi).evaluate(f, pt)
