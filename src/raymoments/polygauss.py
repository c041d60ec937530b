"""Exact arithmetic for scalar fields of the form p(x) * exp(-|x|^2).

The polynomial factor carries exact rational coefficients, stored as int
numerators over one normalized denominator, so the class is closed under
partial differentiation, coordinate multiplication and line integration,
and every operator identity downstream can be certified by int coefficient
arithmetic instead of floating point.

The numerators are dense: one tuple over the graded monomial index of the
dimension, which lists the exponent tuples block by block in total degree,
is grown on demand and is shared by every polynomial of that dimension (see
_Monomials).  A sum of int-weighted polynomials is a zip of aligned tuples,
and a partial derivative of a field is one gather through a map of the
index.  A polynomial of degree D in n variables stores up to C(D + n, n)
numerators however few of them are nonzero; the command line bounds that
size before any work starts (see verify._run_cost); library calls do not.

Line integrals reduce, after completing the square, to normal moments.  On
every line the integral of a polynomial is a dot product with the line's
table of monomial moments, kept in the same index (see LineTable).  Over a
rational line the table holds ints, each moment scaled by a power of one
common denominator of the line, so the dot product adds up ints and builds
no Fraction; the result is kept in the exact form
coef * sqrt(root) * sqrt(pi) * exp(exponent), with rational root and
exponent and the coefficient as an int numerator over an int denominator,
reduced by one gcd (see ExactValue).  A finite float is a dyadic rational,
so a float line is a rational line too: it takes the same int table, and
its line integral is the exact value correctly rounded to a float
(see ExactValue.__float__).
"""

from __future__ import annotations

import bisect
import functools
import math
import random
from decimal import (MAX_EMAX, MIN_EMIN, ROUND_HALF_EVEN, Context, Decimal, DivisionByZero,
                     InvalidOperation, localcontext)
from fractions import Fraction
from itertools import chain, repeat
from operator import add, floordiv, itemgetter, mul, sub, truediv
from typing import Iterable, Sequence

import numpy as np

from .symtensor import SymTensor, _over_lcm, all_canonical_tuples, canonical

# for ExactValue.__float__: sqrt(pi) to 80 digits, and 40-digit decimals with
# no exponent limit that leave Overflow untrapped, whatever the caller's context
_SQRT_PI = Decimal(
    "1.7724538509055160272981674833411451827975494561223871282138077898529112845910322")
_DECIMAL = Context(prec=40, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN,
                   traps=[InvalidOperation, DivisionByZero])


def is_rational(value) -> bool:
    return isinstance(value, (int, Fraction)) and not isinstance(value, bool)


def all_rational(values: Iterable) -> bool:
    return all(is_rational(v) for v in values)


def _as_fraction(value) -> Fraction:
    if not is_rational(value):
        raise TypeError(f"expected an exact rational, got {type(value).__name__}")
    return value if type(value) is Fraction else Fraction(value)


class _Monomials:
    """The graded index of the exponent tuples of one dimension n.

    ``exps`` lists every exponent tuple of total degree at most the grown
    degree, block by block: block d, the tuples of degree d, fills
    ``exps[starts[d]:starts[d + 1]]``, and ``pos`` maps a tuple to its place.
    Block d is built from block d - 1: for each coordinate i in turn, the
    tuples of block d - 1 that have no nonzero coordinate before i, raised
    in coordinate i.  Those tuples form the end of block d - 1, the
    C(d - 1 + n - i - 1, n - i - 1) tuples of degree d - 1 in the last
    n - i coordinates, because block d - 1 lists its tuples grouped by
    their first nonzero coordinate in the same way.  ``lowers`` keeps, for
    every place but 0, that coordinate i and the place of the tuple it was
    raised from; the LineTable recurrence reads it.  One index serves each
    dimension (``_monomials``); it only grows, so a numerator tuple stays
    valid.
    """

    __slots__ = ("n", "exps", "pos", "starts", "lowers", "_derive")

    def __init__(self, n: int):
        self.n = n
        self.exps = [(0,) * n]
        self.pos = {(0,) * n: 0}
        self.starts = [0, 1]
        self.lowers = [None]
        self._derive = {}

    def grow(self, degree: int) -> None:
        """Extend the index through block ``degree``."""
        exps, pos, starts, lowers, n = self.exps, self.pos, self.starts, self.lowers, self.n
        while len(starts) <= degree + 1:
            d = len(starts) - 1
            hi = starts[d]
            for i in range(n):
                for p in range(hi - math.comb(d + n - i - 2, n - i - 1), hi):
                    e = exps[p]
                    raised = e[:i] + (e[i] + 1,) + e[i + 1:]
                    pos[raised] = len(exps)
                    exps.append(raised)
                    lowers.append((i, p))
            starts.append(len(exps))

    def derive_map(self, i: int, degree: int) -> tuple:
        """The gather that takes p to dp/dx_i - 2 x_i p, for p of top degree ``degree``.

        For each place j of the result through block ``degree + 1``, with
        tuple e: the weight e_i + 1 and the place of e + delta_i (weight 0
        and place -1 above block ``degree - 1``), and the place of
        e - delta_i (-1 where e_i = 0).  Place -1 is a zero that the caller
        pads the numerators with, to the returned length.  The places at the
        end of block ``degree + 1`` with e_i = 0, always zero, are left out.
        Returned as (weights, two itemgetters, padded length), built once
        per (i, degree).
        """
        key = (i, degree)
        hit = self._derive.get(key)
        if hit is None:
            self.grow(degree + 1)
            pos, starts = self.pos, self.starts
            weights, ups, downs = [], [], []
            for j, e in enumerate(self.exps[:starts[degree + 2]]):
                head, ei, tail = e[:i], e[i], e[i + 1:]
                if j < starts[degree]:
                    weights.append(ei + 1)
                    ups.append(pos[head + (ei + 1,) + tail])
                else:
                    weights.append(0)
                    ups.append(-1)
                downs.append(pos[head + (ei - 1,) + tail] if ei else -1)
            while downs[-1] < 0:
                del weights[-1], ups[-1], downs[-1]
            hit = self._derive[key] = (tuple(weights), itemgetter(*ups),
                                       itemgetter(*downs), starts[degree + 1] + 1)
        return hit


@functools.cache
def _monomials(n: int) -> _Monomials:
    return _Monomials(n)


class Polynomial:
    """A multivariate polynomial with rational coefficients, stored densely.

    The coefficients are ints over one denominator: ``vec`` holds the int
    numerator of each exponent tuple of the dimension's graded index (see
    _Monomials), in index order, up to the last nonzero one (zero is the
    empty tuple), and ``den`` is a positive int with ``gcd(den, *vec) == 1``.
    So each polynomial has one stored form, ``==`` compares it directly, and
    ``key`` hands it out as a hashable.  Every operation works on ints and
    normalizes its result once (see ``_from_ints``).  ``terms``, the nonzero
    coefficients as ``{exps: Fraction}`` in index order, and ``nums``, the
    same view of the numerators, are fresh dicts built on each read; a
    polynomial is never changed after it is built.
    """

    __slots__ = ("n", "den", "vec")

    def __init__(self, n: int, terms: dict | None = None):
        if n < 1:
            raise ValueError("dimension must be positive")
        self.n = n
        data = {}
        for exps, coef in (terms or {}).items():
            exps = tuple(exps)
            if len(exps) != n or any(not isinstance(e, int) or isinstance(e, bool)
                                     or e < 0 for e in exps):
                raise ValueError(f"bad exponent multi-index {exps}")
            coef = _as_fraction(coef)
            if coef:
                data[exps] = coef
        # the lcm of the reduced denominators leaves no common factor
        self.den = den = math.lcm(*(c.denominator for c in data.values()))
        index = _monomials(n)
        index.grow(max(map(sum, data), default=0))
        places = [index.pos[exps] for exps in data]
        vec = [0] * (max(places) + 1 if places else 0)
        for j, c in zip(places, data.values()):
            vec[j] = c.numerator * (den // c.denominator)
        self.vec = tuple(vec)

    @classmethod
    def _from_ints(cls, n: int, den: int, nums: list) -> "Polynomial":
        """Build from int numerators in index order over ``den`` >= 1.

        Skips the validation of ``__init__``; only internal code, whose
        numerators are ints, may call it.  Trailing zeros are
        dropped and the common factor of ``den`` and the numerators is
        divided out, so the zero polynomial gets ``den`` 1.
        """
        end = len(nums) if any(nums) else 0
        while end and not nums[end - 1]:
            end -= 1
        vec = tuple(nums[:end])
        g = math.gcd(den, *vec) if vec else den
        if g > 1:
            den //= g
            vec = tuple(map(floordiv, vec, repeat(g)))
        out = object.__new__(cls)
        out.n, out.den, out.vec = n, den, vec
        return out

    @classmethod
    def _from_weighted(cls, n: int, weighted, row_den: int = 1) -> "Polynomial":
        """The sum of weight * poly over (int weight, poly) pairs, over ``row_den``.

        The numerator tuples, each brought to the lcm of the polynomials'
        denominators, are added up aligned in one list, which starts as the
        first of them; the sum over that lcm times ``row_den`` is normalized
        once.  A tuple whose factor is 1 is added and one whose factor is -1
        subtracted as it is; only other factors take a multiply pass.  No
        Fraction is built.  A single pair is scaled in one pass, with no lcm
        or accumulator: its numerators share no factor with its denominator,
        so only the weight and ``row_den`` reduce, each by one gcd.
        """
        weighted = list(weighted)
        if len(weighted) == 1:
            (weight, poly), = weighted
            if not (weight and poly):
                return cls._from_ints(n, 1, ())
            den = poly.den * row_den
            g = math.gcd(den, weight)
            h = math.gcd(den // g, *poly.vec)
            vec = map(floordiv, poly.vec, repeat(h)) if h > 1 else poly.vec
            out = object.__new__(cls)
            out.n, out.den = n, den // (g * h)
            out.vec = tuple(map(mul, vec, repeat(weight // g)))
            return out
        den = math.lcm(*(poly.den for _, poly in weighted))
        acc = []
        for weight, poly in weighted:
            vec = poly.vec
            factor = weight * (den // poly.den)
            if not acc:
                acc = list(vec if factor == 1 else map(mul, vec, repeat(factor)))
                continue
            if len(vec) > len(acc):
                acc.extend(repeat(0, len(vec) - len(acc)))
            if factor == 1:
                acc[:len(vec)] = map(add, acc, vec)
            elif factor == -1:
                acc[:len(vec)] = map(sub, acc, vec)
            else:
                acc[:len(vec)] = map(add, acc, map(mul, vec, repeat(factor)))
        return cls._from_ints(n, den * row_den, acc)

    @property
    def terms(self) -> dict:
        """The nonzero coefficients as ``{exps: Fraction}``, in index order."""
        den = self.den
        return {exps: Fraction(num, den) for exps, num in self.nums.items()}

    @property
    def nums(self) -> dict:
        """The nonzero numerators as ``{exps: int}``, in index order."""
        return {exps: num for exps, num in zip(_monomials(self.n).exps, self.vec) if num}

    @property
    def key(self) -> tuple:
        """The stored form as a hashable: equal for equal polynomials of a dimension."""
        return self.den, self.vec

    @classmethod
    def zero(cls, n: int) -> "Polynomial":
        return cls(n)

    def _compat(self, other: "Polynomial") -> None:
        if not isinstance(other, Polynomial):
            raise TypeError("expected a Polynomial")
        if self.n != other.n:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        self._compat(other)
        return Polynomial._from_weighted(self.n, ((1, self), (1, other)))

    def __neg__(self) -> "Polynomial":
        return Polynomial._from_ints(self.n, self.den, [-num for num in self.vec])

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        self._compat(other)
        return Polynomial._from_weighted(self.n, ((1, self), (-1, other)))

    def __mul__(self, other):
        if is_rational(other):
            c = Fraction(other)
            return Polynomial._from_ints(
                self.n, self.den * c.denominator,
                list(map(mul, self.vec, repeat(c.numerator))))
        self._compat(other)
        top = self.total_degree() + other.total_degree()
        index = _monomials(self.n)
        index.grow(top)
        pos = index.pos
        data = [0] * index.starts[top + 1]
        for e1, n1 in self.nums.items():
            for e2, n2 in other.nums.items():
                data[pos[tuple(map(add, e1, e2))]] += n1 * n2
        return Polynomial._from_ints(self.n, self.den * other.den, data)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (isinstance(other, Polynomial) and self.n == other.n
                and self.den == other.den and self.vec == other.vec)

    def __bool__(self) -> bool:
        return bool(self.vec)

    def __repr__(self) -> str:
        if not self.vec:
            return "Polynomial(0)"
        bits = []
        for exps, coef in sorted(self.terms.items()):
            mono = "*".join(f"x{i+1}^{e}" for i, e in enumerate(exps) if e)
            bits.append(f"{coef}" + (f"*{mono}" if mono else ""))
        return "Polynomial(" + " + ".join(bits) + ")"

    def partial(self, i: int) -> "Polynomial":
        """Partial derivative with respect to the i-th coordinate (1-based)."""
        if not 1 <= i <= self.n:
            raise ValueError(f"coordinate index {i} outside [1, {self.n}]")
        pos = _monomials(self.n).pos
        data = [0] * len(self.vec)
        for exps, num in self.nums.items():
            e = exps[i - 1]
            if e:
                data[pos[exps[:i - 1] + (e - 1,) + exps[i:]]] = num * e
        return Polynomial._from_ints(self.n, self.den, data)

    def total_degree(self) -> int:
        vec = self.vec
        return bisect.bisect_right(_monomials(self.n).starts, len(vec) - 1) - 1 if vec else 0

    def max_abs_coefficient(self) -> Fraction:
        return Fraction(max(map(abs, self.vec), default=0), self.den)

    def evaluate(self, xs: Sequence[float]) -> float:
        if len(xs) != self.n:
            raise ValueError("point has wrong dimension")
        den = self.den
        total = 0.0
        for exps, num in self.nums.items():
            term = num / den  # correctly rounded, as float(Fraction(num, den))
            for x, e in zip(xs, exps):
                if e:
                    term *= float(x) ** e
            total += term
        return total

    def evaluate_exact(self, xs: Sequence) -> Fraction:
        if len(xs) != self.n:
            raise ValueError("point has wrong dimension")
        total = Fraction(0)
        for exps, coef in self.terms.items():
            term = coef
            for x, e in zip(xs, exps):
                if e:
                    term *= _as_fraction(x) ** e
            total += term
        return total


class PolyGauss:
    """The scalar field p(x) * exp(-|x|^2) with rational-coefficient p.

    Closed under partial derivatives, sums, rational scaling and coordinate
    multiplication.  The product of two such fields carries exp(-2|x|^2) and
    leaves the class, so it is rejected.
    """

    __slots__ = ("poly",)

    def __init__(self, poly: Polynomial):
        if not isinstance(poly, Polynomial):
            raise TypeError("expected a Polynomial")
        self.poly = poly

    @property
    def n(self) -> int:
        return self.poly.n

    @classmethod
    def zero(cls, n: int) -> "PolyGauss":
        return cls(Polynomial.zero(n))

    def _compat(self, other: "PolyGauss") -> None:
        if not isinstance(other, PolyGauss):
            raise TypeError("expected a PolyGauss")
        if self.n != other.n:
            raise ValueError("dimension mismatch")

    def __add__(self, other: "PolyGauss") -> "PolyGauss":
        self._compat(other)
        return PolyGauss(self.poly + other.poly)

    def __neg__(self) -> "PolyGauss":
        return PolyGauss(-self.poly)

    def __sub__(self, other: "PolyGauss") -> "PolyGauss":
        self._compat(other)
        return PolyGauss(self.poly - other.poly)

    def __mul__(self, other):
        if is_rational(other):
            return PolyGauss(self.poly * other)
        if isinstance(other, PolyGauss):
            raise TypeError("product of two Gaussian-weighted fields leaves the class")
        return NotImplemented

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyGauss) and self.poly == other.poly

    def __bool__(self) -> bool:
        return bool(self.poly)

    def __repr__(self) -> str:
        return f"PolyGauss({self.poly!r} * exp(-|x|^2))"

    def is_zero(self) -> bool:
        return not self.poly

    def derive(self, i: int) -> "PolyGauss":
        """Exact partial derivative: (dp/dx_i - 2 x_i p) * exp(-|x|^2).

        One gather through the index's map for coordinate i (see
        ``_Monomials.derive_map``): at each place e of the result,
        (e_i + 1) times the numerator at e + delta_i minus twice the one at
        e - delta_i, over the same denominator.
        """
        if not 1 <= i <= self.n:
            raise ValueError(f"coordinate index {i} outside [1, {self.n}]")
        poly = self.poly
        vec = poly.vec
        if not vec:
            return self
        weights, ups, downs, size = _monomials(poly.n).derive_map(i - 1, poly.total_degree())
        padded = vec + (0,) * (size - len(vec))
        out = [w * up - 2 * down for w, up, down in zip(weights, ups(padded), downs(padded))]
        return PolyGauss(Polynomial._from_ints(poly.n, poly.den, out))


def rational_sqrt(q: Fraction) -> Fraction | None:
    """Exact square root of a positive rational, or None if irrational."""
    root = _ratio_sqrt(q.numerator, q.denominator) if q > 0 else None
    return None if root is None else Fraction(*root)


def _ratio_sqrt(num: int, den: int) -> tuple[int, int] | None:
    """The square root of num / den > 0 as ints in lowest terms, or None if irrational."""
    g = math.gcd(num, den)
    rn, rd = math.isqrt(num // g), math.isqrt(den // g)
    return (rn, rd) if rn * rn * g == num and rd * rd * g == den else None


class ExactValue:
    """An exact real of the form coef * sqrt(root) * sqrt(pi) * exp(exponent).

    All three factors are rational.  ``coef`` is held as two ints, ``num``
    over ``den``, with ``den`` positive and no common factor, and read as a
    Fraction through the ``coef`` property; ``root`` and ``exponent`` are
    Fractions.  A ``root`` that is a perfect square is absorbed into the
    coefficient at construction, and zero is kept in the one canonical form
    (0, 1, 0), a single shared object (``zero_value``).  A root with any
    other square factor keeps it, so one real may have several stored
    forms: ``==`` and ``hash`` compare the stored form, and
    ``moments.value_diff`` compares values (ExactValue(1, 8) and
    ExactValue(2, 2), both sqrt(8) * sqrt(pi), are unequal, and their
    value_diff is 0.0).  Values on the same line share root and exponent,
    so sums and differences of transform data stay exact; ``+``, ``-`` and
    every weighted sum go through ``sum``, the one exact n-ary sum.
    Arithmetic on values whose root is already in that form builds its
    results with ``_from_ints``, which reduces the int pair by one gcd and
    does not take the square root again.  A value is never changed after it
    is built: assignment raises AttributeError.
    """

    __slots__ = ("num", "den", "root", "exponent")

    def __init__(self, coef, root=1, exponent=0):
        coef = _as_fraction(coef)
        root = _as_fraction(root)
        exponent = _as_fraction(exponent)
        if root <= 0:
            raise ValueError("root must be positive")
        r = rational_sqrt(root)
        if r is not None:
            coef, root = coef * r, Fraction(1)
        if not coef:
            root, exponent = Fraction(1), Fraction(0)
        _set(self, "num", coef.numerator)
        _set(self, "den", coef.denominator)
        _set(self, "root", root)
        _set(self, "exponent", exponent)

    @classmethod
    def _from_ints(cls, num: int, den: int, root: Fraction,
                   exponent: Fraction) -> "ExactValue":
        """Build from an int coefficient ``num / den`` (den > 0) and a canonical root.

        Skips the checks of the constructor; only callers whose root comes
        from a canonical ExactValue or a LineTable may call it.  The pair is
        reduced by its gcd, and zero is the shared canonical zero.
        """
        if not num:
            return _ZERO
        g = math.gcd(num, den)
        out = object.__new__(cls)
        _set(out, "num", num // g)
        _set(out, "den", den // g)
        _set(out, "root", root)
        _set(out, "exponent", exponent)
        return out

    def __setattr__(self, name, value):
        raise AttributeError(f"ExactValue is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ExactValue is immutable; cannot delete {name!r}")

    @property
    def coef(self) -> Fraction:
        return Fraction(self.num, self.den)

    @property
    def is_zero(self) -> bool:
        return not self.num

    def __eq__(self, other) -> bool:
        if not isinstance(other, ExactValue):
            return NotImplemented
        return (self.num == other.num and self.den == other.den
                and self.root == other.root and self.exponent == other.exponent)

    def __hash__(self) -> int:
        return hash((self.coef, self.root, self.exponent))

    def __repr__(self) -> str:
        return (f"ExactValue(coef={self.coef!r}, root={self.root!r}, "
                f"exponent={self.exponent!r})")

    def scaled(self, c) -> "ExactValue":
        c = c if type(c) is int else _as_fraction(c)  # an int is its own numerator over 1
        return ExactValue._from_ints(self.num * c.numerator, self.den * c.denominator,
                                     self.root, self.exponent)

    def __add__(self, other: "ExactValue") -> "ExactValue":
        if not isinstance(other, ExactValue):
            return NotImplemented
        if not self.num:
            return other
        if not other.num:
            return self
        return ExactValue.sum(((1, self), (1, other)))

    def __neg__(self) -> "ExactValue":
        return ExactValue._from_ints(-self.num, self.den, self.root, self.exponent)

    def __sub__(self, other: "ExactValue") -> "ExactValue":
        if not isinstance(other, ExactValue):
            return NotImplemented
        return ExactValue.sum(((1, self), (-1, other)))

    @staticmethod
    def sum(pairs, den: int = 1) -> "ExactValue":
        """Sum of rational weight * value over (weight, value) pairs, over the int ``den``.

        The one exact sum of ExactValues; ``+`` and ``-`` call it too.  Terms
        with a zero weight or value drop out.  Every other term must share
        the exponent of the first; its root is brought to the first term's
        root by the rational ratio sqrt(root / first root), and
        ArithmeticError is raised where either fails.  Values of one line
        share their root and exponent objects, so those are compared by
        identity first.  The terms are then int numerators over int
        denominators (an int weight is its own numerator over 1), added over
        their lcm; that sum over the lcm times ``den`` is reduced by one gcd,
        and no Fraction is built.
        """
        nums, dens = [], []
        root = exponent = None
        for w, v in pairs:
            num = v.num
            if not (w and num):
                continue
            num *= w.numerator
            vden = v.den * w.denominator
            if root is None:
                root, exponent = v.root, v.exponent
            else:
                if v.exponent is not exponent and v.exponent != exponent:
                    raise ArithmeticError("cannot add exact values with different exponents")
                if v.root is not root and v.root != root:
                    ratio = rational_sqrt(v.root / root)
                    if ratio is None:
                        raise ArithmeticError("cannot add exact values with incompatible roots")
                    num, vden = num * ratio.numerator, vden * ratio.denominator
            nums.append(num)
            dens.append(vden)
        if not nums:
            return _ZERO
        common = math.lcm(*dens)
        total = sum(num * (common // vden) for num, vden in zip(nums, dens))
        return ExactValue._from_ints(total, common * den, root, exponent)

    def __mul__(self, c):
        if is_rational(c):
            return self.scaled(c)
        return NotImplemented

    __rmul__ = __mul__

    def __float__(self) -> float:
        """The value as the nearest float; OverflowError if it is above the float range.

        One evaluation of num / den * sqrt(root) * sqrt(pi) * exp(exponent)
        in 40-digit decimals with no exponent limit, rounded once by
        ``float(Decimal)``, each ratio read by ``_decimal_ratio``.  Each of
        its at most fourteen decimal operations is correctly rounded and each
        of its six int cuts is off by under 2^-199, so the decimal is within
        (10 + 3|exponent|) * 5e-40 + (3 + 2|exponent|) * 2^-199 of the value,
        relative, and the float is the nearest one to the value unless the
        value lies that close to a midpoint between two floats.  The
        decimals are ``_DECIMAL``'s, not the caller's.  A value
        below the float range is a zero of its sign; Overflow is not trapped,
        so a value above the range reads as infinite, and that raises
        OverflowError.
        """
        num, den, root, exponent = self.num, self.den, self.root, self.exponent
        if not num:
            return 0.0
        with localcontext(_DECIMAL):
            value = (_decimal_ratio(num, den) * _decimal_ratio(*root.as_integer_ratio()).sqrt()
                     * _SQRT_PI * _decimal_ratio(*exponent.as_integer_ratio()).exp())
        result = float(value)
        if math.isinf(result):
            raise OverflowError("exact value is above the float range")
        return result

    @classmethod
    def zero_value(cls) -> "ExactValue":
        """The canonical zero (0, 1, 0), one object shared by every caller."""
        return _ZERO


def _decimal_ratio(num: int, den: int) -> Decimal:
    """num / den (den > 0) in the current decimal context, each int cut to its top 200 bits.

    The cut bits are carried as one power of 2: an int becomes a Decimal in
    time quadratic in its digits, so no longer int reaches Decimal.
    """
    a, b = max(num.bit_length() - 200, 0), max(den.bit_length() - 200, 0)
    value = Decimal(num >> a) / Decimal(den >> b)
    return value * Decimal(2) ** (a - b) if a != b else value


_set = object.__setattr__
_ZERO = ExactValue(0)
_ONE = Fraction(1)


def _line_data(x: Sequence, xi: Sequence):
    s = sum(v * v for v in xi)
    if not s:
        raise ValueError("direction must be nonzero")
    c = sum(a * b for a, b in zip(x, xi))
    norm2 = sum(a * a for a in x)
    exponent = -(norm2 - c * c / s)
    return s, c, exponent


def _check_order(q) -> None:
    """Reject an order that is not a non-negative int, below which the recurrence never ends."""
    if not isinstance(q, int) or isinstance(q, bool) or q < 0:
        raise ValueError("moment order must be a non-negative int")


class LineTable:
    """Moments of the monomials along one line x + t*xi, rational or float.

    A line whose coordinates are all rational is exact; any other reads
    them as floats, which must be finite.  Either way the line is read
    exactly: a finite float is an int over a power of 2
    (``float.as_integer_ratio``), so every table is the int table of a
    rational line, and ``is_exact`` only decides whether line_moment returns
    an ExactValue or that value correctly rounded to a float.  The table
    keeps the coordinates only as those ints; ``x`` and ``xi`` are views
    built on read, Fractions on an exact line, floats on a float line (where
    -0.0 reads 0.0).  With s = |xi|^2 and
    c = x.xi, completing the square gives
    |x + t*xi|^2 = s*(t + c/s)^2 - exponent.  The moment for (q, e) is

        mu_q(e) = integral t^q (x + t*xi)^e exp(-|x + t*xi|^2) dt
                  / (sqrt(pi/s) * exp(exponent)),

    that is E[T^q (x + T*xi)^e] for a normal T with mean -c/s and variance
    1/(2s).  The Gaussian moments mu_q(0) follow
    M_{q+1} = mean*M_q + var*q*M_{q-1}, and one more factor of coordinate i
    gives mu_q(e + delta_i) = x_i mu_q(e) + xi_i mu_{q+1}(e).

    The line is set up in ints, by ``_from_ints`` (which sampled points
    call) or from x and xi read as int ratios, both through ``_setup``
    (which ``moments.PhasePoint`` extends): x as ``x_nums`` over
    ``x_den`` and xi as ``xi_nums`` over ``xi_den``, and s, c, mean and var
    as int pairs (``s_ratio`` and so on) whose Fractions ``s``, ``c``,
    ``mean`` and ``var`` are built when read; ``exponent``, ``root`` and
    ``root_factor`` are the Fractions every line builds.
    ``scale`` is the lcm L of the denominators of x, xi, mean and var, and
    the entry kept for (q, e) is the int
    A_q(e) = L^(q + 2|e|) * mu_q(e).  The same recurrence builds it with the
    int weights L^2 x_i and L xi_i, L mean and L^2 var (q - 1).  The power
    counts |e| twice because the xi step (q + 1, e) -> (q, e + delta_i)
    trades one order for one coordinate: under L^(q + |e|) it would keep the
    power and leave xi_i unscaled.

    The entries are kept by rows in the dimension's graded index (see
    _Monomials): ``rows[q][j]`` is A_q(e) for the tuple e at place j, so
    that the line integral of a polynomial is a dot product of its
    numerators with one row (see line_moment).  Entry 0 of each row, e = 0,
    follows the Gaussian recurrence.  Every other entry lowers e at its
    first nonzero coordinate i (``_Monomials.lowers``), as
    A_q(e) = (L^2 x_i) A_q(e - delta_i) + (L xi_i) A_{q+1}(e - delta_i),
    so block d of row q is built at once from block d - 1 of rows q and
    q + 1.
    Integrating a polynomial of degree D at order q builds row q + j
    through block D - j, so a table reaches at most
    C(D + q + n + 1, n + 1) entries.  Rows are extended in place and kept as
    long as the table.
    ``root`` and ``root_factor`` split sqrt(1/s) into the root of the
    line's ExactValues and a rational factor, once per line.

    A float coordinate is an int over a power of 2, so a float line's L,
    entries and cost grow with the spread of its coordinates' binary
    exponents and with their mantissa bits.
    """

    __slots__ = ("is_exact", "x_nums", "x_den", "xi_nums", "xi_den",
                 "s_ratio", "c_ratio", "mean_ratio", "var_ratio", "exponent", "scale",
                 "root", "root_factor", "rows", "_weights")

    def __init__(self, x: Sequence, xi: Sequence):
        if len(x) != len(xi) or not x:
            raise ValueError("x and xi must share a positive dimension")
        self.is_exact = all_rational(x) and all_rational(xi)
        if not self.is_exact:
            if not all(map(math.isfinite, chain(x, xi))):
                raise ValueError("line coordinates must be finite")
            x, xi = map(float, x), map(float, xi)
        self._setup(*_over_lcm(x), *_over_lcm(xi))

    @classmethod
    def _from_ints(cls, x_nums, x_den: int, xi_nums, xi_den: int) -> "LineTable":
        """The exact line x = x_nums / x_den, xi = xi_nums / xi_den, for positive dens."""
        table = object.__new__(cls)
        table.is_exact = True
        g, h = math.gcd(x_den, *x_nums), math.gcd(xi_den, *xi_nums)  # to lowest terms
        table._setup(tuple(v // g for v in x_nums), x_den // g,
                     tuple(v // h for v in xi_nums), xi_den // h)
        return table

    def _view(self, nums: tuple, den: int) -> tuple:
        return tuple(map(Fraction if self.is_exact else truediv, nums, repeat(den)))

    x = property(lambda self: self._view(self.x_nums, self.x_den))
    xi = property(lambda self: self._view(self.xi_nums, self.xi_den))
    s = property(lambda self: Fraction(*self.s_ratio))
    c = property(lambda self: Fraction(*self.c_ratio))
    mean = property(lambda self: Fraction(*self.mean_ratio))
    var = property(lambda self: Fraction(*self.var_ratio))

    def _setup(self, x: tuple, dx: int, xi: tuple, dxi: int) -> None:
        """The scalars of the line x = X/dx, xi = XI/dxi, each over the lcm of its denominators.

        With S = |XI|^2, C = X.XI and N = |X|^2: s = S/dxi^2, c = C/(dx dxi),
        mean = -c/s, var = 1/(2s), 1/s = dxi^2/S, exponent = (C^2 - N S)/(dx^2 S).
        """
        self.x_nums, self.x_den, self.xi_nums, self.xi_den = x, dx, xi, dxi
        s = sum(v * v for v in xi)
        if not s:
            raise ValueError("direction must be nonzero")
        c = sum(map(mul, x, xi))
        self.s_ratio, self.c_ratio = (s, dxi * dxi), (c, dx * dxi)
        self.mean_ratio, self.var_ratio = (-c * dxi, dx * s), (dxi * dxi, 2 * s)
        self.exponent = Fraction(c * c - sum(v * v for v in x) * s, dx * dx * s)
        # the lcm of the denominators of x, xi, mean and var in lowest terms
        scale = self.scale = math.lcm(dx, dxi, dx * s // math.gcd(c * dxi, dx * s),
                                      2 * s // math.gcd(dxi * dxi, 2 * s))
        self._weights = (tuple(v * (scale * scale // dx) for v in x),
                         tuple(v * (scale // dxi) for v in xi),
                         -c * dxi * scale // (dx * s),
                         dxi * dxi * scale * scale // (2 * s))
        r = _ratio_sqrt(dxi * dxi, s)
        self.root, self.root_factor = ((_ONE, Fraction(*r)) if r is not None
                                       else (Fraction(dxi * dxi, s), _ONE))
        self.rows = [[1]]

    def _row(self, q: int, degree: int) -> list:
        """Row q, built through block ``degree``.

        Rows q + degree down to q are extended in turn, row q + j through
        block degree - j, each from the one above it, without recursion.
        """
        rows = self.rows
        wx, wxi, wmean, wvar = self._weights
        index = _monomials(len(wx))
        index.grow(degree)
        starts = index.starts
        if q + degree < len(rows) and len(rows[q]) >= starts[degree + 1]:
            return rows[q]
        while len(rows) <= q + degree:  # entry 0 of each new row; at r = 1 var's term is 0
            r = len(rows)
            rows.append([wmean * rows[r - 1][0] + wvar * (r - 1) * rows[r - 2][0]])
        lowers = index.lowers
        for r in range(q + degree - 1, q - 1, -1):
            row, upper = rows[r], rows[r + 1]
            for d in range(bisect.bisect_left(starts, len(row)), q + degree - r + 1):
                row.extend([wx[i] * row[p] + wxi[i] * upper[p]
                            for i, p in lowers[starts[d]:starts[d + 1]]])
        return rows[q]


def line_moment(g: PolyGauss, q: int, table: LineTable):
    """Integral of t^q g(x + t*xi) over the line x + t*xi of ``table``.

    The dot product of g's numerators with row q of the line's moment table,
    times sqrt(pi/s) * exp(exponent): an ExactValue, or on a float line that
    value correctly rounded to a float.  With the line's scale L, g's numerators
    over ``den``, of top degree D, are summed one degree block d at a time,
    S_d = the sum of num * A_q(e) over the tuples e of degree d, one
    ``sum(map(mul, ...))`` over two aligned slices; Horner's rule in L^2
    combines the blocks into the sum of S_d * L^(2(D - d)), which is mu's
    dot product times den * L^(q + 2D); that int over den * L^(q + 2D),
    times the line's root factor, is the value's coefficient, reduced by
    one gcd, with no Fraction built.  The table is the only name of the
    line, and keeps its rows between calls.  Every call computes its
    integral anew: a caller that asks for the same one again keeps the
    value (see PhasePoint, the table of its line).  A float line's cost
    grows with the spread of its coordinates' binary exponents and with
    their mantissa bits (see LineTable).
    """
    _check_order(q)
    if len(table.x_nums) != g.n:
        raise ValueError("line has wrong dimension")
    poly = g.poly
    den, vec, top = poly.den, poly.vec, poly.total_degree()
    row = table._row(q, top) if vec else ()
    scale = table.scale
    square = scale * scale
    starts = _monomials(g.n).starts
    total = 0
    for d in range(top + 1):
        lo, hi = starts[d], starts[d + 1]
        total = total * square + sum(map(mul, vec[lo:hi], row[lo:hi]))
    factor = table.root_factor
    value = ExactValue._from_ints(total * factor.numerator,
                                  den * scale ** q * square ** top * factor.denominator,
                                  table.root, table.exponent)
    return value if table.is_exact else float(value)


def _gauss_hermite(g: PolyGauss, q: int, x: Sequence, xi: Sequence,
                   absolute: bool) -> float:
    """Gauss-Hermite sum of the weighted integrand (or of its magnitude).

    After the square is completed the integrand is a polynomial in the
    quadrature variable, so the node count makes the rule exact up to
    rounding.  The polynomial factor is evaluated pointwise on the line, not
    through the moment table used by the closed form.
    """
    _check_order(q)
    x = [float(v) for v in x]
    xi = [float(v) for v in xi]
    s, c, exponent = _line_data(x, xi)
    rs = math.sqrt(s)
    deg = g.poly.total_degree() + q
    nodes = deg // 2 + 2
    us, ws = np.polynomial.hermite.hermgauss(nodes)
    total = 0.0
    for u, w in zip(us, ws):
        t = u / rs - c / s
        pt = [a + t * b for a, b in zip(x, xi)]
        term = w * (t ** q if q else 1.0) * g.poly.evaluate(pt)
        total += abs(term) if absolute else term
    return total * math.exp(exponent) / rs


def line_moment_quadrature(g: PolyGauss, q: int, x: Sequence, xi: Sequence) -> float:
    """Independent Gauss-Hermite evaluation of the line integral of t^q g."""
    return _gauss_hermite(g, q, x, xi, absolute=False)


def quadrature_mass(g: PolyGauss, q: int, x: Sequence, xi: Sequence) -> float:
    """Sum of |weight * integrand| over the quadrature nodes.

    The natural magnitude scale for relative comparisons between the closed
    form and the quadrature, robust to cancellation in the integral itself.
    """
    return _gauss_hermite(g, q, x, xi, absolute=True)


def sym_field(n: int, rank: int, components: dict | None = None) -> SymTensor:
    """A symmetric tensor field with PolyGauss components."""
    comps = {}
    for key, value in (components or {}).items():
        if not isinstance(value, PolyGauss):
            raise TypeError("field components must be PolyGauss values")
        if value.n != n:
            raise ValueError("component dimension mismatch")
        comps[key] = value
    return SymTensor(n, rank, comps, zero=PolyGauss.zero(n))


def _jet(f: SymTensor, comp, derivs) -> PolyGauss:
    """The partial derivative ``derivs`` of one component of a field.

    Every derivative that the diffops operators read comes from here.
    Transform data read it only at a fully restricted address, where there
    is nothing to contract; elsewhere a point differentiates its own
    direction contraction of the field (see ``moments._contraction``).  It
    is memoized in ``f.jet`` under the canonical component and the sorted
    derivative multiset (mixed partials commute), and built from its
    memoized prefix, so each new entry costs one derive.
    """
    hit = f.jet.get((comp, derivs))  # a canonical address hits before any sort
    if hit is None:
        key = comp, derivs = canonical(comp), tuple(sorted(derivs))
        hit = f.jet.get(key)
        if hit is None:
            hit = _jet(f, comp, derivs[:-1]).derive(derivs[-1]) if derivs else f.get(comp)
            f.jet[key] = hit
    return hit


def field_scale_report(f) -> Fraction:
    """Largest absolute polynomial coefficient over all components."""
    best = Fraction(0)
    for _, value in f.items():
        best = max(best, value.poly.max_abs_coefficient())
    return best


def random_polynomial(n: int, degree: int, rng: random.Random) -> Polynomial:
    """Small random coefficients on the exponent tuples of degree <= ``degree``, sorted, over 6."""
    index = _monomials(n)
    index.grow(degree)
    nums = [0] * index.starts[degree + 1]
    for exps in sorted(index.exps[:len(nums)]):
        num = rng.randint(-4, 4)
        if num:
            nums[index.pos[exps]] = num * (6 // rng.choice((1, 2, 3)))
    return Polynomial._from_ints(n, 6, nums)


def random_field(n: int, m: int, degree: int, seed) -> SymTensor:
    """A deterministic random rank-m field with small rational coefficients.

    Every canonical component receives an independent random polynomial of
    total degree at most ``degree``; identical seeds give identical fields.
    """
    if degree < 0:
        raise ValueError("degree must be non-negative")
    rng = random.Random(seed if isinstance(seed, (int, str)) else str(seed))
    comps = {}
    for key in all_canonical_tuples(n, m):
        comps[key] = PolyGauss(random_polynomial(n, degree, rng))
    return sym_field(n, m, comps)
