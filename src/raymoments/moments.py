"""Momentum ray transforms and the derivative calculus on transform data.

The q-th moment transform integrates t^q times the direction-contracted field
along a line.  On the manifold of oriented lines (unit direction, orthogonal
offset) this is the classical momentum transform; the extended version lives
on arbitrary (x, xi) with xi nonzero, where partial derivatives in both
variables make sense.

Derivatives of transform data are never taken by finite differences: closed
rewrite rules express them as rational combinations of transforms of derived
or restricted fields (MomentExpression), so every transform-level identity
can be evaluated exactly on rational lines.  The two John identities read
one table of John data per multiset of coordinate pairs p < q.  The
rewrite chains behind that table do not depend on the line: each field
holds them, built once, and a point only evaluates them.
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

from .diffops import _pair_key, alternated_derivative
from .polygauss import (
    ExactValue,
    LineTable,
    PolyGauss,
    Polynomial,
    _jet,
    is_rational,
    line_moment,
    rational_sqrt,
)
from .symtensor import (
    RawTensor,
    _check_indices,
    SymTensor,
    all_canonical_tuples,
    restriction_indices,
    symmetrize,
    tuple_multiplicity,
)

PROJECTION_TOL = 1e-12


class PhasePoint:
    """A point (x, xi) with xi nonzero; the argument of extended transforms.

    The point's LineTable decides its scalars: coordinates are kept exact
    when every entry is rational, otherwise they are floats and downstream
    evaluation switches to the float path.  An exact point also keeps its
    direction as ints, ``xi_nums`` over ``xi_den``, the lcm of the
    denominators of xi, so that the direction weights of a rank-r transform
    datum are ints over ``xi_den**r`` (see ``_transform_value``).

    Three memos, which live as long as the point, make each value at it one
    computation.  ``transforms`` holds transform data under
    ``(q, sorted fixed, sorted derivs, id(field))`` and ``john_tables`` the
    John tables under ``(sorted fixed, id(field))``: the values at this
    point of the John chains that the field holds (see ``_john_table``).
    Each entry also holds its field, so that no id in a key can pass to
    another field while the entry lives.  ``integrals`` holds line
    integrals of PolyGauss values under the order and the polynomial's
    stored form, ``(q, poly.key)``, so that a polynomial reached through two
    objects is integrated once.  Every line integral this module takes goes
    through ``integral``.
    """

    def __init__(self, x: Sequence, xi: Sequence):
        # the moments of monomials along this line, shared by every transform
        self.line_table = table = LineTable(tuple(x), tuple(xi))
        self.x, self.xi, self.is_exact = table.x, table.xi, table.is_exact
        if self.is_exact:
            self.xi_den = math.lcm(*(v.denominator for v in self.xi))
            self.xi_nums = tuple(v.numerator * (self.xi_den // v.denominator)
                                 for v in self.xi)
        # the value of an empty sum of transform data at this point
        self.zero = ExactValue.zero_value() if self.is_exact else 0.0
        self.transforms: dict = {}
        self.john_tables: dict = {}
        self.integrals: dict = {}

    def integral(self, g, q: int):
        """The integral of t^q g along the point's line, computed once."""
        poly = g.poly
        key = (q, poly.key)
        hit = self.integrals.get(key)
        if hit is None:
            hit = self.integrals[key] = line_moment(g, q, self.x, self.xi,
                                                    self.line_table)
        return hit

    @property
    def n(self) -> int:
        return len(self.x)

    def xi_norm_sq(self):
        return sum(v * v for v in self.xi)

    def x_dot_xi(self):
        return sum(a * b for a, b in zip(self.x, self.xi))

    def project(self) -> "TSPoint":
        """The oriented-line representative: orthogonal offset, unit direction."""
        s = self.xi_norm_sq()
        c = self.x_dot_xi()
        if self.is_exact:
            xp = tuple(a - (c / s) * b for a, b in zip(self.x, self.xi))
            lam = rational_sqrt(s)
            if lam is not None:
                return TSPoint(xp, tuple(b / lam for b in self.xi))
            x, xi = [float(v) for v in xp], [float(v) for v in self.xi]
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

    def __init__(self, x: Sequence, xi: Sequence):
        super().__init__(x, xi)
        if self.is_exact:
            if self.xi_norm_sq() != 1:
                raise ValueError("direction must have exact unit norm")
            if self.x_dot_xi() != 0:
                raise ValueError("offset must be exactly orthogonal to direction")
            self.projection_residual = 0.0
        else:
            res = max(abs(self.xi_norm_sq() - 1.0), abs(self.x_dot_xi()))
            if res > PROJECTION_TOL:
                raise ValueError(f"line constraints violated by {res:.3e}")
            self.projection_residual = res


def rational_unit_vector(n: int, rng: random.Random) -> tuple[Fraction, ...]:
    """A random rational vector of exact unit norm.

    Built from the rational parametrization of the circle, nested across
    coordinates, then randomly permuted.
    """
    def circle_pair():
        while True:
            a = rng.randint(-6, 6)
            b = rng.randint(-6, 6)
            if a or b:
                d = a * a + b * b
                return Fraction(a * a - b * b, d), Fraction(2 * a * b, d)

    if n == 1:
        return (Fraction(rng.choice((-1, 1))),)
    c, s = circle_pair()
    vec = [c, s]
    while len(vec) < n:
        c, s = circle_pair()
        vec = [c] + [s * v for v in vec]
    order = list(range(n))
    rng.shuffle(order)
    return tuple(vec[i] for i in order)


def _random_rational_vector(n: int, rng: random.Random) -> list[Fraction]:
    return [Fraction(rng.randint(-4, 4), rng.choice((2, 3, 4))) for _ in range(n)]


def random_ts_point(n: int, rng: random.Random) -> TSPoint:
    """A random exact oriented line with offset norm at most 3/2."""
    u = rational_unit_vector(n, rng)
    x = None
    for _ in range(16):
        y = _random_rational_vector(n, rng)
        c = sum(a * b for a, b in zip(y, u))
        cand = [a - c * b for a, b in zip(y, u)]
        if any(cand):
            x = cand
            break
    if x is None:
        x = [Fraction(0)] * n
    while sum(v * v for v in x) > Fraction(9, 4):
        x = [v / 2 for v in x]
    return TSPoint(x, u)


def random_phase_point(n: int, rng: random.Random) -> PhasePoint:
    """A random exact phase point with rational direction norm in [1/2, 2].

    The offset keeps a minimum angle to the direction so the projected line
    stays well separated from the degenerate locus.
    """
    u = rational_unit_vector(n, rng)
    lam = Fraction(rng.randint(2, 8), 4)
    xi = tuple(lam * v for v in u)
    for _ in range(64):
        x = _random_rational_vector(n, rng)
        norm2 = sum(v * v for v in x)
        while norm2 > 4:
            x = [v / 2 for v in x]
            norm2 = sum(v * v for v in x)
        c = sum(a * b for a, b in zip(x, u))
        if norm2 <= Fraction(1, 100) or c * c <= Fraction(15, 16) * norm2:
            return PhasePoint(x, xi)
    return PhasePoint([Fraction(0)] * n, xi)


def random_float_ts_point(n: int, rng: random.Random) -> TSPoint:
    """A random float-path oriented line (projected and normalized)."""
    while True:
        xi = [rng.gauss(0.0, 1.0) for _ in range(n)]
        norm = math.sqrt(sum(v * v for v in xi))
        if norm > 1e-3:
            break
    u = [v / norm for v in xi]
    x = [rng.gauss(0.0, 0.7) for _ in range(n)]
    for _ in range(2):
        c = sum(a * b for a, b in zip(x, u))
        x = [a - c * b for a, b in zip(x, u)]
    return TSPoint(x, u)


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

    Two ExactValues are subtracted exactly and the difference goes through
    ``magnitude``, so the result is 0.0 iff they are equal; values that
    cannot be subtracted exactly (different exponents or incompatible roots)
    raise ArithmeticError.  Two floats, on the float route, give the float
    difference; an ExactValue against a float raises TypeError.
    """
    if isinstance(a, ExactValue) and isinstance(b, ExactValue):
        return magnitude(a - b)
    if isinstance(a, ExactValue) or isinstance(b, ExactValue):
        raise TypeError("cannot compare an exact value with a float one")
    return abs(float(a) - float(b))


def _weighted_sum(pairs, zero):
    """Sum of weight * value over (weight, value) pairs; ``zero`` if none.

    Exact (an ExactValue) when every value is exact and every weight
    rational, ``math.fsum`` of the float products when no value is exact.
    An exact value with a float value or weight raises TypeError, as in
    ``value_diff``: an exact sum never falls back to float.
    """
    pairs = list(pairs)
    if not pairs:
        return zero
    if all(isinstance(v, ExactValue) and is_rational(w) for w, v in pairs):
        return functools.reduce(operator.add, (v.scaled(w) for w, v in pairs))
    if any(isinstance(v, ExactValue) for _, v in pairs):
        raise TypeError("cannot sum exact values with float values or weights")
    return math.fsum(float(w) * float(v) for w, v in pairs)


def _transform_value(f: SymTensor, q: int, pt: PhasePoint, fixed=(), derivs=()):
    """The q-th transform of the derivative ``derivs`` of f restricted at ``fixed``.

    The line integral of t^q times the direction-contracted field: the sum,
    over the canonical keys J of the remaining rank r, of the multiplicity
    of J times the product of xi_j over J times the jet entry at
    ``(fixed + J, derivs)``.  On an exact point the weights are ints over
    ``pt.xi_den**r``, so the contraction is one Polynomial added up in ints,
    as the diffops stencils are applied, and the datum costs one line
    integral (none when the contraction is zero).  On a float point each
    entry is integrated and the values are summed in floats.  Read through
    the point's memos: the value once per datum, each integral once per
    point.
    """
    if f.n != pt.n:
        raise ValueError("field and point dimensions differ")
    memo_key = (q, tuple(sorted(fixed)), tuple(sorted(derivs)), id(f))
    hit = pt.transforms.get(memo_key)
    if hit is None:
        rank = f.rank - len(fixed)
        xi = pt.xi_nums if pt.is_exact else pt.xi
        weighted = []
        for key in all_canonical_tuples(f.n, rank):
            weight = math.prod((xi[j - 1] for j in key), start=tuple_multiplicity(key))
            if weight:
                weighted.append((weight, _jet(f, fixed + key, derivs)))
        if pt.is_exact:
            poly = Polynomial._from_weighted(
                f.n, ((weight, comp.poly) for weight, comp in weighted), pt.xi_den ** rank)
            value = pt.integral(PolyGauss(poly), q) if poly else pt.zero
        else:
            value = _weighted_sum(((weight, pt.integral(comp, q))
                                   for weight, comp in weighted if comp), pt.zero)
        hit = pt.transforms[memo_key] = (f, value)
    return hit[1]


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

    ``i_values`` are the transforms of orders 0..q at pt.project().  Exact
    when the direction norm is rational and the supplied values are exact;
    exact values at an irrational direction norm raise TypeError.
    """
    if q < 0 or len(i_values) < q + 1:
        raise ValueError("need moment values of orders 0..q")
    s = pt.xi_norm_sq()
    c = pt.x_dot_xi()
    lam = rational_sqrt(s) if is_rational(s) else None
    if lam is None:  # an irrational direction norm takes the weights to floats
        lam, c = math.sqrt(float(s)), float(c)
    pairs = [((-1) ** (q - ell) * math.comb(q, ell)
              * lam ** (rank - 2 * q - 1 + ell) * c ** (q - ell), i_values[ell])
             for ell in range(q + 1)]
    return _weighted_sum(pairs, pt.zero)


class MomentAtom:
    """One transform datum: order q of a field's derivative and restriction.

    The datum is the q-th transform of the partial derivative ``derivs`` of
    ``field`` restricted at the indices ``fixed``.  Both tuples are kept
    sorted, because partials commute with each other and with restriction.
    ``fingerprint`` names the datum by the field's identity, not its content.
    """

    __slots__ = ("q", "field", "fixed", "derivs", "fingerprint")

    def __init__(self, q: int, field: SymTensor, fixed=(), derivs=()):
        if q < 0:
            raise ValueError("moment order must be non-negative")
        self.q = q
        self.field = field
        self.fixed = tuple(sorted(fixed))
        self.derivs = tuple(sorted(derivs))
        self.fingerprint = (q, self.fixed, self.derivs, id(field))

    @property
    def rank(self) -> int:
        return self.field.rank - len(self.fixed)

    def value(self, pt: PhasePoint):
        return _transform_value(self.field, self.q, pt, self.fixed, self.derivs)


class MomentExpression:
    """A rational-linear combination of moment atoms.

    Closed under the derivative rewrites below; atoms are deduplicated by
    (order, restriction, derivatives, field) with coefficient merging so that
    structurally canceling identities collapse to the empty expression.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        self.terms = tuple(terms)

    @classmethod
    def zero(cls) -> "MomentExpression":
        return cls()

    @classmethod
    def transform(cls, f: SymTensor, q: int,
                  fixed: Sequence[int] = ()) -> "MomentExpression":
        """The q-th transform of f restricted at the indices ``fixed``."""
        atom = MomentAtom(q, f, restriction_indices(f, fixed))
        if f.is_zero():
            return cls()
        return cls(((Fraction(1), atom),))

    @classmethod
    def _merge(cls, parts) -> "MomentExpression":
        acc: dict = {}
        for coef, atom in parts:
            key = atom.fingerprint
            if key in acc:
                acc[key] = (acc[key][0] + coef, atom)
            else:
                acc[key] = (coef, atom)
        terms = [(coef, atom) for coef, atom in acc.values() if coef]
        terms.sort(key=lambda item: item[1].fingerprint[:3])
        return cls(terms)

    def __add__(self, other: "MomentExpression") -> "MomentExpression":
        if not isinstance(other, MomentExpression):
            return NotImplemented
        return MomentExpression._merge(self.terms + other.terms)

    def __neg__(self) -> "MomentExpression":
        return MomentExpression(tuple((-c, a) for c, a in self.terms))

    def __sub__(self, other: "MomentExpression") -> "MomentExpression":
        return self + (-other)

    def __mul__(self, coef) -> "MomentExpression":
        if not is_rational(coef):
            return NotImplemented
        coef = Fraction(coef)
        if not coef:
            return MomentExpression()
        return MomentExpression(tuple((c * coef, a) for c, a in self.terms))

    __rmul__ = __mul__

    def evaluate(self, pt: PhasePoint):
        """Value at one phase point.

        Each atom is read through the point's transform memo, which lives as
        long as the point: a datum that any evaluation or check at the point
        has already met is not computed again.
        """
        return _weighted_sum(((coef, atom.value(pt)) for coef, atom in self.terms),
                             pt.zero)


def dx(e: MomentExpression, i: int) -> MomentExpression:
    """Partial derivative of transform data in the i-th base coordinate.

    Differentiation under the integral moves onto the field componentwise.
    """
    parts = []
    for coef, atom in e.terms:
        derivs = atom.derivs + _check_indices((i,), atom.field.n)
        parts.append((coef, MomentAtom(atom.q, atom.field, atom.fixed, derivs)))
    return MomentExpression._merge(parts)


def dxi(e: MomentExpression, i: int) -> MomentExpression:
    """Partial derivative of transform data in the i-th direction coordinate.

    Two contributions: the line parametrization (order rises by one, field
    differentiated) and the direction contraction (rank-many copies of the
    transform of the field restricted at i).
    """
    parts = []
    for coef, atom in e.terms:
        derivs = atom.derivs + _check_indices((i,), atom.field.n)
        parts.append((coef, MomentAtom(atom.q + 1, atom.field, atom.fixed, derivs)))
        r = atom.rank
        if r:
            parts.append((coef * r, MomentAtom(atom.q, atom.field, atom.fixed + (i,),
                                               atom.derivs)))
    return MomentExpression._merge(parts)


def john(e: MomentExpression, p: int, q: int) -> MomentExpression:
    """The John operator in coordinates p, q applied to transform data."""
    if p == q:
        raise ValueError("John operator requires two distinct coordinates")
    return dx(dxi(e, q), p) - dx(dxi(e, p), q)


def _recovery_term(r: int, p: int) -> Fraction:
    """Sign and binomial factor of the p-th term of the recovery sum."""
    return Fraction((-1) ** p * math.comb(r, p))


def recover_restricted(f: SymTensor, fixed: Sequence[int], pt: PhasePoint):
    """Transform of a restricted field rebuilt from derivatives of moment data.

    Symmetrizes over the fixed indices an alternating sum of mixed x/xi
    derivatives of the transforms of orders 0..r and evaluates at pt; equals
    the zeroth transform of the restriction of f at those indices.
    """
    m = f.rank
    fixed = restriction_indices(f, fixed)
    r = len(fixed)
    perms = list(itertools.permutations(fixed)) or [()]
    weight = Fraction(1, len(perms))
    total = MomentExpression.zero()
    for perm in perms:
        for p in range(r + 1):
            e = MomentExpression.transform(f, p) * (_recovery_term(r, p) * weight)
            for i in perm[:p]:
                e = dx(e, i)
            for i in perm[p:]:
                e = dxi(e, i)
            total = total + e
    total = total * Fraction(math.factorial(m - r), math.factorial(m))
    return total.evaluate(pt)


def _chains(f: SymTensor, fixed: Sequence[int], kind: str) -> dict:
    """Rewrite chains of the zeroth transform of f restricted at ``fixed``.

    One MomentExpression per multiset of ``r = rank - len(fixed)`` letters,
    keyed by the multiset as a sorted tuple.  For ``kind`` "john" the
    letters are the pairs p < q and each applies ``john``; for "dx" they are
    the axes and each applies ``dx``.  Both rewrites commute, so a multiset
    names its chain, and each shorter chain is built once and extended by
    every letter that may follow it.  A chain does not depend on the point:
    it is built once per field, fixed multiset and kind, and held in the
    field's ``chains``, as the field's derivatives are held in its jet.
    """
    memo_key = (kind, tuple(sorted(fixed)))
    hit = f.chains.get(memo_key)
    if hit is None:
        axes = range(1, f.n + 1)
        letters = list(itertools.combinations(axes, 2)) if kind == "john" else axes
        size = f.rank - len(fixed)
        chains = {(): MomentExpression.transform(f, 0, fixed)}
        for length in range(1, size + 1):
            for word in itertools.combinations_with_replacement(letters, length):
                prefix, last = chains[word[:-1]], word[-1]
                chains[word] = john(prefix, *last) if kind == "john" else dx(prefix, last)
        hit = f.chains[memo_key] = {word: e for word, e in chains.items()
                                    if len(word) == size}
    return hit


def _john_table(f: SymTensor, k: int, fixed: Sequence[int], pt: PhasePoint) -> dict:
    """The (m-k)-fold John data of the k-fold restriction, per pair multiset.

    Evaluates at pt the John chains of f at ``fixed`` (``_chains``): the
    zeroth transform of f restricted at ``fixed``, with one John operator
    per pair of each multiset of pairs p < q, under ``_pair_key(pairs)[0]``.
    John operators commute and ``J_qp = -J_pq``, so any other ordered chain
    is a signed entry.  The chains are built once per field and fixed
    multiset, however many points read them; the table of their values once
    per point (the point's ``john_tables``).  Callers only read it.
    """
    m = f.rank
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < rank, got k={k}, rank={m}")
    if len(fixed) != k:
        raise ValueError(f"expected {k} fixed indices, got {len(fixed)}")
    memo_key = (tuple(sorted(fixed)), id(f))
    hit = pt.john_tables.get(memo_key)
    if hit is None:
        table = {_pair_key(pairs)[0]: e.evaluate(pt)
                 for pairs, e in _chains(f, fixed, "john").items()}
        hit = pt.john_tables[memo_key] = (f, table)
    return hit[1]


def john_power_residual(f: SymTensor, k: int, fixed: Sequence[int],
                        pt: PhasePoint) -> float:
    """Iterated John operator versus the alternated-derivative transform.

    Compares the John data of each pair multiset p < q with (-2)^(m-k)
    (m-k)! times the scalar transform of the matching alternated-derivative
    component of the k-fold restriction, read from f's jet.
    """
    table = _john_table(f, k, fixed, pt)
    mk = f.rank - k
    alt = alternated_derivative(f, fixed)
    scale = Fraction((-2) ** mk * math.factorial(mk))
    return max((value_diff(lhs, pt.integral(alt.get(key), 0) * scale)
                for key, lhs in table.items()), default=0.0)


@functools.lru_cache(maxsize=64)
def _signed_pair_reads(n: int, r: int) -> tuple:
    """The John table entries that the collapsed derivatives read, per q-tuple.

    One ``(sorted qt, reads)`` item per ordered r-tuple qt of axes, where
    ``reads`` lists ``(ptuple, key, sign)`` for each r-tuple ptuple with no
    ``p_a == q_a``: the chain of the pairs ``(p_a, q_a)`` is ``sign`` times
    the table entry at ``key`` (``_pair_key``).
    """
    axes = range(1, n + 1)
    out = []
    for qt in itertools.product(axes, repeat=r):
        reads = []
        for ptuple in itertools.product(axes, repeat=r):
            key, sign = _pair_key(zip(ptuple, qt))
            if sign:
                reads.append((ptuple, key, sign))
        out.append((tuple(sorted(qt)), tuple(reads)))
    return tuple(out)


def collapsed_derivative_residual(f: SymTensor, k: int, fixed: Sequence[int],
                                  pt: PhasePoint) -> float:
    """Direction contraction of iterated John data versus pure x-derivatives.

    For every derivative multi-index the contraction of the (m-k)-fold John
    data against the direction components must equal (-1)^(m-k) (m-k)! times
    the corresponding x-derivative of the restricted transform; holds with no
    kernel hypothesis on f.  Each ordered John chain is a signed entry of the
    John table (``_signed_pair_reads``), and each x-derivative a ``dx``
    chain that the field holds (``_chains``).
    """
    table = _john_table(f, k, fixed, pt)
    mk = f.rank - k
    rhs_chains = _chains(f, fixed, "dx")
    scale = Fraction((-1) ** mk * math.factorial(mk))
    best = 0.0
    for qkey, reads in _signed_pair_reads(f.n, mk):
        acc = _weighted_sum(((math.prod(pt.xi[pa - 1] for pa in ptuple) * sign, table[key])
                             for ptuple, key, sign in reads), pt.zero)
        rhs = rhs_chains[qkey].evaluate(pt) * scale
        best = max(best, value_diff(acc, rhs))
    return best


def symmetrization_split_residual(t: RawTensor, k: int):
    """Full symmetrization versus its two-term split for block-symmetric input.

    The input must be symmetric in its first rank-k and last k positions.
    Returns the largest absolute component difference, exact on rational
    tensors (so zero certifies the identity).
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
    if k == 0:
        return Fraction(0)
    lhs = symmetrize(t, tuple(range(1, m + 1)))
    rotated = {}
    for idx in itertools.product(range(1, t.n + 1), repeat=m):
        value = t.get((idx[-1],) + idx[:-1])
        if value != t.zero:
            rotated[idx] = value
    rot = RawTensor(t.n, m, rotated, t.zero)
    inner = t * Fraction(k) + rot * Fraction(m - k)
    if m == 1:
        rhs = inner * Fraction(1, m)
    else:
        rhs = symmetrize(inner, tuple(range(1, m))) * Fraction(1, m)
    diff = lhs - rhs
    best = Fraction(0)
    for _, value in diff.items():
        best = max(best, abs(value))
    return best


def _multiset_difference(key: tuple, sub: tuple) -> tuple:
    """The index tuple ``key`` with the sub-multiset ``sub`` taken out."""
    rest = list(key)
    for i in sub:
        rest.remove(i)
    return tuple(rest)


def symmetrized_derivative_residual(f: SymTensor, r: int, pt: PhasePoint) -> float:
    """Symmetrized spatial derivatives of restricted moment data.

    For each canonical index tuple, averages over its rearrangements the
    (rank-r)-fold x-derivative of the zeroth transform of the r-fold
    restriction; vanishes whenever the order-r operator annihilates f.
    A rearrangement reads only the multiset F of its last r slots: it
    restricts at F and differentiates along key - F.  So the average is one
    atom per distinct r-sub-multiset F of the key, weighted by the share of
    rearrangements that split the key there,
    ``arr(key - F) * arr(F) / arr(key)`` with ``arr`` the number of distinct
    rearrangements (``tuple_multiplicity``).
    """
    m = f.rank
    if not 0 <= r <= m:
        raise ValueError(f"restriction depth r={r} outside [0, {m}]")
    best = 0.0
    for key in all_canonical_tuples(f.n, m):
        arr = tuple_multiplicity(key)
        parts = []
        for fixed in dict.fromkeys(itertools.combinations(key, r)):
            derivs = _multiset_difference(key, fixed)
            weight = Fraction(tuple_multiplicity(derivs) * tuple_multiplicity(fixed), arr)
            parts.append((weight, MomentAtom(0, f, fixed, derivs)))
        total = MomentExpression(parts)
        best = max(best, value_diff(total.evaluate(pt), pt.zero))
    return best


def restriction_contraction_residual(f: SymTensor, fixed: Sequence[int], k: int,
                                     pt: PhasePoint) -> float:
    """Transform of a deeper restriction versus the contracted shallower one.

    The zeroth transform of an r-fold restriction equals the sum over the
    remaining k-r fixed indices, weighted by direction components, of the
    k-fold restriction's transform.
    """
    fixed = restriction_indices(f, fixed)
    r = len(fixed)
    if not r <= k <= f.rank:
        raise ValueError(f"need len(fixed) <= k <= rank, got {r}, {k}, {f.rank}")
    lhs = _transform_value(f, 0, pt, fixed)
    tails = itertools.product(range(1, f.n + 1), repeat=k - r)
    acc = _weighted_sum(((math.prod(pt.xi[j - 1] for j in tail),
                          _transform_value(f, 0, pt, fixed + tail))
                         for tail in tails), pt.zero)
    return value_diff(lhs, acc)


def directional_x_derivative(e: MomentExpression, pt: PhasePoint):
    """Evaluate the direction-contracted x-gradient of transform data at pt."""
    return _weighted_sum(((pt.xi[i - 1], dx(e, i).evaluate(pt))
                          for i in range(1, pt.n + 1)), pt.zero)


def directional_xi_derivative(e: MomentExpression, pt: PhasePoint):
    """Evaluate the direction-contracted xi-gradient of transform data at pt."""
    return _weighted_sum(((pt.xi[i - 1], dxi(e, i).evaluate(pt))
                          for i in range(1, pt.n + 1)), pt.zero)
