"""Differential operators on symmetric tensor fields.

Implements the symmetrized gradient (inner derivative), the Saint Venant
compatibility operator, its generalized order-k variant, the equivalent
alternated derivative, stored once per multiset of index pairs i < j, and
the linear conversions between the two.  Everything runs in exact rational
coefficient arithmetic; no floating point enters this module.

Every operator is a cached stencil: rows ``(out_key, row_den, ((source,
weight), ...))`` with int weights over one positive int row denominator,
each built by ``symtensor._row``; the restriction relation walks the rows
of its right side in the cached split table ``_splits``.
The order-k stencil is built in closed form: its int weights are summed
over derivative multisets, each counted by a product of binomials of its
letter multiplicities, not over position subsets.  One loop applies the
stencils.  Each row hands its int weights and source polynomials to
``Polynomial._from_weighted``, which adds up their int numerator tuples,
aligned on the graded monomial index, over one denominator and normalizes
the sum once; no Fraction is built.  A restriction of a field is an
address, not a tensor: the alternated derivative of f restricted at
``fixed`` reads the jet entries of f at ``fixed + component``.  Transform
data read the jet only where they are fully restricted; elsewhere a point
differentiates its own direction contraction of the field (see moments).
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from fractions import Fraction

from .polygauss import PolyGauss, Polynomial, field_scale_report
# the field's jet; the stencil loops look this name up at call time
from .polygauss import _jet as _component_derivative
from .symtensor import (
    BiSymTensor,
    RawTensor,
    SymTensor,
    _multiset_difference,
    _row,
    all_canonical_tuples,
    canonical,
    distinct_rearrangements,
    restriction_indices,
)
# ``restrict`` under an old name that no operator reads: the benchmark
# harness tests assert that it exists.  Drop it with that assertion
# (ROADMAP item 2).
from .symtensor import restrict as restrict_field


def _series_term(count: int, ell: int) -> Fraction:
    """Coefficient of the ell-th term of the alternating binomial sum."""
    return Fraction((-1) ** ell * math.comb(count, ell))


def _apply(n: int, rows, fetch) -> dict:
    """Apply stencil rows to the PolyGauss values that ``fetch`` returns.

    Each row ``(out_key, row_den, ((source, weight), ...))`` becomes one
    component: the int-weighted sum of the sources' polynomials over
    ``row_den``, added up in ints (``Polynomial._from_weighted``).  A row
    with no entries or whose sum is zero gives no component, so the keys
    and values are fit for ``_trusted`` as they are.
    """
    data = {}
    for key, row_den, entries in rows:
        if entries:
            poly = Polynomial._from_weighted(
                n, [(weight, fetch(source).poly) for source, weight in entries], row_den)
            if poly:
                data[key] = PolyGauss(poly)
    return data


@functools.lru_cache(maxsize=64)
def _d_stencil(n: int, m: int) -> tuple:
    """The inner derivative of a rank-m field, one row per rank-(m+1) key.

    The value at J is the average over slots a of the partial derivative of
    the component at J minus slot a, taken in the J_a direction: each row
    counts the slots that read a source, over m + 1.
    """
    return tuple((key, *_row((((key[:a] + key[a + 1:], (key[a],)), 1) for a in range(m + 1)),
                             m + 1))
                 for key in all_canonical_tuples(n, m + 1))


def inner_derivative(u: SymTensor) -> SymTensor:
    """Symmetrized gradient, raising the rank by one."""
    data = _apply(u.n, _d_stencil(u.n, u.rank),
                  lambda source: _component_derivative(u, *source))
    return SymTensor._trusted(u.n, (u.rank + 1,), data, u.zero)


def iterate_d(v: SymTensor, times: int) -> SymTensor:
    """The inner derivative applied ``times`` times."""
    if times < 0:
        raise ValueError("times must be non-negative")
    out = v
    for _ in range(times):
        out = inner_derivative(out)
    return out


def saint_venant(f: SymTensor) -> BiSymTensor:
    """The Saint Venant compatibility operator on a rank-m field.

    Produces a field with two symmetric rank-m groups; its kernel on decaying
    fields is exactly the image of the inner derivative.  For m = 1 it reduces
    to the curl-type integrability condition.  It is the order-0 case of
    generalized_saint_venant.
    """
    if f.rank < 1:
        raise ValueError("saint_venant requires rank >= 1")
    return generalized_saint_venant(f, 0)


def _code(key, base: int) -> int:
    """The multiset of the index tuple ``key`` as an int.

    Digit ``a - 1`` in ``base`` counts the letter a.  While no digit reaches
    ``base``, adding codes adds multisets and subtracting a sub-multiset's
    code removes it.
    """
    return sum(base ** (a - 1) for a in key)


def _sub_multisets(key, base: int) -> list:
    """The sub-multisets of the index tuple ``key``, by size.

    Entry ``size`` lists ``(code, mult)`` pairs.  ``mult``, the product of
    ``C(c_a, t_a)`` over the letters a, with ``c_a`` of them in ``key`` and
    ``t_a`` taken, is the number of position subsets that take that
    sub-multiset.
    """
    out = [[(0, 1)]]
    for a in sorted(set(key)):
        c, step = key.count(a), base ** (a - 1)
        grown = [[] for _ in range(len(out) + c)]
        for t in range(c + 1):
            ways, shift = math.comb(c, t), t * step
            for size, entries in enumerate(out):
                grown[size + t].extend((code + shift, mult * ways) for code, mult in entries)
        out = grown
    return out


@functools.lru_cache(maxsize=64)
def _stencil(n: int, m: int, k: int, series) -> tuple:
    """The order-k operator as a fixed rational-linear map on the jet.

    Returns one ``((pkey, ckey), row_den, entries)`` row per output key,
    where each entry ``((component, derivatives), weight)`` names a canonical
    component, a sorted derivative multiset and the summed weight of every
    series term that reads that partial derivative, as an int over the lcm
    ``row_den`` of the row's reduced weights; entries whose weights cancel
    are dropped.

    The series term ``ell`` takes ``k`` fixed slots and ``ell`` more slots of
    ``ckey`` into the component, and differentiates along ``Pd``, ``ell``
    slots of ``pkey``, and ``Qd``, the other ``m - k - ell`` slots of
    ``ckey``.  The jet it reads depends only on the derivative multiset
    ``S = Pd + Qd``; the component is ``pkey + ckey - S``.  Summed over
    position subsets, the weight of ``S`` is

        sum over ell of  w_ell * C(k + ell, k) * sum over Pd + Qd = S of
                         mult(Pd in pkey) * mult(Qd in ckey),

    with ``w_ell = series(m - k, ell) / (C(m, k) * C(m - k, ell)^2)`` and
    ``mult`` the count from ``_sub_multisets``: once the ``Qd`` slots are
    placed, ``C(k + ell, k)`` ways remain to pick the fixed slots among the
    rest.  The weights are scaled to ints over their common denominator
    ``D``, summed per ``S`` and divided by ``g = gcd(D, *sums)`` (``_row``):
    ``row_den = D // g``, the lcm of the reduced weights' denominators.

    ``series`` is the coefficient function of the alternating binomial sum.
    The mutation checks replace ``_series_term`` and expect the certificate
    to break, so the build calls ``series`` and keeps it in the cache key:
    a replaced series builds a fresh stencil instead of reading a cached one.
    """
    mk = m - k
    weights = [Fraction(series(mk, ell)) * math.comb(k + ell, k)
               / (math.comb(m, k) * math.comb(mk, ell) ** 2)
               for ell in range(mk + 1)]
    den = math.lcm(*(weight.denominator for weight in weights))
    weights = [weight.numerator * (den // weight.denominator) for weight in weights]
    base = m + mk + 1  # above every digit of pkey + ckey
    # every derivative multiset (size mk) and component (size m), with its
    # code and sub-multisets, taken once per key
    subs = {key: (_code(key, base), _sub_multisets(key, base))
            for size in {mk, m} for key in all_canonical_tuples(n, size)}
    key_of = {code: key for key, (code, _) in subs.items()}
    rows = []
    for pkey in all_canonical_tuples(n, mk):
        p_code, p_subs = subs[pkey]
        p_terms = [(ell, [(pd_code, weight * pd_mult) for pd_code, pd_mult in p_subs[ell]])
                   for ell, weight in enumerate(weights)]
        for ckey in all_canonical_tuples(n, m):
            c_code, q_subs = subs[ckey]
            row_den, summed = _row(((pd_code + qd_code, pd_weight * qd_mult)
                                    for ell, terms in p_terms
                                    for pd_code, pd_weight in terms
                                    for qd_code, qd_mult in q_subs[mk - ell]), den)
            rows.append(((pkey, ckey), row_den, tuple(
                ((key_of[p_code + c_code - s_code], key_of[s_code]), weight)
                for s_code, weight in summed)))
    return tuple(rows)


def generalized_saint_venant(f: SymTensor, k: int) -> BiSymTensor:
    """The order-k generalization of the Saint Venant operator.

    The output has a symmetric group of rank m-k and a combined symmetric
    group of rank m (the unrestricted slots together with the k fixed ones).
    It is a differential operator of order m-k; at k = m it degenerates to
    the identity on an already symmetric field.  Each output component is
    the cached stencil's row applied to the field's partial derivatives,
    accumulated coefficient by coefficient.
    """
    m = f.rank
    if not 0 <= k <= m:
        raise ValueError(f"order k={k} outside [0, {m}]")
    data = _apply(f.n, _stencil(f.n, m, k, _series_term),
                  lambda source: _component_derivative(f, *source))
    return BiSymTensor._trusted(f.n, (m - k, m), data, f.zero)


def _pair_key(pairs) -> tuple:
    """The signed pair read: ``pairs`` turned to ``i < j``, sorted and interleaved.

    Returns that key of ``A f`` and a sign, -1 per pair turned, 0 on a pair (i, i).
    """
    sign, turned = 1, []
    for i, j in pairs:
        if i > j:
            i, j, sign = j, i, -sign
        elif i == j:
            sign = 0
        turned.append((i, j))
    turned.sort()
    return tuple(itertools.chain.from_iterable(turned)), sign


def _pair_multisets(n: int, m: int):
    """The multisets of m pairs ``i < j``, one ``A f`` component each."""
    pairs = itertools.combinations(range(1, n + 1), 2)
    return itertools.combinations_with_replacement(pairs, m)


@functools.lru_cache(maxsize=64)
def _alternation_stencil(n: int, m: int) -> tuple:
    """The m pair alternations of an interleaved rank-2m tensor.

    One row per pair multiset, ``C(C(n, 2) + m - 1, m)`` of them: the signed
    sum over its 2^m pair swaps over 2^m, each read with both groups canonical
    and signed -1 per pair turned.
    """
    rows = []
    for chosen in _pair_multisets(n, m):
        reads = (zip(*read) for read in itertools.product(
            *(((i, j, 1), (j, i, -1)) for i, j in chosen)))
        rows.append((_pair_key(chosen)[0], *_row(
            (((canonical(firsts), canonical(seconds)), math.prod(turns))
             for firsts, seconds, turns in reads), 2 ** m)))
    return tuple(rows)


def alternated_derivative(f: SymTensor, fixed=()) -> RawTensor:
    """The r-fold pair alternation of the r-th derivative tensor of f at ``fixed``.

    The field is f restricted at the indices ``fixed``, of rank
    ``r = rank - len(fixed)``, which must be at least 1.  Component slot
    ``i_a`` alternates with derivative slot ``j_a``, and the pairs permute
    freely: one component per pair multiset, keyed by ``_pair_key``.  The
    restriction is an address: each source is the jet entry of f at
    ``(fixed + component, derivatives)``, so no restricted tensor is built
    and every derivative is memoized in f's own jet.  The result vanishes
    on inner-derivative images.
    """
    fixed = restriction_indices(f, fixed)
    r = f.rank - len(fixed)
    if r < 1:
        raise ValueError("alternated_derivative requires rank >= 1 after restriction")
    data = _apply(f.n, _alternation_stencil(f.n, r),
                  lambda source: _component_derivative(f, fixed + source[0], source[1]))
    return RawTensor._trusted(f.n, (2 * r,), data, f.zero)


def _alternated(f: SymTensor, fixed: tuple) -> RawTensor:
    """``alternated_derivative(f, fixed)`` at the sorted ``fixed``, built once per
    field and kept in ``f._alternated`` for the life of the field, as its jet is."""
    hit = f._alternated.get(fixed)
    if hit is None:
        hit = f._alternated[fixed] = alternated_derivative(f, fixed)
    return hit


@functools.lru_cache(maxsize=64)
def _pair_symmetrization_stencil(n: int, m: int) -> tuple:
    """An alternated tensor averaged within each index group, times 2^m.

    One ``((ikey, jkey), row_den, entries)`` row per pair of canonical keys.
    The pairs commute, so the average over both groups is the one over the
    rearrangements t of jkey of the pairs ``zip(ikey, t)``, read by sign; a
    rearrangement with a pair (i, i) reads zero and is skipped.
    """
    arrs = {jkey: distinct_rearrangements(jkey) for jkey in all_canonical_tuples(n, m)}
    rows = []
    for ikey in arrs:
        for jkey, arr in arrs.items():
            reads = (_pair_key(zip(ikey, t)) for t in arr if all(map(operator.ne, ikey, t)))
            rows.append(((ikey, jkey), *_row(((key, sign * 2 ** m) for key, sign in reads),
                                             len(arr))))
    return tuple(rows)


def saint_venant_from_alternated(rf: RawTensor) -> BiSymTensor:
    """Symmetrize the pair slots of an alternated derivative tensor.

    Averaging the alternated tensor over each index group and scaling by
    2^m reproduces the Saint Venant output exactly (each of the m pair
    alternations halves the alternating sum that the operator expands into).
    """
    if rf.rank % 2:
        raise ValueError("expected an even-rank pairwise tensor")
    m = rf.rank // 2
    if m < 1:
        raise ValueError("expected rank >= 2")
    if any(_pair_key(zip(key[0::2], key[1::2])) != (key, 1) for key in rf.components):
        raise ValueError("expected keys that are sorted multisets of pairs i < j")
    data = _apply(rf.n, _pair_symmetrization_stencil(rf.n, m),
                  lambda source: rf.components.get(source, rf.zero))
    return BiSymTensor._trusted(rf.n, (m, m), data, rf.zero)


def alternated_from_saint_venant(wf: BiSymTensor) -> RawTensor:
    """Recover the alternated derivative tensor from Saint Venant output.

    Applies the pair alternations to the interleaved tensor and divides by
    m + 1, folded into each row's denominator; inverse to
    saint_venant_from_alternated on operator images.
    """
    if wf.rank1 != wf.rank2:
        raise ValueError("expected equal-rank index groups")
    m = wf.rank1
    if m < 1:
        raise ValueError("expected rank >= 1")
    rows = ((key, row_den * (m + 1), entries)
            for key, row_den, entries in _alternation_stencil(wf.n, m))
    data = _apply(wf.n, rows, lambda source: wf.components.get(source, wf.zero))
    return RawTensor._trusted(wf.n, (2 * m,), data, wf.zero)


@functools.lru_cache(maxsize=64)
def _splits(n: int, m: int, k: int) -> dict:
    """Per rank-m key, the share of its rearrangements with k fixed slots reading ``fixed``.

    Rows ``(den, (((fixed, free), weight), ...))``, ``free`` the other m - k slots.  The
    share ``arr(fixed) * arr(free) / arr(key)``, ``arr`` the number of distinct
    rearrangements, is that of the ``C(m, k)`` position subsets that take ``fixed``.
    """
    return {key: _row((((fixed, _multiset_difference(key, fixed)), 1)
                       for fixed in itertools.combinations(key, k)), math.comb(m, k))
            for key in all_canonical_tuples(n, m)}


def restriction_relation_residual(f: SymTensor, k: int) -> Fraction:
    """Order-k operator versus symmetrized Saint Venant of restrictions.

    For every fixed k-tuple, symmetrizing the Saint Venant output of the
    restricted field over the combined (free, fixed) group reproduces the
    generalized operator.  Returns the largest absolute coefficient of the
    difference; exact, so zero certifies the identity.  Each restriction's
    Saint Venant output is taken through its alternated derivative, whose
    stencils do not read the series of ``W^k``, so that a fault in the
    series shows on one side only.  The restrictions are addresses into
    f's jet, and each alternated derivative is kept for the John residuals
    (``_alternated(f, ikey)``).
    """
    m = f.rank
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < rank, got k={k}, rank={m}")
    w_of_restriction = {
        ikey: saint_venant_from_alternated(_alternated(f, ikey)).components
        for ikey in all_canonical_tuples(f.n, k)}
    # per key (pkey, ckey) of W^k, the _splits share of ckey with fixed ikey, free qkey
    splits = _splits(f.n, m, k)
    rows = (((pkey, ckey), den, [((ikey, pkey, qkey), weight)
                                 for (ikey, qkey), weight in entries])
            for pkey in all_canonical_tuples(f.n, m - k)
            for ckey, (den, entries) in splits.items())
    data = _apply(f.n, rows, lambda source: w_of_restriction[source[0]].get(source[1:], f.zero))
    rhs = BiSymTensor._trusted(f.n, (m - k, m), data, f.zero)
    return field_scale_report(generalized_saint_venant(f, k) - rhs)
