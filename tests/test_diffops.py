import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import raymoments.diffops as diffops
from raymoments import (
    BiSymTensor,
    PolyGauss,
    Polynomial,
    RawTensor,
    SymTensor,
    all_canonical_tuples,
    alternate,
    alternated_derivative,
    alternated_from_saint_venant,
    field_scale_report,
    generalized_saint_venant,
    generate_potential,
    inner_derivative,
    iterate_d,
    restriction_relation_residual,
    restrict,
    saint_venant,
    saint_venant_from_alternated,
    random_field,
    sym_field,
)
from raymoments.polygauss import random_polynomial
from raymoments.symtensor import canonical, distinct_rearrangements


def scalar_field(n, seed=0, degree=2):
    rng = random.Random(seed)
    return sym_field(n, 0, {(): PolyGauss(random_polynomial(n, degree, rng))})


def sparse_field(n, m, seed, degree=1, nnz=2):
    rng = random.Random(seed)
    keys = list(all_canonical_tuples(n, m))
    chosen = keys if keys == [()] else rng.sample(keys, min(nnz, len(keys)))
    return sym_field(n, m, {key: PolyGauss(random_polynomial(n, degree, rng))
                            for key in chosen})


def _position_splits(key, size):
    """All (kept, taken) partitions of a tuple by position subsets of ``size``.

    Averaging a split-dependent quantity over all orderings of a group equals
    the plain average over these position subsets, because the quantity only
    sees each part as a multiset.  The position-based oracles below use it;
    diffops counts multisets instead.
    """
    positions = range(len(key))
    out = []
    for chosen in itertools.combinations(positions, size):
        taken = tuple(key[i] for i in chosen)
        chosen_set = set(chosen)
        kept = tuple(key[i] for i in positions if i not in chosen_set)
        out.append((kept, taken))
    return out


def _position_tally(n, m, k):
    """How often each series term of the order-k operator reads each jet.

    One ``((pkey, ckey), {jet: (count for ell in 0..m-k)})`` pair per output
    key, counted tuple by tuple over (fixed slots, series term, component
    slots, derivative slots) position splits, jets in order of first read.
    """
    mk = m - k
    out = []
    for pkey in all_canonical_tuples(n, mk):
        p_splits = [_position_splits(pkey, ell) for ell in range(mk + 1)]
        for ckey in all_canonical_tuples(n, m):
            tally = {}
            for q_full, i_part in _position_splits(ckey, k):
                for ell in range(mk + 1):
                    for q_derivs, q_comp in _position_splits(q_full, ell):
                        for p_comp, p_derivs in p_splits[ell]:
                            jet = (canonical(i_part + p_comp + q_comp),
                                   tuple(sorted(p_derivs + q_derivs)))
                            tally.setdefault(jet, [0] * (mk + 1))[ell] += 1
            out.append(((pkey, ckey), {jet: tuple(c) for jet, c in tally.items()}))
    return out


def _reference_stencil(n, m, k, series, tally=None):
    """The order-k stencil as Fraction weights summed over position splits.

    The oracle for ``diffops._stencil``, in the same row format: each read
    of a jet by series term ell adds ``series(m-k, ell) / (C(m, k) *
    C(m-k, ell)^2)``.  ``tally`` is ``_position_tally(n, m, k)``, counted
    once and reused across series.
    """
    mk = m - k
    weights = [series(mk, ell) * Fraction(1, math.comb(m, k) * math.comb(mk, ell) ** 2)
               for ell in range(mk + 1)]
    sums = {}  # the summed weight of each count vector, added up once
    rows = []
    for key, counts in tally or _position_tally(n, m, k):
        summed = {}
        for jet, per_ell in counts.items():
            if per_ell not in sums:
                sums[per_ell] = sum(c * w for c, w in zip(per_ell, weights))
            summed[jet] = sums[per_ell]
        kept = [(jet, weight) for jet, weight in summed.items() if weight]
        row_den = math.lcm(*(weight.denominator for _, weight in kept))
        rows.append((key, row_den, tuple(
            (jet, weight.numerator * (row_den // weight.denominator))
            for jet, weight in kept)))
    return tuple(rows)


def _reference_generalized_saint_venant(f, k):
    """The order-k operator as a loop over every raw series term.

    Kept as the oracle for the stencil in diffops; it re-expands the whole
    alternating binomial sum for every output component.
    """
    m = f.rank
    if not 0 <= k <= m:
        raise ValueError(f"order k={k} outside [0, {m}]")
    mk = m - k
    norm_i = math.comb(m, k)
    data = {}
    for pkey in all_canonical_tuples(f.n, mk):
        p_splits = {ell: _position_splits(pkey, ell) for ell in range(mk + 1)}
        for ckey in all_canonical_tuples(f.n, m):
            acc = f.zero
            for q_full, i_part in _position_splits(ckey, k):
                for ell in range(mk + 1):
                    weight = diffops._series_term(mk, ell) * Fraction(
                        1, norm_i * math.comb(mk, ell) ** 2)
                    for q_derivs, q_comp in _position_splits(q_full, ell):
                        for p_comp, p_derivs in p_splits[ell]:
                            term = diffops._component_derivative(
                                f, i_part + p_comp + q_comp, p_derivs + q_derivs)
                            acc = acc + term * weight
            data[(pkey, ckey)] = acc
    return BiSymTensor(f.n, mk, m, data, f.zero)


def _reference_inner_derivative(u):
    """The inner derivative as a loop over slots, the oracle for its stencil."""
    m = u.rank
    data = {}
    for key in all_canonical_tuples(u.n, m + 1):
        acc = u.zero
        for a in range(m + 1):
            rest = key[:a] + key[a + 1:]
            acc = acc + diffops._component_derivative(u, rest, (key[a],))
        data[key] = acc * Fraction(1, m + 1)
    return SymTensor(u.n, m + 1, data, u.zero)


def _reference_alternated_derivative(f):
    """The m-th derivative tensor followed by m ``alternate`` passes."""
    m = f.rank
    if m < 1:
        raise ValueError("alternated_derivative requires rank >= 1")
    data = {}
    for idx in itertools.product(range(1, f.n + 1), repeat=2 * m):
        comp = idx[0::2]
        derivs = idx[1::2]
        value = diffops._component_derivative(f, comp, derivs)
        if not value.is_zero():
            data[idx] = value
    out = RawTensor(f.n, 2 * m, data, f.zero)
    for a in range(m):
        out = alternate(out, (2 * a + 1, 2 * a + 2))
    return out


def _sigma_pair_average(n, group1_key, group2_key, raw_value) -> "object":
    """Average raw_value(t1, t2) over distinct rearrangements of both groups."""
    arr1 = distinct_rearrangements(group1_key) if group1_key else [()]
    arr2 = distinct_rearrangements(group2_key) if group2_key else [()]
    acc = None
    for t1 in arr1:
        for t2 in arr2:
            term = raw_value(t1, t2)
            acc = term if acc is None else acc + term
    return acc * Fraction(1, len(arr1) * len(arr2))


def _interleave(i_tuple, j_tuple):
    out = []
    for a, b in zip(i_tuple, j_tuple):
        out.append(a)
        out.append(b)
    return tuple(out)


def _reference_saint_venant_from_alternated(rf):
    """Group averages of the interleaved tensor, one output key at a time."""
    if rf.rank % 2:
        raise ValueError("expected an even-rank pairwise tensor")
    m = rf.rank // 2
    if m < 1:
        raise ValueError("expected rank >= 2")
    scale = Fraction(2 ** m)

    def raw(i_tuple, j_tuple):
        return rf.get(_interleave(i_tuple, j_tuple))

    data = {}
    for ikey in all_canonical_tuples(rf.n, m):
        for jkey in all_canonical_tuples(rf.n, m):
            data[(ikey, jkey)] = _sigma_pair_average(rf.n, ikey, jkey, raw) * scale
    return BiSymTensor(rf.n, m, m, data, rf.zero)


def _reference_alternated_from_saint_venant(wf):
    """The interleaved tensor over m + 1 followed by m ``alternate`` passes."""
    if wf.rank1 != wf.rank2:
        raise ValueError("expected equal-rank index groups")
    m = wf.rank1
    if m < 1:
        raise ValueError("expected rank >= 1")
    scale = Fraction(1, m + 1)
    data = {}
    for idx in itertools.product(range(1, wf.n + 1), repeat=2 * m):
        value = wf.get(idx[0::2], idx[1::2]) * scale
        if value != wf.zero:
            data[idx] = value
    out = RawTensor(wf.n, 2 * m, data, wf.zero)
    for a in range(m):
        out = alternate(out, (2 * a + 1, 2 * a + 2))
    return out


def _pair_multiset_keys(n, m):
    """Every key of the compact layout: m pairs i < j, sorted, interleaved."""
    pairs = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    return [sum(chosen, ()) for chosen in itertools.combinations_with_replacement(pairs, m)]


def _expand(t):
    """A compact alternated tensor in the raw interleaved layout.

    The raw entry at ``(i1, j1, ..., im, jm)`` is the stored value at its
    pairs turned to ``i < j`` and sorted, negated once per pair turned, and
    zero on a pair ``i == j``.
    """
    assert set(t.components) <= set(_pair_multiset_keys(t.n, t.rank // 2))
    data = {}
    for idx in itertools.product(range(1, t.n + 1), repeat=t.rank):
        pairs = list(zip(idx[0::2], idx[1::2]))
        key = sum(sorted(tuple(sorted(pair)) for pair in pairs), ())
        if all(i != j for i, j in pairs) and key in t.components:
            data[idx] = t.components[key] * Fraction((-1) ** sum(i > j for i, j in pairs))
    return RawTensor(t.n, t.rank, data, t.zero)


def _compact(raw):
    """A raw interleaved tensor read at the keys of the compact layout only."""
    keys = _pair_multiset_keys(raw.n, raw.rank // 2)
    return RawTensor(raw.n, raw.rank, {key: raw.get(key) for key in keys}, raw.zero)


def _assert_compact_form_of(got, raw):
    """``got`` holds ``raw`` once per pair multiset, and sign implies the rest."""
    assert got == _compact(raw)
    assert _expand(got) == raw


def _pair_read(t, idx):
    """The value of a compact alternated tensor at an interleaved index."""
    key, sign = diffops._pair_key(zip(idx[0::2], idx[1::2]))
    return t.get(key) * Fraction(sign) if sign else t.zero


STENCIL_SHAPES = [(2, 1), (2, 2), (2, 3), (2, 4), (3, 1), (3, 2), (3, 3), (4, 2)]


class TestStencilsMatchReferenceLoops:
    """Every stencil operator against the hand-written loop it replaced.

    The alternation references build the raw interleaved layout; the compact
    results are compared through ``_expand`` and ``_compact``.  The generic
    inputs (random values on every compact key, a block-symmetric tensor
    that is no Saint Venant image) reach stencil entries that operator
    images would cancel.
    """

    @pytest.mark.parametrize("n,m", STENCIL_SHAPES)
    def test_inner_derivative(self, n, m):
        u = random_field(n, m, 2, f"d:{n}:{m}")
        assert inner_derivative(u) == _reference_inner_derivative(u)

    @pytest.mark.parametrize("n,m", STENCIL_SHAPES)
    def test_alternated_derivative(self, n, m):
        f = random_field(n, m, 1, f"alt:{n}:{m}")
        _assert_compact_form_of(alternated_derivative(f), _reference_alternated_derivative(f))

    @pytest.mark.parametrize("n,m", STENCIL_SHAPES)
    def test_saint_venant_from_alternated(self, n, m):
        rng = random.Random(f"sva:{n}:{m}")
        generic = RawTensor(n, 2 * m, {
            key: PolyGauss(random_polynomial(n, 1, rng))
            for key in _pair_multiset_keys(n, m)}, zero=PolyGauss.zero(n))
        image = alternated_derivative(random_field(n, m, 1, f"sva:{n}:{m}"))
        for rf in (generic, image):
            assert (saint_venant_from_alternated(rf)
                    == _reference_saint_venant_from_alternated(_expand(rf)))

    @pytest.mark.parametrize("n,m", STENCIL_SHAPES)
    def test_alternated_from_saint_venant(self, n, m):
        rng = random.Random(f"asv:{n}:{m}")
        keys = list(all_canonical_tuples(n, m))
        generic = BiSymTensor(n, m, m, {
            (ikey, jkey): PolyGauss(random_polynomial(n, 1, rng))
            for ikey in keys for jkey in keys}, zero=PolyGauss.zero(n))
        image = saint_venant(random_field(n, m, 1, f"asv:{n}:{m}"))
        for wf in (generic, image):
            _assert_compact_form_of(alternated_from_saint_venant(wf),
                                    _reference_alternated_from_saint_venant(wf))


class TestInnerDerivative:
    def test_gradient_case(self):
        phi = scalar_field(2, seed=1)
        d = inner_derivative(phi)
        g = phi.get(())
        assert d.get((1,)) == g.derive(1)
        assert d.get((2,)) == g.derive(2)

    def test_second_iterate_is_hessian(self):
        phi = scalar_field(2, seed=2)
        dd = inner_derivative(inner_derivative(phi))
        g = phi.get(())
        for i, j in itertools.product((1, 2), repeat=2):
            assert dd.get((i, j)) == g.derive(i).derive(j)

    def test_linearity(self):
        u = random_field(2, 1, 2, 3)
        v = random_field(2, 1, 2, 4)
        lhs = inner_derivative(u + v)
        assert lhs == inner_derivative(u) + inner_derivative(v)

    def test_iterate_d(self):
        v = random_field(2, 1, 1, 5)
        assert iterate_d(v, 0) == v
        assert iterate_d(v, 1) == inner_derivative(v)
        assert iterate_d(v, 2) == inner_derivative(inner_derivative(v))

    def test_negative_times_rejected(self):
        with pytest.raises(ValueError):
            iterate_d(random_field(2, 1, 1, 5), -1)


class TestSaintVenant:
    def test_rank_one_formula(self):
        f = random_field(2, 1, 2, 7)
        w = saint_venant(f)
        for i, j in itertools.product((1, 2), repeat=2):
            direct = f.get((i,)).derive(j) - f.get((j,)).derive(i)
            assert w.get((i,), (j,)) == direct

    def test_rank_one_concrete_component(self):
        # f = (x2 * exp(-|x|^2), 0): the 1,2 component is (1 - 2 x2^2) exp(-|x|^2)
        f = sym_field(2, 1, {(1,): PolyGauss(Polynomial(2, {(0, 1): Fraction(1)}))})
        w = saint_venant(f)
        expected = Polynomial(2, {(0, 0): Fraction(1), (0, 2): Fraction(-2)})
        assert w.get((1,), (2,)).poly == expected

    def test_gradient_annihilated(self):
        f = inner_derivative(scalar_field(2, seed=8))
        assert saint_venant(f).is_zero()

    def test_second_potential_annihilated(self):
        f = iterate_d(scalar_field(3, seed=9), 2)
        assert saint_venant(f).is_zero()

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            saint_venant(scalar_field(2))

    def test_linearity(self):
        a = random_field(2, 2, 1, 10)
        b = random_field(2, 2, 1, 11)
        assert saint_venant(a + b) == saint_venant(a) + saint_venant(b)


class TestGeneralizedSaintVenant:
    def test_order_zero_matches_saint_venant(self):
        for n, m in [(2, 1), (2, 2), (3, 2)]:
            f = random_field(n, m, 1, 20 + m)
            assert saint_venant(f) == _reference_generalized_saint_venant(f, 0)

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5),
                                     (3, 1), (3, 2), (3, 3), (4, 2)])
    def test_stencil_matches_reference_loop(self, n, m):
        f = random_field(n, m, 2, f"stencil:{n}:{m}")
        for k in range(m + 1):
            assert (generalized_saint_venant(f, k)
                    == _reference_generalized_saint_venant(f, k)), k

    def test_replaced_series_builds_fresh_stencil(self, monkeypatch):
        f = random_field(2, 2, 1, 24)
        before = generalized_saint_venant(f, 0)
        original = diffops._series_term

        def flipped(count, ell):
            value = original(count, ell)
            return -value if ell == 1 else value

        monkeypatch.setattr(diffops, "_series_term", flipped)
        assert generalized_saint_venant(f, 0) != before
        monkeypatch.setattr(diffops, "_series_term", original)
        assert generalized_saint_venant(f, 0) == before

    def test_top_order_is_identity(self):
        f = random_field(2, 2, 2, 21)
        w = generalized_saint_venant(f, 2)
        assert w.rank1 == 0 and w.rank2 == 2
        for key in all_canonical_tuples(2, 2):
            assert w.get((), key) == f.get(key)

    def test_rank_zero_identity(self):
        f = scalar_field(2, seed=22)
        w = generalized_saint_venant(f, 0)
        assert w.get((), ()) == f.get(())

    def test_order_out_of_range(self):
        f = random_field(2, 2, 1, 23)
        with pytest.raises(ValueError):
            generalized_saint_venant(f, 3)
        with pytest.raises(ValueError):
            generalized_saint_venant(f, -1)

    @pytest.mark.parametrize("n", [2, 3])
    def test_potential_kernel_small(self, n):
        for m in range(1, 4):
            for k in range(m):
                _, f = generate_potential(n, m, k, 2, seed=f"kernel:{n}:{m}:{k}")
                assert generalized_saint_venant(f, k).is_zero(), (n, m, k)

    @pytest.mark.parametrize("n,m", [(2, 4), (3, 4), (4, 2), (4, 3), (4, 4)])
    def test_potential_kernel_wide_ranges(self, n, m):
        # widest configurations; sparse low-degree generators keep them quick
        for k in range(m):
            v = sparse_field(n, m - k - 1, seed=100 + 10 * n + k)
            f = iterate_d(v, k + 1)
            assert generalized_saint_venant(f, k).is_zero(), (n, m, k)

    def test_linearity(self):
        a = random_field(2, 2, 1, 30)
        b = random_field(2, 2, 1, 31)
        assert (generalized_saint_venant(a + b, 1)
                == generalized_saint_venant(a, 1) + generalized_saint_venant(b, 1))

    def test_differential_order_trace(self, monkeypatch):
        # every component request must carry exactly m-k derivative indices
        f = random_field(2, 3, 1, 33)
        seen = []
        original = diffops._component_derivative

        def tracing(field, comp, derivs):
            seen.append(len(tuple(derivs)))
            return original(field, comp, derivs)

        monkeypatch.setattr(diffops, "_component_derivative", tracing)
        for k in range(4):
            seen.clear()
            generalized_saint_venant(f, k)
            assert set(seen) == {3 - k}
        seen.clear()
        inner_derivative(f)
        assert set(seen) == {1}
        seen.clear()
        alternated_derivative(f)
        assert set(seen) == {3}


def _series_variants(mk):
    """The series; per term ell a sign flip and a doubling; a 1/3 on the last term."""
    original = diffops._series_term

    def scaled(ell, factor):
        def series(count, e):
            value = original(count, e)
            return factor * value if e == ell else value
        return series

    yield original
    for ell in range(mk + 1):
        yield scaled(ell, -1)
        yield scaled(ell, 2)
    yield scaled(mk, Fraction(1, 3))


def _row_maps(rows):
    """A stencil as ``{key: {jet: Fraction}}`` and as ``{key: (row_den, {jet: int})}``."""
    fractions = {key: {jet: Fraction(weight, row_den) for jet, weight in entries}
                 for key, row_den, entries in rows}
    ints = {key: (row_den, dict(entries)) for key, row_den, entries in rows}
    return fractions, ints


class TestStencilRows:
    """The multiset-count stencil against the position-split Fraction build."""

    @pytest.mark.parametrize("n,m", [(n, m) for n in range(1, 5) for m in range(6)
                                     if (n, m) != (4, 5)])
    def test_matches_position_split_reference(self, n, m):
        for k in range(m + 1):
            tally = _position_tally(n, m, k)
            for index, series in enumerate(_series_variants(m - k)):
                got = diffops._stencil(n, m, k, series)
                expected = _reference_stencil(n, m, k, series, tally)
                assert [row[0] for row in got] == [row[0] for row in expected]
                assert _row_maps(got) == _row_maps(expected), (k, index)


class TestAlternatedDerivative:
    def test_rank_one_formula(self):
        f = random_field(2, 1, 2, 40)
        r = alternated_derivative(f)
        for i, j in itertools.product((1, 2), repeat=2):
            expected = (f.get((i,)).derive(j) - f.get((j,)).derive(i)) * Fraction(1, 2)
            assert _pair_read(r, (i, j)) == expected

    def test_pair_antisymmetry(self):
        f = random_field(3, 2, 1, 41)
        r = alternated_derivative(f)
        assert len(r.components) == 6  # every pair multiset, none of them zero
        for idx in itertools.product((1, 2, 3), repeat=4):
            swapped = (idx[1], idx[0]) + idx[2:]
            assert _pair_read(r, idx) == _pair_read(r, swapped) * Fraction(-1)
            assert _pair_read(r, idx) == _pair_read(r, idx[2:] + idx[:2])

    def test_potential_annihilated(self):
        f = inner_derivative(scalar_field(2, seed=42))
        assert alternated_derivative(f).is_zero()

    def test_linearity(self):
        a = random_field(2, 2, 1, 43)
        b = random_field(2, 2, 1, 44)
        assert alternated_derivative(a + b) == \
            alternated_derivative(a) + alternated_derivative(b)

    def test_rank_zero_rejected(self):
        with pytest.raises(ValueError):
            alternated_derivative(scalar_field(2))

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 3), (3, 2), (3, 3), (4, 2), (2, 4)])
    def test_fixed_address_matches_restricted_tensor(self, n, m):
        # every depth from no fixed index up to m - 1 of them
        f = random_field(n, m, 2, f"altfixed:{n}:{m}")
        rng = random.Random(f"altfixed:{n}:{m}")
        for depth in range(m):
            fixed = tuple(rng.randint(1, n) for _ in range(depth))
            got = alternated_derivative(f, fixed)
            expected = alternated_derivative(restrict(f, fixed))
            assert got.rank == expected.rank == 2 * (m - depth)
            keys = [diffops._pair_key(pairs)[0]
                    for pairs in diffops._pair_multisets(n, m - depth)]
            assert set(expected.components) <= set(keys)
            for key in keys:
                assert got.get(key) == expected.get(key), (fixed, key)
            assert got == expected

    def test_fixed_address_reads_the_fields_own_jet(self):
        f = random_field(3, 3, 1, "altjet")
        alternated_derivative(f, (2,))
        # every entry read is a component of f at 2 + (i, j), derived at
        # most twice (the first derivative is the memoized prefix)
        assert f.jet and all(len(comp) == 3 and 2 in comp and len(derivs) <= 2
                             for comp, derivs in f.jet)
        assert any(len(derivs) == 2 for _, derivs in f.jet)

    @pytest.mark.parametrize("fixed", [(1, 2), (2, 2, 1), (0,), (3,), (1, 3), (True,)])
    def test_fixed_address_rejected(self, fixed):
        # as many fixed indices as the rank, or more, or an index out of range
        f = random_field(2, 2, 1, 45)
        with pytest.raises(ValueError):
            alternated_derivative(f, fixed)


class TestConversions:
    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2), (2, 3)])
    def test_equivalence_and_roundtrip(self, n, m):
        f = random_field(n, m, 1, 50 + n + m)
        r = alternated_derivative(f)
        w = saint_venant_from_alternated(r)
        assert (w - saint_venant(f)).is_zero()
        assert (alternated_from_saint_venant(w) - r).is_zero()

    def test_zero_in_zero_out(self):
        zero = sym_field(2, 2, {})
        r = alternated_derivative(zero)
        assert r.is_zero()
        assert saint_venant_from_alternated(r).is_zero()

    def test_shape_mismatch(self):
        odd = RawTensor(2, 3, {}, zero=PolyGauss.zero(2))
        with pytest.raises(ValueError):
            saint_venant_from_alternated(odd)
        one = PolyGauss(Polynomial(2, {(0, 0): Fraction(1)}))
        # keys of the raw layout that are no pair multiset: a turned pair, a pair i == i
        for key in ((2, 1, 1, 2), (1, 1, 1, 2), (1, 2, 2, 1)):
            raw = RawTensor(2, 4, {key: one}, zero=PolyGauss.zero(2))
            with pytest.raises(ValueError):
                saint_venant_from_alternated(raw)
        uneven = BiSymTensor(2, 2, 1, {}, zero=PolyGauss.zero(2))
        with pytest.raises(ValueError):
            alternated_from_saint_venant(uneven)


def _reference_restriction_relation(f, k, fixed_of=lambda ikey: ikey):
    """The restriction relation by a hand loop over rearrangements.

    The restriction at ``ikey`` is the tensor ``restrict(f, fixed_of(ikey))``,
    so a fault in the fixed indices can be passed in here and into the
    operator's address alike.
    """
    m = f.rank
    mk = m - k
    wk = generalized_saint_venant(f, k)
    w_of_restriction = {ikey: saint_venant(restrict(f, fixed_of(ikey)))
                        for ikey in all_canonical_tuples(f.n, k)}
    best = Fraction(0)
    for pkey in all_canonical_tuples(f.n, mk):
        for ckey in all_canonical_tuples(f.n, m):
            rearr = distinct_rearrangements(ckey)
            acc = f.zero
            for perm in rearr:
                acc = acc + w_of_restriction[canonical(perm[mk:])].get(pkey, perm[:mk])
            diff = wk.get(pkey, ckey) - acc * Fraction(1, len(rearr))
            best = max(best, diff.poly.max_abs_coefficient())
    return best


class TestRestrictionRelation:
    @pytest.mark.parametrize("n,m", [(2, 2), (2, 3), (3, 2), (3, 3)])
    def test_exact_for_all_orders(self, n, m):
        f = random_field(n, m, 1, 60 + n + m)
        for k in range(m):
            assert restriction_relation_residual(f, k) == 0, (n, m, k)

    def test_restriction_slot_choice_immaterial(self):
        # fixing leading slots equals looking up concatenated index tuples
        f = random_field(3, 3, 1, 61)
        g = restrict(f, (2, 3))
        for j in (1, 2, 3):
            assert g.get((j,)) == f.get((2, 3, j))
            assert g.get((j,)) == f.get((j, 3, 2))

    def test_out_of_range(self):
        f = random_field(2, 2, 1, 62)
        with pytest.raises(ValueError):
            restriction_relation_residual(f, 2)

    @pytest.mark.parametrize("n,m,k,seed,expected", [
        (2, 2, 1, "rr221", Fraction(33, 2)),
        (3, 3, 1, "rr331", Fraction(208, 3)),
        (2, 3, 2, "rr232", Fraction(40, 3)),
    ])
    def test_wrong_restriction_matches_reference(self, monkeypatch, n, m, k, seed,
                                                 expected):
        # a restriction at indices shifted mod n breaks the relation, and the
        # stencil residual must break it exactly as the hand loop does
        f = random_field(n, m, 2, seed)

        def shifted(ikey):
            return tuple(i % n + 1 for i in ikey)

        original = diffops.alternated_derivative
        monkeypatch.setattr(diffops, "alternated_derivative",
                            lambda g, fixed=(): original(g, shifted(fixed)))
        assert restriction_relation_residual(f, k) == expected
        assert _reference_restriction_relation(f, k, shifted) == expected


class TestZeroCertificate:
    def test_zero_flag_matches_empty_polynomials(self):
        zero = sym_field(2, 1, {})
        assert zero.is_zero() and field_scale_report(zero) == 0
        f = sym_field(2, 1, {(1,): PolyGauss(Polynomial(2, {(0, 0): Fraction(-3)}))})
        assert not f.is_zero() and field_scale_report(f) == Fraction(3)


def _reference_apply(n, rows, fetch):
    """Stencil rows applied in plain Fraction arithmetic, the oracle for _apply."""
    data = {}
    for key, row_den, entries in rows:
        acc = Polynomial.zero(n)
        for source, weight in entries:
            acc = acc + fetch(source).poly * Fraction(weight, row_den)
        data[key] = acc
    return data


# source denominators 1, 2, 3, 4, 6 and 2^m for m = 3, 4
_SOURCE_DENS = (1, 2, 3, 4, 6, 8, 16)


@st.composite
def _rows_and_sources(draw):
    """Random stencil rows over sources with mixed denominators.

    Source ``-1`` is the negation of source 0; the first row reads both with
    one weight, so every coefficient of source 0 cancels in it, and the
    second row adds a third source on top of that pair.
    """
    monomials = st.tuples(st.integers(0, 2), st.integers(0, 2))
    sources = {}
    for name in range(draw(st.integers(2, 5))):
        den = draw(st.sampled_from(_SOURCE_DENS))
        nums = draw(st.dictionaries(monomials, st.integers(-6, 6), max_size=5))
        sources[name] = PolyGauss(Polynomial(
            2, {exps: Fraction(num, den) for exps, num in nums.items()}))
    sources[-1] = -sources[0]
    weights = st.integers(-5, 5)
    entry = st.tuples(st.sampled_from(sorted(sources)), weights)
    w = draw(weights)
    rows = [("cancel", draw(st.sampled_from((1, 2, 8))), ((0, w), (-1, w))),
            ("partial", draw(st.integers(1, 12)), ((0, w), (1, draw(weights)), (-1, w)))]
    for index in range(draw(st.integers(0, 4))):
        row_den = draw(st.sampled_from((1, 2, 3, 4, 5, 6, 8, 12, 16)))
        rows.append((index, row_den, tuple(draw(st.lists(entry, max_size=6)))))
    return rows, sources


class TestIntegerStencilKernel:
    """The int-numerator apply loop and the rows that feed it."""

    @given(_rows_and_sources())
    @settings(max_examples=150, deadline=None)
    def test_apply_matches_fraction_reference(self, case):
        rows, sources = case
        got = diffops._apply(2, rows, sources.__getitem__)
        expected = _reference_apply(2, rows, sources.__getitem__)
        # a row with no entries or a zero sum gives no component
        assert got.keys() == {key for key, value in expected.items() if value}
        for key, value in got.items():
            assert value.poly.terms == expected[key].terms, key
            assert all(value.poly.terms.values()), key
        assert "cancel" not in got

    def test_rescale_path_keeps_earlier_sums(self):
        # den 2, then den 3: the running sum over 2 is rescaled to 6
        half = PolyGauss(Polynomial(1, {(0,): Fraction(1, 2), (1,): Fraction(1, 2)}))
        third = PolyGauss(Polynomial(1, {(0,): Fraction(1, 3), (2,): Fraction(-1, 3)}))
        rows = [("k", 5, (("h", 1), ("t", -3)))]
        out = diffops._apply(1, rows, {"h": half, "t": third}.__getitem__)["k"]
        assert out.poly.terms == {(0,): Fraction(-1, 10), (1,): Fraction(1, 10),
                                  (2,): Fraction(1, 5)}

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2), (3, 3), (4, 4)])
    def test_cached_rows_are_ints_over_a_row_denominator(self, n, m):
        stencils = [diffops._d_stencil(n, m), diffops._alternation_stencil(n, m),
                    diffops._pair_symmetrization_stencil(n, m)]
        stencils += [diffops._stencil(n, m, k, diffops._series_term) for k in range(m + 1)]
        for rows in stencils:
            for key, row_den, entries in rows:
                assert type(row_den) is int and row_den > 0, key
                for _, weight in entries:
                    assert type(weight) is int and weight, key
        for k in range(m + 1):
            for key, row_den, entries in diffops._stencil(n, m, k, diffops._series_term):
                assert math.gcd(row_den, *(weight for _, weight in entries)) == 1, key
        for _, row_den, _ in diffops._alternation_stencil(n, m):
            assert row_den == 2 ** m
        assert len(diffops._alternation_stencil(n, m)) == math.comb(math.comb(n, 2) + m - 1, m)

    def test_integer_view_of_a_polynomial(self):
        p = Polynomial(2, {(0, 0): Fraction(1, 6), (1, 0): Fraction(-3, 4),
                           (0, 1): Fraction(2)})
        assert p.den == 12
        assert list(p.nums.items()) == [((0, 0), 2), ((1, 0), -9), ((0, 1), 24)]
        zero = Polynomial.zero(2)
        assert (zero.den, zero.nums) == (1, {})


class TestDeriveOnePass:
    @given(st.integers(1, 3), st.integers(0, 4), st.integers())
    @settings(max_examples=60, deadline=None)
    def test_derive_is_gradient_minus_twice_coordinate_times_poly(self, n, degree, seed):
        poly = random_polynomial(n, degree, random.Random(seed))
        for i in range(1, n + 1):
            coordinate = Polynomial(n, {tuple(int(j == i) for j in range(1, n + 1)): 1})
            expected = poly.partial(i) + coordinate * poly * -2
            got = PolyGauss(poly).derive(i).poly
            assert got == expected
            # same terms in the same order, so float sums over them agree too
            assert list(got.terms) == list(expected.terms)

