import itertools
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from raymoments import (
    BiSymTensor,
    PolyGauss,
    Polynomial,
    RawTensor,
    SymTensor,
    all_canonical_tuples,
    alternate,
    canonical,
    random_field,
    restrict,
    symmetrize,
    tuple_multiplicity,
)
import raymoments.symtensor as symtensor
from raymoments.polygauss import random_polynomial
from raymoments.symtensor import _row, distinct_rearrangements
from conftest import brute_symmetrize, random_raw


def frac_raw(n, rank, seed):
    return random_raw(n, rank, random.Random(seed))


class TestCanonicalStorage:
    def test_lookup_any_permutation(self):
        t = SymTensor(3, 2, {(2, 1): Fraction(5)})
        assert t.get((1, 2)) == Fraction(5)
        assert t.get((2, 1)) == Fraction(5)

    def test_missing_is_zero(self):
        t = SymTensor(3, 2)
        assert t.get((1, 3)) == Fraction(0)

    def test_duplicate_canonical_key_rejected(self):
        with pytest.raises(ValueError):
            SymTensor(2, 2, {(1, 2): Fraction(1), (2, 1): Fraction(2)})

    def test_out_of_range_index(self):
        with pytest.raises(ValueError):
            SymTensor(2, 1, {(3,): Fraction(1)})
        t = SymTensor(2, 1, {(1,): Fraction(1)})
        with pytest.raises(ValueError):
            t.get((0,))

    def test_row_merges_in_first_seen_order_over_a_reduced_denominator(self):
        assert _row([("b", 2), ("a", 4), ("b", 4), ("c", -4), ("c", 4)], 12) == (
            6, (("b", 3), ("a", 2)))
        assert _row([("a", 3), ("a", -3)], 5) == _row([], 7) == (1, ())
        assert _row([("a", -4)], 6) == (3, (("a", -2),))

    @given(st.integers(2, 4), st.integers(0, 3), st.integers())
    @settings(max_examples=40, deadline=None)
    def test_storage_roundtrip_over_permutations(self, n, rank, seed):
        rng = random.Random(seed)
        key = tuple(rng.randint(1, n) for _ in range(rank))
        value = Fraction(rng.randint(-20, 20), rng.randint(1, 7))
        t = SymTensor(n, rank, {key: value})
        for perm in itertools.permutations(key):
            assert t.get(perm) == value

    def test_key_count_bound(self):
        for n, rank in [(2, 3), (3, 2), (4, 4)]:
            t = SymTensor(n, rank,
                          {key: Fraction(1) for key in all_canonical_tuples(n, rank)})
            assert len(t.components) == math.comb(n + rank - 1, rank)

    def test_distinct_rearrangements_match_the_permutation_set(self):
        # every key up to length 6 over at most 4 letters, in any order
        for length in range(7):
            for key in itertools.product(range(1, 5), repeat=length):
                assert distinct_rearrangements(key) == sorted(set(itertools.permutations(key)))

    def test_distinct_rearrangements_of_a_long_two_letter_key(self):
        # each of the C(16, 8) orderings once, without walking the 16! permutations
        arrs = distinct_rearrangements((2, 1) * 8)
        assert len(arrs) == len(set(arrs)) == math.comb(16, 8) == 12870
        assert arrs == sorted(arrs) and all(sorted(a) == [1] * 8 + [2] * 8 for a in arrs)

    def test_bisym_groups_independent(self):
        t = BiSymTensor(2, 2, 1, {((1, 2), (2,)): Fraction(3)})
        assert t.get((2, 1), (2,)) == Fraction(3)
        # no symmetry across groups: ((2,), (1,2)) is a different shape entirely
        with pytest.raises(ValueError):
            t.get((2,), (1, 2))


class TestTensorKinds:
    """The three kinds share one container; kind and shape still separate them."""

    def kinds(self):
        return [SymTensor(2, 1, {(1,): Fraction(1)}),
                RawTensor(2, 1, {(1,): Fraction(1)}),
                BiSymTensor(2, 1, 0, {((1,), ()): Fraction(1)})]

    def test_adding_different_kinds_raises_type_error(self):
        for a, b in itertools.permutations(self.kinds(), 2):
            with pytest.raises(TypeError):
                a + b
            with pytest.raises(TypeError):
                a - b
        with pytest.raises(TypeError):
            self.kinds()[0] - 1

    def test_subtraction_is_addition_of_the_negation(self):
        a = SymTensor(2, 1, {(1,): Fraction(1, 2), (2,): Fraction(3)})
        b = SymTensor(2, 1, {(1,): Fraction(1, 2), (2,): Fraction(1)})
        assert (a - b).items() == (a + b * -1).items() == [((2,), Fraction(2))]
        assert (b - a).items() == [((2,), Fraction(-2))]
        floats = RawTensor(2, 1, {(1,): 0.25}, zero=0.0)
        assert (floats - RawTensor(2, 1, zero=0.0)).items() == [((1,), 0.25)]
        assert (RawTensor(2, 1, zero=0.0) - floats).items() == [((1,), -0.25)]

    def test_only_components_that_differ_are_subtracted(self):
        zero = PolyGauss.zero(2)
        f = random_field(2, 2, 2, 5)
        assert len(f.components) == 3 and (f - f).components == {}
        # equal numerators over another denominator are another polynomial:
        # 1/2 - 1/3 of the same tuple leaves it over 6
        nums = [1, -2, 0, 3]
        a, b = (SymTensor(2, 1, {(1,): PolyGauss(Polynomial._from_ints(2, den, nums)),
                                 (2,): f.get((1, 2))}, zero) for den in (2, 3))
        assert a.get((1,)).poly.vec == b.get((1,)).poly.vec
        assert (a - b).components == {(1,): PolyGauss(Polynomial._from_ints(2, 6, nums))}
        # Fractions: one component equal, one different, one on each side only
        x = RawTensor(2, 2, {(1, 1): Fraction(1, 2), (1, 2): Fraction(-3),
                             (2, 1): Fraction(2, 3)})
        y = RawTensor(2, 2, {(1, 1): Fraction(1, 2), (1, 2): Fraction(-3, 4),
                             (2, 2): Fraction(5, 7)})
        assert (x - y).items() == [((1, 2), Fraction(-9, 4)), ((2, 1), Fraction(2, 3)),
                                   ((2, 2), Fraction(-5, 7))]

    def test_different_kinds_are_never_equal(self):
        for a, b in itertools.permutations(self.kinds(), 2):
            assert a != b
        for a, b in zip(self.kinds(), self.kinds()):
            assert a == b

    def test_rank_or_dimension_mismatch_raises_value_error(self):
        pairs = [(SymTensor(2, 1), SymTensor(2, 2)),
                 (SymTensor(2, 1), SymTensor(3, 1)),
                 (RawTensor(2, 2), RawTensor(2, 3)),
                 (BiSymTensor(2, 1, 2), BiSymTensor(2, 2, 1))]
        for a, b in pairs:
            with pytest.raises(ValueError):
                a + b
            with pytest.raises(ValueError):
                a - b

    def test_arithmetic_keeps_kind_and_drops_zeros(self):
        for t in self.kinds():
            doubled = t + t
            assert type(doubled) is type(t) and doubled.shape == t.shape
            assert doubled == t * 2 == 2 * t
            assert (t - t).is_zero() and (t * 0).is_zero()
            assert (t * -1).items() == [(key, -v) for key, v in t.items()]


def _reference_symmetrize(t: RawTensor, positions) -> RawTensor:
    """Symmetrization with the average taken once per member of each orbit."""
    slots = [p - 1 for p in positions]

    def rearranged(idx):
        sub = tuple(idx[s] for s in slots)
        out = []
        for arr in distinct_rearrangements(sub):
            new = list(idx)
            for s, v in zip(slots, arr):
                new[s] = v
            out.append(tuple(new))
        return out

    orbit = set()
    for key in t.components:
        orbit.update(rearranged(key))
    data = {}
    for key in orbit:
        variants = rearranged(key)
        acc = t.get(variants[0])
        for var in variants[1:]:
            acc = acc + t.get(var)
        data[key] = acc * Fraction(1, len(variants))
    return RawTensor(t.n, t.rank, data, t.zero)


class TestSymmetrize:
    def test_two_permutation_average(self):
        t = RawTensor(2, 2, {(1, 2): Fraction(1)})
        s = symmetrize(t, (1, 2))
        assert s.get((1, 2)) == Fraction(1, 2)
        assert s.get((2, 1)) == Fraction(1, 2)

    def test_symmetric_fixed_point(self):
        t = RawTensor(2, 2, {(1, 2): Fraction(3), (2, 1): Fraction(3),
                             (1, 1): Fraction(7)})
        assert symmetrize(t, (1, 2)) == t

    def test_partial_group_leaves_other_positions(self):
        t = RawTensor(2, 3, {(1, 2, 2): Fraction(1)})
        s = symmetrize(t, (1, 2))
        assert s.get((1, 2, 2)) == Fraction(1, 2)
        assert s.get((2, 1, 2)) == Fraction(1, 2)
        assert s.get((2, 2, 1)) == Fraction(0)
        assert s.get((1, 2, 1)) == Fraction(0)

    def test_invalid_positions(self):
        t = RawTensor(2, 2, {(1, 1): Fraction(1)})
        with pytest.raises(ValueError):
            symmetrize(t, (1, 3))
        with pytest.raises(ValueError):
            symmetrize(t, (1, 1))
        with pytest.raises(ValueError):
            symmetrize(t, ())
        with pytest.raises(ValueError):
            symmetrize(t, (True, 2))

    @given(st.integers(2, 3), st.integers(2, 4), st.integers())
    @settings(max_examples=30, deadline=None)
    def test_projector_and_brute_force_oracle(self, n, rank, seed):
        t = frac_raw(n, rank, seed)
        group = tuple(range(1, rank + 1))
        s1 = symmetrize(t, group)
        assert s1 == brute_symmetrize(t, group)
        assert symmetrize(s1, group) == s1

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(), st.sampled_from([0.2, 0.6, 1.0]))
    @settings(max_examples=60, deadline=None)
    def test_one_average_per_orbit_matches_per_member_average(self, n, rank, seed, density):
        rng = random.Random(seed)
        t = RawTensor(n, rank, {idx: Fraction(rng.randint(-9, 9), rng.choice((1, 2, 3)))
                                for idx in itertools.product(range(1, n + 1), repeat=rank)
                                if rng.random() < density})
        for size in range(1, rank + 1):
            for group in itertools.combinations(range(1, rank + 1), size):
                got = symmetrize(t, group)
                assert got == _reference_symmetrize(t, group), group
                assert all(value != 0 for value in got.components.values())

    @given(st.integers(1, 3), st.integers(1, 4), st.integers(), st.sampled_from([0.3, 1.0]))
    @settings(max_examples=40, deadline=None)
    def test_int_orbit_sums_match_brute_force(self, n, rank, seed, density):
        # Fractions over mixed denominators, and orbits whose values cancel
        rng = random.Random(seed)
        data = {idx: Fraction(rng.randint(-9, 9) or 1, rng.choice((1, 2, 3, 7)))
                for idx in itertools.product(range(1, n + 1), repeat=rank)
                if rng.random() < density}
        for key in list(data)[::2]:
            swapped = key[::-1]
            if swapped != key and swapped not in data:
                data[swapped] = -data[key]  # at rank 2 their orbit sums to zero
        t = RawTensor(n, rank, data)
        for size in range(1, rank + 1):
            for group in itertools.combinations(range(1, rank + 1), size):
                got = symmetrize(t, group)
                assert got == brute_symmetrize(t, group), group
                assert all(type(v) is Fraction and v for v in got.components.values())

    def test_orbits_list_each_key_once(self):
        keys = list(itertools.product((1, 2, 3), repeat=3))
        for slots in ([0, 1, 2], [0, 2], [1]):
            orbits = list(symtensor._orbits(keys, slots))
            assert sorted(key for orbit in orbits for key in orbit) == keys, slots

    def test_cancelling_orbit_stores_nothing(self):
        t = RawTensor(3, 2, {(1, 2): Fraction(2, 7), (2, 1): Fraction(-2, 7),
                             (3, 3): Fraction(5, 3)})
        assert symmetrize(t, (1, 2)).components == {(3, 3): Fraction(5, 3)}

    def test_other_scalars_take_the_generic_path(self, monkeypatch):
        def refuse(values):
            raise AssertionError("summed in ints")

        rng = random.Random(55)
        ints = RawTensor(2, 3, {idx: rng.randint(-9, 9)
                                for idx in itertools.product((1, 2), repeat=3)}, 0)
        fields = RawTensor(2, 2, {idx: PolyGauss(random_polynomial(2, 2, rng))
                                  for idx in itertools.product((1, 2), repeat=2)},
                           PolyGauss.zero(2))
        mixed = RawTensor(2, 2, {(1, 2): Fraction(1, 3), (2, 1): 2, (1, 1): Fraction(5)})
        want = {id(t): [_reference_symmetrize(t, group) for group in ((1, 2), (1,))]
                for t in (ints, fields, mixed)}
        monkeypatch.setattr(symtensor, "_over_lcm", refuse)
        for t in (ints, fields, mixed):
            assert [symmetrize(t, group) for group in ((1, 2), (1,))] == want[id(t)]
        with pytest.raises(AssertionError, match="summed in ints"):
            symmetrize(frac_raw(2, 2, 56), (1, 2))

    def test_linearity(self):
        a = frac_raw(2, 3, 11)
        b = frac_raw(2, 3, 12)
        c = Fraction(3, 7)
        lhs = symmetrize(a * c + b, (1, 3))
        rhs = symmetrize(a, (1, 3)) * c + symmetrize(b, (1, 3))
        assert lhs == rhs

    def test_disjoint_groups_commute(self):
        t = frac_raw(2, 4, 21)
        one = symmetrize(symmetrize(t, (1, 2)), (3, 4))
        two = symmetrize(symmetrize(t, (3, 4)), (1, 2))
        assert one == two


class TestAlternate:
    def test_definition(self):
        t = RawTensor(2, 2, {(1, 2): Fraction(1)})
        a = alternate(t, (1, 2))
        assert a.get((1, 2)) == Fraction(1, 2)
        assert a.get((2, 1)) == Fraction(-1, 2)

    def test_annihilates_symmetric(self):
        t = frac_raw(3, 2, 5)
        s = symmetrize(t, (1, 2))
        assert alternate(s, (1, 2)).is_zero()

    def test_projector(self):
        t = frac_raw(2, 3, 9)
        once = alternate(t, (2, 3))
        assert alternate(once, (2, 3)) == once

    def test_equal_positions_rejected(self):
        t = RawTensor(2, 2, {(1, 2): Fraction(1)})
        with pytest.raises(ValueError):
            alternate(t, (2, 2))
        with pytest.raises(ValueError):
            alternate(t, (True, 2))

    def test_alternate_of_symmetrize_overlapping_pair(self):
        t = frac_raw(2, 3, 31)
        s = symmetrize(t, (1, 2, 3))
        assert alternate(s, (1, 3)).is_zero()


class TestRestrictContract:
    def test_restrict_definition(self):
        f = SymTensor(2, 2, {(1, 1): Fraction(2), (1, 2): Fraction(3),
                             (2, 2): Fraction(5)})
        g = restrict(f, (1,))
        assert g.rank == 1
        assert g.get((1,)) == Fraction(2)
        assert g.get((2,)) == Fraction(3)

    def test_restrict_empty_and_full(self):
        f = SymTensor(2, 2, {(1, 2): Fraction(3)})
        assert restrict(f, ()) == f
        full = restrict(f, (2, 1))
        assert full.rank == 0
        assert full.get(()) == Fraction(3)

    def test_restrict_too_deep(self):
        f = SymTensor(2, 1, {(1,): Fraction(1)})
        with pytest.raises(ValueError):
            restrict(f, (1, 1))

    def test_restrict_then_contract_matches_basis_contraction(self):
        rng = random.Random(77)
        f = SymTensor(3, 3, {key: Fraction(rng.randint(-9, 9))
                             for key in all_canonical_tuples(3, 3)})
        e2 = [Fraction(0), Fraction(1), Fraction(0)]
        # fixing index 2 equals contracting one slot with the basis vector e_2
        contracted = {key: sum(f.get((j,) + key) * e2[j - 1] for j in range(1, 4))
                      for key in all_canonical_tuples(3, 2)}
        assert restrict(f, (2,)) == SymTensor(3, 2, contracted)


class TestSymPart:
    def test_multiplicities(self):
        assert tuple_multiplicity((1, 1, 1)) == 1
        assert tuple_multiplicity((1, 1, 2)) == 3
        assert tuple_multiplicity((1, 2, 3)) == 6
