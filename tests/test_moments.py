import functools
import itertools
import math
import operator
import random
from fractions import Fraction

import pytest

from raymoments import (
    ExactValue,
    LineTable,
    MomentExpression,
    PhasePoint,
    PolyGauss,
    Polynomial,
    RawTensor,
    TSPoint,
    all_canonical_tuples,
    collapsed_derivative_residual,
    dx,
    dxi,
    extended_from_moments,
    extended_transform,
    inner_derivative,
    iterate_d,
    john,
    john_power_residual,
    line_moment,
    moment_stack,
    moment_transform,
    random_field,
    random_float_ts_point,
    random_phase_point,
    random_ts_point,
    rational_sqrt,
    rational_unit_vector,
    recover_restricted,
    restrict,
    restriction_contraction_residual,
    sym_field,
    symmetrization_split_residual,
    symmetrized_derivative_residual,
    tuple_multiplicity,
)
from raymoments import diffops, moments
from raymoments.diffops import _pair_key
from raymoments.moments import (
    _john_table,
    _transform_value,
    directional_x_derivative,
    directional_xi_derivative,
    value_diff,
)
from raymoments.polygauss import _jet, random_polynomial
from raymoments.symtensor import distinct_rearrangements
from conftest import (
    assert_same_table,
    count_fractions,
    quad_transform,
    random_raw,
    termwise_mass,
)

SQRT_PI = math.sqrt(math.pi)


def gaussian_scalar(n):
    return sym_field(n, 0, {(): PolyGauss(Polynomial(n, {(0,) * n: 1}))})


def field_partial(f, i):
    """The componentwise partial derivative of a field, read from its jet."""
    return sym_field(f.n, f.rank, {key: _jet(f, key, (i,)) for key in f.components})


# The Fraction samplers that the int samplers replaced, kept as their
# reference: the int draws must make the same rng calls in the same order
# and return the same points.

def _ref_rational_unit_vector(n, rng):
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


def _ref_random_rational_vector(n, rng):
    return [Fraction(rng.randint(-4, 4), rng.choice((2, 3, 4))) for _ in range(n)]


def _ref_random_ts_point(n, rng):
    u = _ref_rational_unit_vector(n, rng)
    x = None
    for _ in range(16):
        y = _ref_random_rational_vector(n, rng)
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


def _ref_random_phase_point(n, rng):
    u = _ref_rational_unit_vector(n, rng)
    lam = Fraction(rng.randint(2, 8), 4)
    xi = tuple(lam * v for v in u)
    for _ in range(64):
        x = _ref_random_rational_vector(n, rng)
        norm2 = sum(v * v for v in x)
        while norm2 > 4:
            x = [v / 2 for v in x]
            norm2 = sum(v * v for v in x)
        c = sum(a * b for a, b in zip(x, u))
        if norm2 <= Fraction(1, 100) or c * c <= Fraction(15, 16) * norm2:
            return PhasePoint(x, xi)
    return PhasePoint([Fraction(0)] * n, xi)


class TestPoints:
    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            PhasePoint([Fraction(1), Fraction(0)], [Fraction(0), Fraction(0)])
        with pytest.raises(ValueError):
            PhasePoint([0.0, 0.0], [0.0, 0.0])

    def test_ts_invariants_exact(self):
        with pytest.raises(ValueError):
            TSPoint([Fraction(0), Fraction(0)], [Fraction(2), Fraction(0)])
        with pytest.raises(ValueError):
            TSPoint([Fraction(1), Fraction(0)], [Fraction(1), Fraction(0)])
        pt = TSPoint([Fraction(0), Fraction(2)], [Fraction(1), Fraction(0)])
        assert pt.is_exact and pt.projection_residual == 0.0

    def test_ts_invariants_exact_from_ints(self):
        # the samplers' int constructor checks the same constraints
        with pytest.raises(ValueError):
            TSPoint._from_ints([0, 0], 1, [2, 0], 1)  # not unit
        with pytest.raises(ValueError):
            TSPoint._from_ints([1, 0], 1, [1, 0], 1)  # not orthogonal
        pt = TSPoint._from_ints([0, 4], 2, [3, 0], 3)
        assert (pt.x, pt.xi) == ((0, 2), (1, 0)) and pt.projection_residual == 0.0

    def test_ts_invariants_float(self):
        rng = random.Random(5)
        for _ in range(20):
            pt = random_float_ts_point(3, rng)
            assert not pt.is_exact
            assert pt.projection_residual <= 1e-12
        with pytest.raises(ValueError):
            TSPoint([0.5, 0.0], [1.0, 0.001])

    def test_rational_unit_vectors(self):
        rng = random.Random(6)
        for n in (2, 3, 4):
            for _ in range(25):
                u = rational_unit_vector(n, rng)
                assert sum(v * v for v in u) == 1

    def test_random_samplers_exact(self):
        rng = random.Random(7)
        for _ in range(10):
            ts = random_ts_point(3, rng)
            assert ts.is_exact
            pp = random_phase_point(3, rng)
            assert pp.is_exact
            s = pp.s
            assert Fraction(1, 4) <= s <= 4

    def test_projection(self):
        rng = random.Random(8)
        pp = random_phase_point(2, rng)
        ts = pp.project()
        assert ts.is_exact
        assert ts.c == 0 and ts.s == 1
        # float fallback
        pf = PhasePoint([0.3, 1.1], [1.0, 0.5])
        tsf = pf.project()
        assert tsf.projection_residual <= 1e-12



class TestIntDraws:
    """The samplers draw in ints the points the Fraction samplers drew."""

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_same_points_and_rng_state(self, n):
        for seed in range(200):
            rng, ref = random.Random(f"draws:{n}:{seed}"), random.Random(f"draws:{n}:{seed}")
            u = rational_unit_vector(n, rng)
            assert u == _ref_rational_unit_vector(n, ref) and rng.getstate() == ref.getstate()
            assert all(type(v) is Fraction for v in u)
            for draw, reference in ((random_ts_point, _ref_random_ts_point),
                                    (random_phase_point, _ref_random_phase_point)):
                got, want = draw(n, rng), reference(n, ref)
                assert rng.getstate() == ref.getstate()
                assert type(got) is type(want) and got.is_exact
                assert (got.x, got.xi) == (want.x, want.xi)
                assert all(type(v) is Fraction for v in got.x + got.xi)
                # the int-built table against the one built from the Fractions
                assert_same_table(got, want, random.Random(seed))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_projection_and_translate_in_ints(self, n):
        # each against the point built from its Fraction coordinates
        rng = random.Random(f"project:{n}")
        for seed in range(40):
            pt = random_phase_point(n, rng)
            ts = pt.project()
            mean = pt.mean
            lam = rational_sqrt(pt.s)
            want = TSPoint([a + mean * b for a, b in zip(pt.x, pt.xi)], [b / lam for b in pt.xi])
            assert type(ts) is TSPoint and (ts.x, ts.xi) == (want.x, want.xi)
            assert_same_table(ts, want, random.Random(seed))
            moved = pt._translated(3)
            want = PhasePoint([a + Fraction(1, 3) * b for a, b in zip(pt.x, pt.xi)], pt.xi)
            assert type(moved) is PhasePoint and (moved.x, moved.xi) == (want.x, want.xi)
            assert_same_table(moved, want, random.Random(seed))

    @pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
    def test_a_sampled_point_builds_its_coordinates_and_two_scalars(self, monkeypatch, n):
        # a point keeps its coordinates as ints: drawing and setting one up,
        # projecting it and translating it each build exactly two Fractions,
        # its exponent and the Fraction of its root (``root`` or
        # ``root_factor``; the other is a shared 1), and its 2n coordinate
        # Fractions are built only when x and xi are read
        rng = random.Random(f"count:{n}")
        for _ in range(20):
            for draw in (random_phase_point, random_ts_point):
                built, pt = count_fractions(monkeypatch, draw, n, rng)
                assert built == 2
                built, ts = count_fractions(monkeypatch, pt.project)
                assert built == 2 and type(ts) is TSPoint
                built, _ = count_fractions(monkeypatch, pt._translated, 3)
                assert built == 2
                built, x = count_fractions(monkeypatch, getattr, pt, "x")
                assert built == n and x == pt.x and x is not pt.x

class TestTransforms:
    def test_gaussian_zeroth_moment(self):
        f = gaussian_scalar(2)
        pt = TSPoint([Fraction(0), Fraction(3, 2)], [Fraction(1), Fraction(0)])
        value = moment_transform(f, 0, pt)
        assert value == ExactValue(Fraction(1), Fraction(1), Fraction(-9, 4))
        assert float(value) == pytest.approx(SQRT_PI * math.exp(-2.25), rel=1e-14)

    def test_gaussian_first_moment_vanishes(self):
        f = gaussian_scalar(2)
        pt = TSPoint([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)])
        assert moment_transform(f, 1, pt).is_zero

    def test_gradient_in_kernel_of_zeroth(self):
        rng = random.Random(9)
        phi = sym_field(2, 0, {(): PolyGauss(random_polynomial(2, 3, rng))})
        f = inner_derivative(phi)
        for _ in range(10):
            pt = random_ts_point(2, rng)
            assert moment_transform(f, 0, pt).is_zero

    def test_extended_equals_moment_on_lines(self):
        rng = random.Random(10)
        f = random_field(2, 1, 2, 44)
        pt = random_ts_point(2, rng)
        assert (extended_transform(f, 2, pt) - moment_transform(f, 2, pt)).is_zero

    def test_homogeneity(self):
        rng = random.Random(11)
        f = random_field(2, 2, 2, 45)
        pt = random_phase_point(2, rng)
        for q in (0, 1, 2):
            base = extended_transform(f, q, pt)
            for lam in (Fraction(2), Fraction(1, 3)):
                scaled_pt = PhasePoint(pt.x, [lam * v for v in pt.xi])
                lhs = extended_transform(f, q, scaled_pt)
                rhs = base.scaled(lam ** (2 - q - 1))
                assert (lhs - rhs).is_zero
                # independent float route for one side
                quad = quad_transform(f, q, scaled_pt.x, scaled_pt.xi)
                assert float(lhs) == pytest.approx(quad, abs=1e-12, rel=1e-9)

    def test_translation_invariance(self):
        rng = random.Random(12)
        f = random_field(3, 2, 2, 46)
        pt = random_phase_point(3, rng)
        s = Fraction(3, 7)
        moved = PhasePoint([a + s * b for a, b in zip(pt.x, pt.xi)], pt.xi)
        lhs = extended_transform(f, 0, moved)
        rhs = extended_transform(f, 0, pt)
        assert (lhs - rhs).is_zero

    def test_moment_stack(self):
        rng = random.Random(13)
        f = random_field(2, 1, 1, 47)
        pt = random_ts_point(2, rng)
        stack = moment_stack(f, 2, pt)
        assert len(stack) == 3
        assert (stack[0] - moment_transform(f, 0, pt)).is_zero
        single = moment_stack(f, 0, pt)
        assert len(single) == 1
        assert (single[0] - moment_transform(f, 0, pt)).is_zero

    def test_stack_of_potential_vanishes(self):
        phi = gaussian_scalar(2)
        f = iterate_d(phi, 2)
        rng = random.Random(14)
        for _ in range(5):
            pt = random_ts_point(2, rng)
            assert all(v.is_zero for v in moment_stack(f, 1, pt))

    def test_requires_line_point(self):
        f = gaussian_scalar(2)
        pp = PhasePoint([Fraction(0), Fraction(1)], [Fraction(2), Fraction(0)])
        with pytest.raises(TypeError):
            moment_transform(f, 0, pp)

    def test_dimension_mismatch(self):
        f = gaussian_scalar(3)
        pt = TSPoint([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)])
        with pytest.raises(ValueError):
            moment_transform(f, 0, pt)


class TestWeightedSum:
    """``ExactValue.sum``, the one weighted sum of transform values."""

    def test_exact_when_values_exact_and_weights_rational(self):
        a = ExactValue(Fraction(1, 3), Fraction(2), Fraction(-1))
        b = ExactValue(Fraction(2), Fraction(2), Fraction(-1))
        total = ExactValue.sum([(Fraction(3), a), (-1, b)])
        assert total == ExactValue(Fraction(-1), Fraction(2), Fraction(-1))

    def test_exact_and_float_values_do_not_mix(self):
        # a float point's values are exact too: they add up with no float
        a = ExactValue(Fraction(1, 3), Fraction(2), Fraction(-1))
        for op in (operator.add, operator.sub):
            with pytest.raises(TypeError):
                op(a, 0.5)
            with pytest.raises(TypeError):
                op(0.5, a)
        f = random_field(2, 2, 2, "mix")
        pt = random_float_ts_point(2, random.Random("mix"))
        values = [moment_transform(f, q, pt) for q in range(3)]
        assert all(isinstance(v, ExactValue) for v in values)
        total = ExactValue.sum(zip((1, -2, Fraction(1, 3)), values))
        assert total == self.pairwise(zip((1, -2, Fraction(1, 3)), values))

    def test_exact_value_with_a_float_weight_raises(self):
        a = ExactValue(Fraction(1, 3), Fraction(2), Fraction(-1))
        with pytest.raises(TypeError):
            a.scaled(0.5)
        with pytest.raises(TypeError):
            a * 0.5
        with pytest.raises(TypeError):
            0.5 * a

    def test_empty_sum_is_the_shared_zero(self):
        assert ExactValue.sum([]) is ExactValue.zero_value()
        assert ExactValue.sum(iter(()), 7) is ExactValue.zero_value()

    def test_every_point_takes_the_shared_exact_zero(self):
        f = sym_field(2, 1)
        for pt in (PhasePoint([0, 1], [1, 0]), PhasePoint([0.0, 1.0], [1.0, 0.0])):
            assert extended_transform(f, 0, pt) is ExactValue.zero_value()

    @staticmethod
    def pairwise(pairs):
        # the sum as ExactValue addition builds it, one scaled term at a time
        return functools.reduce(operator.add, (v.scaled(w) for w, v in pairs))

    @pytest.mark.parametrize("seed", range(6))
    def test_int_sum_matches_pairwise_addition(self, seed):
        rng = random.Random(f"intsum:{seed}")
        n = rng.randint(1, 3)
        pt = random_phase_point(n, rng) if n > 1 else PhasePoint(
            [Fraction(rng.randint(-4, 4), 3)], [Fraction(rng.randint(1, 5), 2)])
        zero = ExactValue.zero_value()
        values = [pt.integral(PolyGauss(random_polynomial(n, rng.randint(0, 4), rng)),
                              rng.randint(0, 3)) for _ in range(8)]
        assert len({(v.root, v.exponent) for v in values if not v.is_zero}) == 1
        for _ in range(20):
            pairs = [(rng.choice([0, 1, -2, Fraction(rng.randint(-9, 9), rng.randint(1, 7))]),
                      rng.choice(values + [zero])) for _ in range(rng.randint(1, 7))]
            total = ExactValue.sum(pairs)
            assert total == self.pairwise(pairs)
            assert isinstance(total, ExactValue) and isinstance(total.coef, Fraction)
            a, b = rng.choice(values + [zero]), rng.choice(values + [zero])
            assert value_diff(a, b) == moments.magnitude(a - b)

    @pytest.mark.parametrize("seed", range(4))
    def test_int_and_fraction_weights_agree(self, seed):
        rng = random.Random(f"weights:{seed}")
        pt = random_phase_point(2, rng)
        values = [pt.integral(PolyGauss(random_polynomial(2, rng.randint(0, 3), rng)),
                              rng.randint(0, 2)) for _ in range(6)] + [ExactValue.zero_value()]
        ints = [rng.randint(-9, 9) for _ in values]
        den = rng.randint(1, 12)
        fractions = [Fraction(w, den) for w in ints]
        # int weights over one int denominator, as the direction sums pass them
        by_ints = ExactValue.sum(zip(ints, values), den)
        assert by_ints == ExactValue.sum(zip(fractions, values))
        assert by_ints == self.pairwise(zip(fractions, values))
        assert by_ints.den > 0 and math.gcd(by_ints.num, by_ints.den) == 1
        for w, v in zip(ints, values):
            assert (ExactValue.sum([(w, v)]) == ExactValue.sum([(Fraction(w), v)])
                    == v.scaled(w) == v.scaled(Fraction(w)))
        # a Fraction weight that is an int in value, and mixed weights
        mixed = [(Fraction(w) if i % 2 else w, v) for i, (w, v) in enumerate(zip(ints, values))]
        assert ExactValue.sum(mixed) == self.pairwise(mixed)

    @pytest.mark.parametrize("n,rank", [(2, 1), (3, 2), (2, 3)])
    def test_direction_sums_weight_by_the_xi_numerators(self, n, rank):
        # an expression whose addresses carry xi-monomials of mixed degree
        rng = random.Random(f"direction:{n}:{rank}")
        f = random_field(n, rank, 2, f"direction:{n}:{rank}")

        def draw(length):
            return tuple(sorted(rng.randint(1, n) for _ in range(length)))

        # int weights over 3: the weights 1, -1, 2 and -1/3
        parts = [(rng.choice((3, -3, 6, -1)),
                  (rng.randint(0, 2), draw(rng.randint(0, rank)), draw(rng.randint(0, 2)),
                   draw(rng.randint(0, rank + 1)))) for _ in range(8)]
        e = MomentExpression(n, rank, ((a, w) for w, a in parts), 3)
        assert len(e.terms) >= 6 and len({len(mono) for (*_, mono), _ in e.terms}) > 1
        # an exact point: the Fraction sum of w / den * xi^mono * value
        pt = random_phase_point(n, rng)
        assert pt.xi_den > 1 or any(v.denominator > 1 for v in pt.x)
        assert e.evaluate(f, pt) == self.pairwise(
            (Fraction(w, e.den) * math.prod(pt.xi[a - 1] for a in mono),
             _transform_value(f, q, pt, F, D))
            for (q, F, D, mono), w in e.terms)
        # float points weight by the ints of their dyadic directions too, the
        # last with xi_den = 2**1049, a weight too large for a float
        tiny = PhasePoint([0.5] * n, [1.0] + [1e-300] * (n - 1))
        assert tiny.xi_den == 2 ** 1049
        for float_pt in (PhasePoint([float(v) for v in pt.x], [float(v) for v in pt.xi]),
                         tiny):
            assert e.evaluate(f, float_pt) == self.pairwise(
                (Fraction(w, e.den) * math.prod(float_pt.xi[a - 1] for a in mono),
                 _transform_value(f, q, float_pt, F, D))
                for (q, F, D, mono), w in e.terms)

    def test_zero_weights_and_zero_values_drop_out(self):
        a = ExactValue(Fraction(2, 3), Fraction(2), Fraction(-1, 2))
        zero = ExactValue.zero_value()
        # a zero term of another exponent or root is not compared
        other = ExactValue(Fraction(5), Fraction(3), Fraction(7))
        total = ExactValue.sum([(0, other), (Fraction(3), a), (Fraction(0), other), (1, zero)])
        assert total == ExactValue(Fraction(2), Fraction(2), Fraction(-1, 2))
        for pairs in ([(0, a)], [(1, zero), (Fraction(-1), zero)], [(1, a), (-1, a)]):
            total = ExactValue.sum(pairs)
            assert isinstance(total, ExactValue) and total.is_zero
            assert total == ExactValue.zero_value()

    def test_compatible_roots_sum_exactly(self):
        # sqrt(8) = 2 sqrt(2): the second term is brought to the first's root
        a = ExactValue(Fraction(1, 2), Fraction(2), Fraction(-1))
        b = ExactValue(Fraction(3), Fraction(8), Fraction(-1))
        total = ExactValue.sum([(2, a), (Fraction(1, 3), b)])
        assert total == ExactValue(Fraction(3), Fraction(2), Fraction(-1))
        assert total == self.pairwise([(2, a), (Fraction(1, 3), b)])
        # first term's root: 3 sqrt(8) - 2 sqrt(2) = 2 sqrt(8)
        assert ExactValue.sum([(1, b), (-4, a)]) == ExactValue(Fraction(2), Fraction(8),
                                                                Fraction(-1))
        assert value_diff(b, a.scaled(12)) == 0.0 < value_diff(b, a.scaled(6))

    def test_incompatible_root_or_other_exponent_raises(self):
        a = ExactValue(Fraction(1, 2), Fraction(2), Fraction(-1))
        for b in (ExactValue(Fraction(1), Fraction(3), Fraction(-1)),
                  ExactValue(Fraction(1), Fraction(2), Fraction(-2))):
            with pytest.raises(ArithmeticError):
                ExactValue.sum([(1, a), (1, b)])
            with pytest.raises(ArithmeticError):
                ExactValue.sum([(0, b), (1, b), (Fraction(2, 3), a)])
            with pytest.raises(ArithmeticError):
                value_diff(a, b)


class TestContractedTransform:
    """A datum is contracted first and integrated once."""

    @staticmethod
    def per_component(f, q, pt, fixed, derivs):
        # every jet entry integrated on its own, on a table of its own
        total = ExactValue.zero_value()
        for key in all_canonical_tuples(f.n, f.rank - len(fixed)):
            weight = tuple_multiplicity(key) * math.prod(pt.xi[j - 1] for j in key)
            comp = _jet(f, tuple(fixed) + key, derivs)
            total = total + line_moment(comp, q, LineTable(pt.x, pt.xi)).scaled(weight)
        return total

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 3), (3, 2)])
    def test_matches_per_component_integrals(self, n, m):
        rng = random.Random(f"contract:{n}:{m}")
        f = random_field(n, m, 2, f"contract:{n}:{m}")
        points = [random_phase_point(n, rng) for _ in range(2)]
        # directions with a zero component: those weights drop out
        third = Fraction(1, 3)
        points.append(PhasePoint([third] * n, [Fraction(0)] + [Fraction(3, 4)] * (n - 1)))
        points.append(PhasePoint([-third] * n, [Fraction(2, 5)] * (n - 1) + [Fraction(0)]))
        for pt in points:
            for r in range(m + 1):
                fixed = tuple(rng.randint(1, n) for _ in range(r))
                for derivs in [(), (rng.randint(1, n),),
                               (rng.randint(1, n), rng.randint(1, n))]:
                    for q in range(3):
                        value = _transform_value(f, q, pt, fixed, derivs)
                        assert value == self.per_component(f, q, pt, fixed, derivs), \
                            (pt, fixed, derivs, q)
            assert any(g for _, g in pt.contracted.values())

    def test_zero_field_takes_no_integral(self):
        f = sym_field(3, 2)
        pt = random_phase_point(3, random.Random(39))
        for fixed, derivs in [((), ()), ((2,), (1,)), ((1, 3), (2, 2))]:
            assert _transform_value(f, 1, pt, fixed, derivs) is ExactValue.zero_value()
        assert pt.integrals == {}

    def test_equal_polynomials_share_one_integral(self, monkeypatch):
        calls = []
        original = moments.line_moment

        def counting(g, q, table):
            calls.append(q)
            return original(g, q, table)

        monkeypatch.setattr(moments, "line_moment", counting)
        pt = random_phase_point(2, random.Random(40))
        a = PolyGauss(random_polynomial(2, 3, random.Random(41)))
        b = PolyGauss(random_polynomial(2, 3, random.Random(41)))
        assert a is not b and a.poly.nums is not b.poly.nums and a == b
        first = pt.integral(a, 1)
        assert pt.integral(b, 1) is first
        assert calls == [1]
        pt.integral(b, 2)
        assert calls == [1, 2]
        assert first == line_moment(a, 1, LineTable(pt.x, pt.xi))


def float_route(f, q, pt, fixed, derivs):
    """A transform datum by the per-component float route, kept as a reference.

    Every jet entry is integrated on its own float line, weighted by the
    float product of xi over its key, and the values are summed by fsum.
    """
    x, xi = [float(v) for v in pt.x], [float(v) for v in pt.xi]
    values = []
    for key in all_canonical_tuples(f.n, f.rank - len(fixed)):
        weight = tuple_multiplicity(key) * math.prod(xi[j - 1] for j in key)
        comp = _jet(f, tuple(fixed) + key, derivs)
        if weight and comp:
            values.append(weight * float(line_moment(comp, q, LineTable(x, xi))))
    return math.fsum(values)


def datum_scale(f, q, pt, fixed, derivs, masses):
    """The termwise scale of a datum: |weight| times ``termwise_mass`` of each jet entry.

    ``masses`` keeps the quadrature mass of each monomial at the point.
    """
    x, xi = [float(v) for v in pt.x], [float(v) for v in pt.xi]
    total = 0.0
    for key in all_canonical_tuples(f.n, f.rank - len(fixed)):
        weight = tuple_multiplicity(key) * math.prod(xi[j - 1] for j in key)
        for e, coef in _jet(f, tuple(fixed) + key, derivs).poly.terms.items():
            if (e, q) not in masses:
                masses[e, q] = termwise_mass(PolyGauss(Polynomial(f.n, {e: 1})), q, x, xi)
            total += abs(weight * coef) * masses[e, q]
    return total


class TestFloatRoute:
    """A float point takes the exact point's route: contract in ints, integrate once.

    Each datum is the exact datum on the same dyadic line, and its float
    within 1e-12 of the termwise scale of the per-component float route
    (``float_route``).  Sums of data are exact sums too.
    """

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 3), (3, 2)])
    def test_matches_per_component_route_and_exact_value(self, n, m):
        rng = random.Random(f"float:{n}:{m}")
        f = random_field(n, m, 3, f"float:{n}:{m}")
        points = [random_float_ts_point(n, rng), random_float_ts_point(n, rng),
                  PhasePoint([rng.gauss(0.0, 0.7) for _ in range(n)],
                             [rng.gauss(0.0, 1.0) for _ in range(n)]),
                  # xi_den is 2**1049: the int weights alone overflow a float
                  TSPoint([0.0, 0.5, -0.25][:n], [1.0, 1e-300, 0.0][:n])]
        for pt in points:
            assert not pt.is_exact
            dyadic = PhasePoint([Fraction(v) for v in pt.x], [Fraction(v) for v in pt.xi])
            masses = {}
            for r in range(m + 1):
                fixed = tuple(rng.randint(1, n) for _ in range(r))
                for derivs in [(), (rng.randint(1, n),),
                               (rng.randint(1, n), rng.randint(1, n))]:
                    for q in range(4):
                        value = _transform_value(f, q, pt, fixed, derivs)
                        exact = _transform_value(f, q, dyadic, fixed, derivs)
                        assert value == exact, (pt, fixed, derivs, q)
                        bound = 1e-12 * datum_scale(f, q, pt, fixed, derivs, masses)
                        route = float_route(f, q, pt, fixed, derivs)
                        assert abs(float(value) - route) <= bound

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3)])
    def test_identities_are_exact_zeros_on_float_lines(self, n, m):
        # a float line's values are exact: the residuals of the identities
        # sum them exactly, with no rounding left to read as a residual
        f = random_field(n, m, 2, f"floatpoints:{n}:{m}")
        rng = random.Random(f"floatpoints:{n}:{m}")
        for _ in range(10):
            pt = random_float_ts_point(n, rng)
            assert not pt.is_exact
            for k in range(m):
                fixed = tuple(rng.randint(1, n) for _ in range(k))
                assert john_power_residual(f, k, fixed, pt) == 0.0
                assert collapsed_derivative_residual(f, k, fixed, pt) == 0.0
                assert restriction_contraction_residual(f, fixed, m - 1, pt) == 0.0

    def test_float_of_a_line_moment_is_pinned(self):
        # float(v) of a line moment on a float line: the exact value on the
        # dyadic line, correctly rounded, pinned bit for bit
        rng = random.Random("floatpins")
        g = PolyGauss(random_polynomial(3, 3, rng))
        got = [float(line_moment(g, i % 4, random_float_ts_point(3, rng))).hex()
               for i in range(10)]
        assert got == ["0x1.ed8d3567c3590p-3", "0x1.357073acb7ca6p+1", "-0x1.7be3c09f725bcp+0",
                       "0x1.c4621eb27e36dp+2", "0x1.bff86165be927p-1", "0x1.6c956c66c4126p-1",
                       "0x1.2852f7a1332f1p+1", "-0x1.435ce3b63be2ap+3", "0x1.eb9af2c4fef81p+0",
                       "0x1.eab1cc0cd76ccp-1"]

    def test_direction_sums_take_weights_too_large_for_a_float(self):
        # xi_den is 2**1049: the int weights overflow a float, and the sums are exact
        f = random_field(2, 2, 2, "float:tiny")
        pt = TSPoint([0.0, 0.5], [1.0, 1e-300])
        assert pt.xi_nums[0] > 2 ** 1024
        for k in range(3):
            assert restriction_contraction_residual(f, (), k, pt) == 0.0
        # the translation rule: xi . grad_x of the zeroth transform vanishes
        assert directional_x_derivative(MomentExpression.transform(f, 0), f, pt).is_zero


class TestValueDiff:
    def test_is_zero_only_for_an_exact_zero(self):
        zero = ExactValue.zero_value()
        tiny = ExactValue(Fraction(1, 10**400))
        huge = ExactValue(Fraction(10**400), Fraction(2), Fraction(-1))
        assert value_diff(tiny, zero) > 0.0
        assert 0.0 < value_diff(huge, zero) < math.inf
        assert value_diff(huge, huge) == 0.0
        assert value_diff(tiny, -tiny) > 0.0

    def test_only_equal_stored_forms_skip_the_sum(self, monkeypatch):
        # sqrt(8) and 2 sqrt(2): two stored forms of one real, still
        # subtracted through the exact sum; one stored form is not
        summed = []
        exact_sum = ExactValue.sum

        def counting_sum(pairs, den=1):
            summed.append(den)
            return exact_sum(pairs, den)

        monkeypatch.setattr(ExactValue, "sum", staticmethod(counting_sum))
        a, b = ExactValue(1, 8), ExactValue(2, 2)
        assert value_diff(a, b) == 0.0 and len(summed) == 1
        assert value_diff(a, ExactValue(1, 8)) == 0.0 and len(summed) == 1
        assert value_diff(b, b.scaled(Fraction(1, 3))) > 0.0 and len(summed) == 2

    def test_exact_against_float_raises(self):
        tiny = ExactValue(Fraction(1, 10**400))
        for a, b in ((tiny, 0.0), (0.0, tiny), (0.0, 0.0), (1.0, 2.0)):
            with pytest.raises(TypeError):
                value_diff(a, b)
        # |xi| = sqrt(2) projects the exact point to a float line
        f = random_field(2, 1, 1, 3)
        pt = PhasePoint([0, 1], [1, 1])
        rebuilt = extended_from_moments([moment_transform(f, 0, pt.project())], 0, pt, 1)
        with pytest.raises(TypeError):
            value_diff(rebuilt, extended_transform(f, 0, pt))

    def test_different_exponents_raise(self):
        a = ExactValue(Fraction(1), Fraction(1), Fraction(-1))
        b = ExactValue(Fraction(1), Fraction(1), Fraction(-2))
        with pytest.raises(ArithmeticError):
            value_diff(a, b)


class TestConversion:
    def test_line_point_collapse(self):
        rng = random.Random(15)
        f = random_field(2, 2, 2, 48)
        ts = random_ts_point(2, rng)
        ivals = [moment_transform(f, ell, ts) for ell in range(3)]
        for q in range(3):
            lhs = extended_from_moments(ivals[:q + 1], q, ts, 2)
            assert (lhs - ivals[q]).is_zero

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2), (3, 3)])
    def test_matches_extended_transform(self, n, m):
        rng = random.Random(16 + n + m)
        f = random_field(n, m, 2, 49 + m)
        for trial in range(4):
            pt = random_phase_point(n, rng)
            ts = pt.project()
            for q in range(4):
                ivals = [moment_transform(f, ell, ts) for ell in range(q + 1)]
                lhs = extended_from_moments(ivals, q, pt, m)
                rhs = extended_transform(f, q, pt)
                assert value_diff(lhs, rhs) == 0.0

    def test_zeroth_order_single_term(self):
        rng = random.Random(17)
        f = random_field(2, 2, 1, 50)
        pt = random_phase_point(2, rng)
        ts = pt.project()
        i0 = moment_transform(f, 0, ts)
        lam = math.sqrt(float(pt.s))
        lhs = extended_from_moments([i0], 0, pt, 2)
        assert float(lhs) == pytest.approx(lam * float(i0), rel=1e-13, abs=1e-300)

    def test_float_path(self):
        # an irrational direction norm: the projected line is a float line,
        # and the rebuilt transform the one float of the package
        f = random_field(2, 1, 1, 51)
        pt = PhasePoint([0.4, -0.2], [1.1, 0.3])
        ts = pt.project()
        assert not ts.is_exact
        ivals = [moment_transform(f, ell, ts) for ell in range(2)]
        lhs = extended_from_moments(ivals, 1, pt, 1)
        rhs = extended_transform(f, 1, pt)
        assert type(lhs) is float
        assert lhs == pytest.approx(float(rhs), rel=1e-11, abs=1e-13)


class TestDerivativeRules:
    def test_translation_rule(self):
        # direction-contracted x-gradient of the zeroth transform vanishes
        rng = random.Random(18)
        f = random_field(2, 2, 2, 52)
        pt = random_phase_point(2, rng)
        e = MomentExpression.transform(f, 0)
        from raymoments.moments import directional_x_derivative
        assert directional_x_derivative(e, f, pt).is_zero

    def test_integration_by_parts(self):
        rng = random.Random(19)
        f = random_field(3, 1, 2, 53)
        from raymoments.moments import directional_x_derivative
        for k in (1, 2, 3):
            pt = random_phase_point(3, rng)
            lhs = directional_x_derivative(MomentExpression.transform(f, k), f, pt)
            rhs = extended_transform(f, k - 1, pt).scaled(-k)
            assert value_diff(lhs, rhs) == 0.0

    def test_euler_homogeneity_degree(self):
        rng = random.Random(20)
        from raymoments.moments import directional_xi_derivative
        for r in (0, 1, 2):
            g = random_field(2, r, 2, 54 + r)
            for q in (0, 1, 2):
                pt = random_phase_point(2, rng)
                lhs = directional_xi_derivative(MomentExpression.transform(g, q), g, pt)
                rhs = extended_transform(g, q, pt).scaled(r - q - 1)
                assert value_diff(lhs, rhs) == 0.0

    def test_euler_degree_of_xi_carrying_data(self):
        # xi^K (q, F, D) is homogeneous in xi of degree |K| + m - |F| - q - 1,
        # with K on axes where xi does not vanish
        rng = random.Random(26)
        nonzero = 0
        for case in range(24):
            n, m = rng.randint(2, 3), rng.randint(1, 3)
            f = random_field(n, m, 2, f"euler-xi:{case}")
            pt = random_phase_point(n, rng)
            axes = [i for i in range(1, n + 1) if pt.xi[i - 1]]
            mono = tuple(sorted(rng.choice(axes) for _ in range(rng.randint(1, 3))))
            fixed = tuple(sorted(rng.randint(1, n) for _ in range(rng.randint(0, m))))
            derivs = tuple(sorted(rng.randint(1, n) for _ in range(rng.randint(0, 2))))
            q = rng.randint(0, 2)
            e = MomentExpression(n, m, (((q, fixed, derivs, mono), 1),))
            degree = len(mono) + m - len(fixed) - q - 1
            value = e.evaluate(f, pt)
            assert directional_xi_derivative(e, f, pt) == value.scaled(degree)
            nonzero += not value.is_zero and degree != 0
        assert nonzero >= 16

    def test_john_degree_after_application(self):
        # once applied, the data is homogeneous of degree rank-2 in direction
        rng = random.Random(21)
        g = random_field(2, 2, 1, 55)
        from raymoments.moments import directional_xi_derivative
        e = john(MomentExpression.transform(g, 0), 1, 2)
        pt = random_phase_point(2, rng)
        lhs = directional_xi_derivative(e, g, pt)
        rhs = e.evaluate(g, pt).scaled(2 - 1 - 1)
        assert value_diff(lhs, rhs) == 0.0

    def test_rewrites_commute_structurally(self):
        f = random_field(2, 2, 1, 56)
        e = MomentExpression.transform(f, 1)
        one = dx(dxi(e, 2), 1)
        two = dxi(dx(e, 1), 2)
        # by address: J^1 of f restricted at 2, then d/dx_1; J^2 with both partials
        assert one.terms == two.terms == (
            ((1, (2,), (1,), ()), 2), ((2, (), (1, 2), ()), 1))
        assert one == two and hash(one) == hash(two)
        # xi_2^2 J^1: dxi also takes the monomial's two factors xi_2, one at a time
        e = MomentExpression(2, 2, (((1, (), (), (2, 2)), 1),))
        assert dxi(e, 2).terms == (
            ((1, (), (), (2,)), 2), ((1, (2,), (), (2, 2)), 2), ((2, (), (2,), (2, 2)), 1))
        assert dxi(e, 1).terms == (((1, (1,), (), (2, 2)), 2), ((2, (), (1,), (2, 2)), 1))
        assert dx(dxi(e, 2), 1) == dxi(dx(e, 1), 2)

    def test_john_antisymmetry(self):
        f = random_field(2, 1, 1, 57)
        e = MomentExpression.transform(f, 0)
        one = john(e, 1, 2)
        two = john(e, 2, 1)
        assert one.terms and [(a, w) for a, w in one.terms] == \
               [(a, -w) for a, w in two.terms]
        assert one == -two

    def test_one_row_per_value(self):
        # parts of one address merge, zero weights drop out, den is reduced:
        # equal values are equal rows, whatever parts and den built them
        a, b = (0, (), (), ()), (1, (), (1,), ())
        e = MomentExpression(2, 1, [(b, 4), (a, 2), (b, 2), (a, -2)], 12)
        assert (e.den, e.terms) == (2, ((b, 1),))
        assert e == MomentExpression(2, 1, [(b, 1)], 2)
        assert e == MomentExpression(2, 1, [(b, 3)]) * Fraction(1, 6)
        assert hash(e) == hash(MomentExpression(2, 1, [(b, 3)], 6))
        third = MomentExpression(2, 1, [(a, 1)]) * Fraction(2, 3) + e
        assert (third.den, third.terms) == (6, ((a, 4), (b, 3)))
        assert type(third.den) is int and all(type(w) is int for _, w in third.terms)
        zero = e * 0
        assert (zero.den, zero.terms) == (1, ()) and zero == e - e

    def test_john_on_scalar_data_cancels(self):
        phi = gaussian_scalar(2)
        e = john(MomentExpression.transform(phi, 0), 1, 2)
        assert not e.terms

    def test_john_equal_coordinates_rejected(self):
        f = random_field(2, 1, 1, 58)
        with pytest.raises(ValueError):
            john(MomentExpression.transform(f, 0), 1, 1)

    def test_single_john_drops_rank_against_quadrature(self):
        # one application on rank-M data: M [J0(d_p g^(q)) - J0(d_q g^(p))]
        rng = random.Random(22)
        g = random_field(2, 2, 2, 59)
        e = john(MomentExpression.transform(g, 0), 1, 2)
        pt = random_phase_point(2, rng)
        lhs = float(e.evaluate(g, pt))
        xf = [float(v) for v in pt.x]
        xif = [float(v) for v in pt.xi]
        rhs = 2 * (quad_transform(field_partial(restrict(g, (2,)), 1), 0, xf, xif)
                   - quad_transform(field_partial(restrict(g, (1,)), 2), 0, xf, xif))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_gradients_built_once_per_expression(self, monkeypatch):
        calls = []
        for name in ("dx", "dxi"):
            original = getattr(moments, name)
            monkeypatch.setattr(moments, name, lambda e, i, _name=name, _f=original:
                                calls.append(_name) or _f(e, i))
        f = random_field(3, 3, 2, 60)
        e = MomentExpression.transform(f, 1)
        rng = random.Random(23)
        for _ in range(4):
            pt = random_phase_point(3, rng)
            # integration by parts (-q) and the Euler degree (m - q - 1), at q = 1
            assert value_diff(directional_x_derivative(e, f, pt),
                              extended_transform(f, 0, pt).scaled(-1)) == 0.0
            assert value_diff(directional_xi_derivative(e, f, pt),
                              extended_transform(f, 1, pt)) == 0.0
        assert calls == ["dx"] * 3 + ["dxi"] * 3
        # an equal expression, of another field of the same shape, builds nothing
        g = random_field(3, 3, 2, 61)
        assert value_diff(directional_x_derivative(MomentExpression.transform(g, 1), g, pt),
                          extended_transform(g, 0, pt).scaled(-1)) == 0.0
        assert len(calls) == 6
        # another shape builds its own
        h = random_field(3, 2, 2, 62)
        directional_x_derivative(MomentExpression.transform(h, 1), h, pt)
        assert calls[6:] == ["dx"] * 3

    def test_other_shape_rejected(self):
        f = random_field(2, 1, 1, 62)
        pt = random_phase_point(2, random.Random(24))
        e = MomentExpression.transform(f, 0)
        for other in (random_field(2, 2, 1, 63), random_field(3, 1, 1, 64)):
            with pytest.raises(ValueError, match="shape"):
                e.evaluate(other, pt)
            with pytest.raises(ValueError, match="shape"):
                e + MomentExpression.transform(other, 0)
            with pytest.raises(ValueError, match="shape"):
                MomentExpression.transform(other, 0) - e

    def test_zero_expression_evaluates_exactly_zero(self):
        pt = TSPoint([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)])
        value = MomentExpression(2, 1).evaluate(random_field(2, 1, 1, 60), pt)
        assert isinstance(value, ExactValue) and value.is_zero

    def test_expression_linearity(self):
        rng = random.Random(23)
        f = random_field(2, 1, 1, 60)
        g = random_field(2, 1, 1, 61)
        pt = random_phase_point(2, rng)
        e1 = MomentExpression.transform(f, 0)
        e2 = MomentExpression.transform(f, 1, (2,))
        c = Fraction(5, 3)
        lhs = (e1 * c + e2).evaluate(f, pt)
        rhs = e1.evaluate(f, pt).scaled(c) + e2.evaluate(f, pt)
        assert value_diff(lhs, rhs) == 0.0
        # and linear in the field
        lhs = (e1 * c + e2).evaluate(f + g, pt)
        rhs = (e1 * c + e2).evaluate(f, pt) + (e1 * c + e2).evaluate(g, pt)
        assert value_diff(lhs, rhs) == 0.0


class TestRecovery:
    def test_depth_zero_is_plain_transform(self):
        rng = random.Random(24)
        f = random_field(2, 2, 1, 62)
        pt = random_phase_point(2, rng)
        lhs = recover_restricted(f, (), pt)
        rhs = extended_transform(f, 0, pt)
        assert value_diff(lhs, rhs) == 0.0

    def test_rank_one_formula(self):
        rng = random.Random(25)
        f = random_field(2, 1, 2, 63)
        for i in (1, 2):
            pt = random_phase_point(2, rng)
            lhs = recover_restricted(f, (i,), pt)
            rhs = extended_transform(restrict(f, (i,)), 0, pt)
            assert value_diff(lhs, rhs) == 0.0

    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3)])
    def test_all_depths_many_points(self, n, m):
        rng = random.Random(26 + n)
        f = random_field(n, m, 2, 64 + m)
        pick = random.Random(99)
        for trial in range(20):
            pt = random_phase_point(n, rng)
            r = trial % (m + 1)
            fixed = tuple(pick.randint(1, n) for _ in range(r))
            lhs = recover_restricted(f, fixed, pt)
            rhs = extended_transform(restrict(f, fixed), 0, pt)
            assert value_diff(lhs, rhs) == 0.0

    def test_quadrature_cross_check(self):
        rng = random.Random(27)
        f = random_field(2, 2, 2, 65)
        pt = random_phase_point(2, rng)
        fixed = (2, 1)
        lhs = float(recover_restricted(f, fixed, pt))
        rhs = quad_transform(restrict(f, fixed), 0,
                             [float(v) for v in pt.x], [float(v) for v in pt.xi])
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_too_deep_rejected(self):
        f = random_field(2, 1, 1, 66)
        pt = PhasePoint([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)])
        with pytest.raises(ValueError):
            recover_restricted(f, (1, 1), pt)

    @staticmethod
    def direct_recovery(n, m, fixed):
        # the expression built at ``fixed`` itself, term by term in Fractions
        r = len(fixed)
        perms = list(itertools.permutations(fixed)) or [()]
        weight = Fraction(1, len(perms))
        total = MomentExpression(n, m)
        for perm in perms:
            for p in range(r + 1):
                e = MomentExpression._datum(n, m, p) * (
                    Fraction((-1) ** p * math.comb(r, p)) * weight)
                for i in perm[:p]:
                    e = dx(e, i)
                for i in perm[p:]:
                    e = dxi(e, i)
                total = total + e
        return total * Fraction(math.factorial(m - r), math.factorial(m))

    @pytest.mark.parametrize("n,m", [(n, m) for n in (1, 2, 3, 4) for m in (1, 2, 3)])
    def test_relabelled_recovery_equals_the_direct_one(self, n, m):
        rewrites = (moments._recovery_term, dx, dxi)
        for r in range(m + 1):
            for fixed in itertools.combinations_with_replacement(range(1, n + 1), r):
                got = moments._recovery(n, m, fixed, rewrites)
                assert got == self.direct_recovery(n, m, fixed), fixed
                assert [a for a, _ in got.terms] == sorted(a for a, _ in got.terms)

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2), (3, 3), (2, 4)])
    def test_recovery_cancels_to_the_restricted_datum(self, n, m):
        # every term but the zeroth transform at ``fixed`` cancels: the row is
        # that one datum, weight 1 over den 1
        rewrites = (moments._recovery_term, dx, dxi)
        for r in range(m + 1):
            for fixed in itertools.combinations_with_replacement(range(1, n + 1), r):
                e = moments._recovery(n, m, fixed, rewrites)
                assert (e.den, e.terms) == (1, (((0, fixed, (), ()), 1),)), fixed
                assert type(e.den) is int and type(e.terms[0][1]) is int

    def test_built_once_per_shape_and_fixed_multiset(self, monkeypatch):
        calls = []
        original = moments._recovery_term

        def counting(r, p):
            calls.append((r, p))
            return original(r, p)

        monkeypatch.setattr(moments, "_recovery_term", counting)
        f = random_field(3, 3, 1, "recoveronce")
        rng = random.Random(44)
        pt = random_phase_point(3, rng)
        assert value_diff(recover_restricted(f, (3, 1), pt),
                          extended_transform(restrict(f, (3, 1)), 0, pt)) == 0.0
        built = len(calls)
        assert built
        # however many points evaluate it, in whatever order the indices come
        for fixed in [(1, 3), (3, 1), (1, 3), (3, 1)]:
            other = random_phase_point(3, rng)
            assert value_diff(recover_restricted(f, fixed, other),
                              extended_transform(restrict(f, fixed), 0, other)) == 0.0
        assert len(calls) == built
        # a second field of the same shape builds nothing
        g = random_field(3, 3, 1, "recoveronce:other")
        assert value_diff(recover_restricted(g, (1, 3), pt),
                          extended_transform(restrict(g, (1, 3)), 0, pt)) == 0.0
        assert len(calls) == built
        # a relabelled multiset is relabelled from it, and another orbit or
        # another shape builds its own
        recover_restricted(f, (2, 3), pt)
        assert len(calls) == built
        recover_restricted(f, (1, 1), pt)
        assert len(calls) == 2 * built
        recover_restricted(random_field(4, 3, 1, "recoveronce:shape"), (1, 3),
                           random_phase_point(4, rng))
        assert len(calls) == 3 * built
        # a bad index is refused before the memo is read
        with pytest.raises(ValueError):
            recover_restricted(f, (1, 4), pt)


class TestRestrictionValidation:
    """Restriction indices are checked as restrict checks them, up front."""

    @pytest.mark.parametrize("fixed", [(3,), (0,), (2, 0), (1, 1, 1)])
    def test_bad_fixed_rejected(self, fixed):
        f = random_field(2, 2, 1, 74)
        pt = PhasePoint([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)])
        k = len(fixed)
        with pytest.raises(ValueError):
            recover_restricted(f, fixed, pt)
        with pytest.raises(ValueError):
            john_power_residual(f, k, fixed, pt)
        with pytest.raises(ValueError):
            collapsed_derivative_residual(f, k, fixed, pt)
        with pytest.raises(ValueError):
            restriction_contraction_residual(f, fixed, min(k, 2), pt)
        with pytest.raises(ValueError):
            MomentExpression.transform(f, 0, fixed)

    def test_bad_axis_rejected(self):
        e = MomentExpression.transform(random_field(2, 1, 1, 75), 0)
        for i in (0, 3):
            with pytest.raises(ValueError):
                dx(e, i)
            with pytest.raises(ValueError):
                dxi(e, i)


class TestJetAtoms:
    """Atoms match fields built by content: restricted, then derived componentwise.

    On an exact point an atom differentiates the point's contraction of the
    field (``moments._contraction``), or reads the field's jet where nothing
    is left to contract; the reference builds every derived field.
    """

    @staticmethod
    def reference(f, q, fixed, derivs, pt):
        g = restrict(f, fixed)
        for i in derivs:
            g = field_partial(g, i)
        return extended_transform(g, q, pt)

    @pytest.mark.parametrize("n,m", [(2, 0), (2, 1), (2, 2), (2, 3), (3, 2)])
    def test_atom_matches_content_built_field(self, n, m):
        rng = random.Random(76 + 10 * n + m)
        f = random_field(n, m, 2, 77 + m)
        pt = random_phase_point(n, rng)
        axes = range(1, n + 1)
        # every index order, so unsorted fixed and derivs tuples are covered
        for r in range(m + 1):
            for fixed in itertools.product(axes, repeat=r):
                for d in range(3):
                    for derivs in itertools.product(axes, repeat=d):
                        for q in range(3):
                            e = MomentExpression.transform(f, q, fixed)
                            for i in derivs:
                                e = dx(e, i)
                            assert len(e.terms) == 1
                            lhs = e.evaluate(f, pt)
                            assert lhs == self.reference(f, q, fixed, derivs, pt), \
                                (fixed, derivs, q)

    def test_rewrites_match_content_built_fields(self):
        # dxi adds rank x the atom restricted at i to the order-raised
        # derivative; the rank of f restricted at one index is 2 here
        rng = random.Random(78)
        f = random_field(2, 3, 2, 79)
        pt = random_phase_point(2, rng)
        e = dxi(dx(MomentExpression.transform(f, 1, (2,)), 1), 2)
        ref = self.reference
        rhs = (ref(f, 2, (2,), (1, 2), pt)
               + ref(f, 1, (2, 2), (1,), pt).scaled(2))
        assert e.evaluate(f, pt) == rhs

    def test_point_memo_keeps_fields_apart(self):
        rng = random.Random(80)
        pt = random_phase_point(2, rng)
        f = random_field(2, 2, 2, 81)
        g = random_field(2, 2, 2, 82)
        for h in (f, g, f, g):
            # rank 1 is left to contract: the data are not the fields' jet entries
            e = john(MomentExpression.transform(h, 0), 1, 2)
            assert e.evaluate(h, pt) == e.evaluate(h, PhasePoint(pt.x, pt.xi))
        # fields freed between evaluations must not be mistaken for new ones
        for seed in range(20):
            h = random_field(2, 1, 1, seed)
            e = MomentExpression.transform(h, 0)
            assert e.evaluate(h, pt) == e.evaluate(h, PhasePoint(pt.x, pt.xi))
        # the memo holds every field it has a datum of, so no id was reused
        assert len({id(held) for held, _ in pt.contracted.values()}) == 22

    def test_fully_restricted_datum_is_the_jet_entry(self):
        # nothing is left to contract: every point reads the field's own jet,
        # which the operators share, and memoizes nothing of its own
        rng = random.Random(83)
        f = random_field(3, 2, 2, 84)
        points = [random_phase_point(3, rng) for _ in range(2)]
        for pt in points:
            value = _transform_value(f, 1, pt, (2, 1), (3, 1))
            assert value == self.reference(f, 1, (1, 2), (1, 3), pt)
            assert moments._contraction(f, pt, (1, 2), (1, 3)) is _jet(f, (1, 2), (1, 3))
            assert pt.contracted == {}


class TestJohnTable:
    """Every ordered John chain is a signed entry of the per-multiset table."""

    @pytest.mark.parametrize("n,m,k", [(3, 2, 1), (3, 3, 1), (4, 2, 0)])
    def test_ordered_chains_are_signed_entries(self, n, m, k):
        rng = random.Random(f"johntable:{n}:{m}:{k}")
        f = random_field(n, m, 1, f"johntable:{n}:{m}:{k}")
        fixed = tuple(rng.randint(1, n) for _ in range(k))
        pt = random_phase_point(n, rng)
        table = _john_table(f, k, fixed, pt)
        assert not all(value.is_zero for value in table.values())
        base = MomentExpression.transform(f, 0, fixed)
        axes = range(1, n + 1)
        chains = 0
        for ptuple in itertools.product(axes, repeat=m - k):
            for qt in itertools.product(axes, repeat=m - k):
                if any(pa == qa for pa, qa in zip(ptuple, qt)):
                    continue
                e = base
                for pa, qa in zip(ptuple, qt):
                    e = john(e, pa, qa)
                key, sign = _pair_key(zip(ptuple, qt))
                assert e.evaluate(f, pt) == table[key].scaled(sign), (ptuple, qt)
                chains += 1
        assert chains == (n * (n - 1)) ** (m - k)

    def test_chains_built_once_per_rank_after_restriction(self, monkeypatch):
        calls = []
        original = moments.john

        def counting(e, p, q):
            calls.append((p, q))
            return original(e, p, q)

        monkeypatch.setattr(moments, "john", counting)
        f = random_field(3, 2, 1, "johnonce")
        rng = random.Random(42)
        pt = random_phase_point(3, rng)
        assert john_power_residual(f, 1, (2,), pt) == 0.0
        built = len(calls)
        table = _john_table(f, 1, (2,), pt)
        assert built == len(table)
        assert collapsed_derivative_residual(f, 1, (2,), pt) == 0.0
        # however many points read the chains
        for _ in range(4):
            other = random_phase_point(3, rng)
            assert john_power_residual(f, 1, (2,), other) == 0.0
            assert collapsed_derivative_residual(f, 1, (2,), other) == 0.0
        assert _john_table(f, 1, (2,), PhasePoint(pt.x, pt.xi)) == table
        assert len(calls) == built
        # a second field of the same shape builds nothing
        g = random_field(3, 2, 1, "johnonce:other")
        assert john_power_residual(g, 1, (2,), pt) == 0.0
        assert collapsed_derivative_residual(g, 1, (2,), pt) == 0.0
        assert len(calls) == built
        # another fixed multiset of the same size relabels the same chains
        assert john_power_residual(f, 1, (3,), pt) == 0.0
        assert len(calls) == built
        # and so does another rank with the same rank left after restriction
        h = random_field(3, 3, 1, "johnonce:rank3")
        assert john_power_residual(h, 2, (3, 1), pt) == 0.0
        _john_table(h, 2, (1, 3), PhasePoint(pt.x, pt.xi))
        assert len(calls) == built
        # another rank after restriction or another dimension builds its own:
        # at rank 2, 3 chains of one pair and 6 of two
        assert john_power_residual(f, 0, (), pt) == 0.0
        assert len(calls) == built + 3 + 6
        before = len(calls)
        e = random_field(4, 2, 1, "johnonce:shape")
        assert john_power_residual(e, 1, (2,), random_phase_point(4, rng)) == 0.0
        assert len(calls) == before + math.comb(4, 2)

    def test_collapsed_after_john_power_evaluates_nothing(self, monkeypatch):
        # both John checks of a sample read one table per point, field and
        # fixed multiset, and the collapsed right side is read by address
        f = random_field(3, 3, 2, "johnshared")
        rng = random.Random(44)
        pt = random_phase_point(3, rng)
        want = _john_table(f, 1, (3,), PhasePoint(pt.x, pt.xi))
        assert john_power_residual(f, 1, (3,), pt) == 0.0
        calls = []
        evaluate = MomentExpression.evaluate
        monkeypatch.setattr(MomentExpression, "evaluate",
                            lambda e, g, p: calls.append(e) or evaluate(e, g, p))
        assert collapsed_derivative_residual(f, 1, (3,), pt) == 0.0
        assert calls == []
        # the kept table is the one a fresh point evaluates, held with its field
        held, table = pt._john_tables[((3,), id(f))]
        assert held is f and table == want
        # another fixed multiset, point or field evaluates its own: 6 chains each
        assert collapsed_derivative_residual(f, 1, (1,), pt) == 0.0
        assert collapsed_derivative_residual(f, 1, (3,), PhasePoint(pt.x, pt.xi)) == 0.0
        assert collapsed_derivative_residual(random_field(3, 3, 2, "johnshared:g"), 1, (3,),
                                             pt) == 0.0
        assert len(calls) == 3 * 6

    @pytest.mark.parametrize("n,m,k", [(2, 2, 1), (3, 3, 1), (3, 3, 2), (4, 3, 1),
                                       (2, 4, 1)])
    def test_relabelled_chains_equal_the_chains_built_at_fixed(self, n, m, k):
        # the reference: every chain built through ``john`` from the datum
        # restricted at ``fixed``, whose dxi factors read the restriction
        pairs = list(itertools.combinations(range(1, n + 1), 2))
        for fixed in itertools.combinations_with_replacement(range(1, n + 1), k):
            chains = {(): MomentExpression._datum(n, m, 0, fixed)}
            for length in range(1, m - k + 1):
                for word in itertools.combinations_with_replacement(pairs, length):
                    chains[word] = john(chains[word[:-1]], *word[-1])
            want = {_pair_key(word)[0]: e for word, e in chains.items()
                    if len(word) == m - k}
            got = moments._john_chains(n, m, fixed, (john, dx, dxi))
            assert got == want, fixed
            for e in got.values():
                assert [address for address, _ in e.terms] == sorted(
                    address for address, _ in e.terms)
                assert type(e.den) is int and all(type(w) is int for _, w in e.terms)

    @pytest.mark.parametrize("n,m", [(2, 1), (2, 2), (3, 2), (3, 3), (2, 4), (4, 2)])
    def test_chains_are_the_alternation_rows(self, n, m):
        # at each pair key, the chain is (-2)^m m! times the row of the
        # alternation stencil, read at the fully restricted addresses
        chains = moments._john_chains(n, m, (), (john, dx, dxi))
        rows = diffops._alternation_stencil(n, m)
        assert set(chains) == {key for key, _, _ in rows}
        scale = (-2) ** m * math.factorial(m)
        for key, den, entries in rows:
            row = MomentExpression(n, m, (((0, component, derivs, ()), w * scale)
                                          for (component, derivs), w in entries), den)
            assert (chains[key].den, chains[key].terms) == (row.den, row.terms), key


class TestJohnPower:
    @pytest.mark.parametrize("n,m,k", [(2, 2, 0), (2, 2, 1), (3, 3, 1), (3, 3, 2)])
    def test_residual_vanishes(self, n, m, k):
        rng = random.Random(28 + n + k)
        f = random_field(n, m, 2, 67 + m + k)
        fixed = tuple(rng.randint(1, n) for _ in range(k))
        pt = random_phase_point(n, rng)
        assert john_power_residual(f, k, fixed, pt) == 0.0

    def test_zero_field(self):
        f = sym_field(2, 2, {})
        pt = PhasePoint([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)])
        assert john_power_residual(f, 0, (), pt) == 0.0

    def test_order_out_of_range(self):
        f = random_field(2, 2, 1, 68)
        pt = PhasePoint([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)])
        with pytest.raises(ValueError):
            john_power_residual(f, 2, (1, 1), pt)


class TestCollapsedDerivative:
    @pytest.mark.parametrize("n,m,k", [(2, 2, 0), (2, 2, 1), (3, 3, 1), (3, 3, 2)])
    def test_residual_vanishes(self, n, m, k):
        rng = random.Random(29 + n + k)
        f = random_field(n, m, 2, 69 + m + k)
        fixed = tuple(rng.randint(1, n) for _ in range(k))
        pt = random_phase_point(n, rng)
        assert collapsed_derivative_residual(f, k, fixed, pt) == 0.0

    def test_rewrites_built_once_per_shape_and_fixed_multiset(self, monkeypatch):
        # the John chains are built once per shape; the right side is an
        # address, which no rewrite builds
        calls = []
        original = moments.dx

        def counting(e, i):
            calls.append(i)
            return original(e, i)

        monkeypatch.setattr(moments, "dx", counting)
        f = random_field(3, 3, 1, "dxonce")
        rng = random.Random(43)
        assert collapsed_derivative_residual(f, 1, (2,), random_phase_point(3, rng)) == 0.0
        # two per John operator: the 3 chains of one pair and 6 of two
        assert len(calls) == 2 * (3 + 6)
        for _ in range(3):
            pt = random_phase_point(3, rng)
            assert collapsed_derivative_residual(f, 1, (2,), pt) == 0.0
        # a second field of the same shape builds nothing
        g = random_field(3, 3, 1, "dxonce:other")
        assert collapsed_derivative_residual(g, 1, (2,), pt) == 0.0
        assert len(calls) == 18
        # another shape builds its own: 1 chain of one pair over 2 axes
        h = random_field(2, 2, 1, "dxonce:shape")
        assert collapsed_derivative_residual(h, 1, (2,), random_phase_point(2, rng)) == 0.0
        assert len(calls) == 18 + 2

    def test_single_step_case(self):
        # m-k = 1 collapses in one application
        rng = random.Random(30)
        f = random_field(2, 2, 1, 70)
        pt = random_phase_point(2, rng)
        assert collapsed_derivative_residual(f, 1, (2,), pt) == 0.0

    def test_order_out_of_range(self):
        f = random_field(2, 1, 1, 71)
        pt = PhasePoint([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)])
        with pytest.raises(ValueError):
            collapsed_derivative_residual(f, 1, (1,), pt)


class TestSymmetrizationSplit:
    def test_fully_symmetric_fixed_point(self):
        from conftest import brute_symmetrize
        t = brute_symmetrize(random_raw(2, 3, random.Random(31)), (1, 2, 3))
        assert symmetrization_split_residual(t, 1) == 0

    def test_block_symmetric_exact(self):
        rng = random.Random(32)
        from raymoments import symmetrize
        t = random_raw(2, 3, rng)
        t = symmetrize(t, (1, 2))  # symmetric in leading block, k = 1
        assert symmetrization_split_residual(t, 1) == 0

    def test_k_zero_trivial(self):
        t = random_raw(2, 2, random.Random(33))
        from raymoments import symmetrize
        t = symmetrize(t, (1, 2))
        assert symmetrization_split_residual(t, 0) == 0

    def test_violated_precondition(self):
        t = random_raw(2, 3, random.Random(34))
        with pytest.raises(ValueError):
            symmetrization_split_residual(t, 1)

    @pytest.mark.parametrize("m,k", [(2, 1), (3, 1), (3, 2), (4, 2)])
    def test_random_blocks(self, m, k):
        rng = random.Random(35 + m + k)
        from raymoments import symmetrize
        t = random_raw(2, m, rng)
        if m - k >= 2:
            t = symmetrize(t, tuple(range(1, m - k + 1)))
        if k >= 2:
            t = symmetrize(t, tuple(range(m - k + 1, m + 1)))
        assert symmetrization_split_residual(t, k) == 0


def _split_residual_reference(t, k):
    """The split residual as full Fraction tensors, symmetrized over every permutation."""
    from conftest import brute_symmetrize
    m = t.rank
    lhs = brute_symmetrize(t, tuple(range(1, m + 1)))
    rot = RawTensor(t.n, m, {key[1:] + key[:1]: v for key, v in t.components.items()}, t.zero)
    inner = t * Fraction(k) + rot * Fraction(m - k)
    rhs = (brute_symmetrize(inner, tuple(range(1, m))) if m > 1 else inner) * Fraction(1, m)
    return max((abs(value) for value in (lhs - rhs).components.values()), default=Fraction(0))


class TestSplitResidualInInts:
    """The split residual compared orbit by orbit in int numerators."""

    @pytest.mark.parametrize("n", [1, 2, 3])
    @pytest.mark.parametrize("m", [1, 2, 3, 4])
    def test_zero_on_every_block_symmetric_tensor(self, n, m):
        from raymoments import symmetrize
        for k in range(m + 1):
            t = random_raw(n, m, random.Random(f"split:{n}:{m}:{k}"))
            if m - k >= 2:
                t = symmetrize(t, tuple(range(1, m - k + 1)))
            if k >= 2:
                t = symmetrize(t, tuple(range(m - k + 1, m + 1)))
            got = symmetrization_split_residual(t, k)
            assert type(got) is Fraction and got == 0, k

    @pytest.mark.parametrize("m,k,message", [(3, 1, "leading"), (3, 2, "trailing"),
                                             (4, 2, "leading")])
    def test_non_symmetric_block_rejected(self, m, k, message):
        t = random_raw(2, m, random.Random(f"split:bad:{m}:{k}"))
        with pytest.raises(ValueError, match=f"not symmetric in its {message} block"):
            symmetrization_split_residual(t, k)
        with pytest.raises(ValueError, match="outside"):
            symmetrization_split_residual(t, m + 1)

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (2, 3), (3, 3), (2, 4)])
    def test_matches_the_fraction_tensors_off_the_identity(self, monkeypatch, n, m):
        # with the block checks passed by, a tensor that is not block
        # symmetric gives a nonzero residual, the same Fraction either way
        monkeypatch.setattr(moments, "symmetrize", lambda t, positions: t)
        nonzero = 0
        for k in range(1, m + 1):
            for seed in range(3):
                t = random_raw(n, m, random.Random(f"split:off:{n}:{m}:{k}:{seed}"))
                got = symmetrization_split_residual(t, k)
                assert type(got) is Fraction and got == _split_residual_reference(t, k)
                nonzero += got != 0
        assert nonzero or n == 1


class TestRestrictionContraction:
    @pytest.mark.parametrize("n,m", [(2, 2), (3, 3)])
    def test_exact(self, n, m):
        rng = random.Random(36 + n)
        f = random_field(n, m, 2, 72 + m)
        pick = random.Random(5)
        for trial in range(8):
            pt = random_phase_point(n, rng)
            k = trial % (m + 1)
            r = pick.randint(0, k)
            fixed = tuple(pick.randint(1, n) for _ in range(r))
            assert restriction_contraction_residual(f, fixed, k, pt) == 0.0

    def test_bad_depths(self):
        f = random_field(2, 2, 1, 73)
        pt = PhasePoint([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)])
        with pytest.raises(ValueError):
            restriction_contraction_residual(f, (1, 1), 1, pt)


def _reference_symmetrized_derivative(f, r, pt):
    """The averaged value of each index tuple, in order.

    One transform and dx chain per rearrangement of the tuple.
    """
    m = f.rank
    mk = m - r
    values = []
    for key in all_canonical_tuples(f.n, m):
        rearr = distinct_rearrangements(key)
        weight = Fraction(1, len(rearr))
        total = MomentExpression(f.n, f.rank)
        for perm in rearr:
            e = MomentExpression.transform(f, 0, perm[mk:])
            for i in perm[:mk]:
                e = dx(e, i)
            total = total + e * weight
        values.append(total.evaluate(f, pt))
    return values


class TestSymmetrizedDerivative:
    @pytest.mark.parametrize("n,m,r", [(2, 3, r) for r in range(4)]
                             + [(3, 3, 1), (3, 2, 2), (2, 5, 0)])
    def test_matches_reference_off_the_kernel(self, monkeypatch, n, m, r):
        # every index tuple's value, as the residual hands it to magnitude
        seen, magnitude = [], moments.magnitude
        monkeypatch.setattr(moments, "magnitude", lambda v: seen.append(v) or magnitude(v))
        rng = random.Random(f"symref:{n}:{m}:{r}")
        for trial in range(2):
            f = random_field(n, m, 2, f"symref:{n}:{m}:{r}:{trial}")
            pt = random_phase_point(n, rng)
            seen.clear()
            residual = symmetrized_derivative_residual(f, r, pt)
            # a fresh point, so that no memoized datum is shared
            expected = _reference_symmetrized_derivative(f, r, PhasePoint(pt.x, pt.xi))
            assert seen == expected
            assert residual == max(map(magnitude, expected)) > 0.0

    def test_bad_depth_rejected(self):
        f = random_field(2, 2, 1, 74)
        pt = random_phase_point(2, random.Random(43))
        for r in (-1, 3):
            with pytest.raises(ValueError):
                symmetrized_derivative_residual(f, r, pt)
    @pytest.mark.parametrize("n,m,k", [(2, 2, 0), (2, 2, 1), (3, 2, 1), (2, 3, 2)])
    def test_vanishes_on_potentials(self, n, m, k):
        from raymoments import generate_potential
        _, f = generate_potential(n, m, k, 2, seed=f"symder:{n}:{m}:{k}")
        rng = random.Random(37 + n + k)
        for _ in range(3):
            pt = random_phase_point(n, rng)
            for r in range(k + 1):
                assert symmetrized_derivative_residual(f, r, pt) == 0.0

    def test_generic_field_does_not_vanish(self):
        rng = random.Random(38)
        f = random_field(2, 2, 1, 74)
        pt = random_phase_point(2, rng)
        assert symmetrized_derivative_residual(f, 0, pt) > 1e-8


class TestDecay:
    def test_moment_data_decays_faster_than_polynomials(self):
        f = random_field(2, 1, 2, 75)
        base_x = [Fraction(0), Fraction(3, 2)]
        xi = [Fraction(1), Fraction(0)]
        values = []
        for scale in (1, 2, 4):
            pt = TSPoint([scale * v for v in base_x], xi)
            values.append(abs(float(moment_transform(f, 0, pt))))
        assert values[1] <= 1e-2 * (1 + values[0])
        assert values[2] <= 1e-12 * (1 + values[0])
