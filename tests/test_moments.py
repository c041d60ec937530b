import itertools
import math
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
    rational_unit_vector,
    recover_restricted,
    restrict,
    restriction_contraction_residual,
    sym_field,
    symmetrization_split_residual,
    symmetrized_derivative_residual,
    tuple_multiplicity,
)
from raymoments import moments
from raymoments.diffops import _pair_key
from raymoments.moments import (
    MomentAtom,
    _john_table,
    _transform_value,
    _weighted_sum,
    value_diff,
)
from raymoments.polygauss import _jet, random_polynomial
from raymoments.symtensor import distinct_rearrangements
from conftest import quad_transform, random_raw

SQRT_PI = math.sqrt(math.pi)


def gaussian_scalar(n):
    return sym_field(n, 0, {(): PolyGauss(Polynomial(n, {(0,) * n: 1}))})


def field_partial(f, i):
    """The componentwise partial derivative of a field, read from its jet."""
    return sym_field(f.n, f.rank, {key: _jet(f, key, (i,)) for key in f.components})


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
            s = pp.xi_norm_sq()
            assert Fraction(1, 4) <= s <= 4

    def test_projection(self):
        rng = random.Random(8)
        pp = random_phase_point(2, rng)
        ts = pp.project()
        assert ts.is_exact
        assert ts.x_dot_xi() == 0 and ts.xi_norm_sq() == 1
        # float fallback
        pf = PhasePoint([0.3, 1.1], [1.0, 0.5])
        tsf = pf.project()
        assert tsf.projection_residual <= 1e-12


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
    def test_exact_when_values_exact_and_weights_rational(self):
        a = ExactValue(Fraction(1, 3), Fraction(2), Fraction(-1))
        b = ExactValue(Fraction(2), Fraction(2), Fraction(-1))
        total = _weighted_sum([(Fraction(3), a), (-1, b)], 0.0)
        assert total == ExactValue(Fraction(-1), Fraction(2), Fraction(-1))

    def test_exact_and_float_values_do_not_mix(self):
        a = ExactValue(Fraction(1, 3), Fraction(2), Fraction(-1))
        with pytest.raises(TypeError):
            _weighted_sum([(Fraction(3), a), (1, 1e16), (1, 1.0), (-1, 1e16)],
                          ExactValue.zero_value())
        # with no exact value the floats go through fsum; a sequential float
        # sum would lose both small terms to the 1e16 pair
        total = _weighted_sum([(Fraction(3), 0.5), (1, 1e16), (1, 1.0), (-1, 1e16)], 0.0)
        assert isinstance(total, float)
        assert total == 2.5

    def test_exact_value_with_a_float_weight_raises(self):
        a = ExactValue(Fraction(1, 3), Fraction(2), Fraction(-1))
        with pytest.raises(TypeError):
            _weighted_sum([(0.5, a), (Fraction(1, 2), a)], ExactValue.zero_value())
        # |xi| = sqrt(2) makes the weights of the rebuilt transform floats
        ivals = [ExactValue(Fraction(1)), ExactValue(Fraction(2))]
        with pytest.raises(TypeError):
            extended_from_moments(ivals, 1, PhasePoint([0, 1], [1, 1]), 1)

    def test_empty_sum_is_the_given_zero(self):
        exact_zero = ExactValue.zero_value()
        assert _weighted_sum([], exact_zero) is exact_zero
        assert _weighted_sum(iter(()), 0.0) == 0.0

    def test_points_supply_the_zero_of_their_path(self):
        f = sym_field(2, 1)
        assert extended_transform(f, 0, PhasePoint([0, 1], [1, 0])).is_zero
        value = extended_transform(f, 0, PhasePoint([0.0, 1.0], [1.0, 0.0]))
        assert isinstance(value, float) and value == 0.0


class TestContractedTransform:
    """On an exact point a datum is contracted first and integrated once."""

    @staticmethod
    def per_component(f, q, pt, fixed, derivs):
        # every jet entry integrated on its own, on a table of its own
        total = ExactValue.zero_value()
        for key in all_canonical_tuples(f.n, f.rank - len(fixed)):
            weight = tuple_multiplicity(key) * math.prod(pt.xi[j - 1] for j in key)
            comp = _jet(f, tuple(fixed) + key, derivs)
            total = total + line_moment(comp, q, pt.x, pt.xi).scaled(weight)
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
            assert not all(value.is_zero for _, value in pt.transforms.values())

    def test_zero_field_takes_no_integral(self):
        f = sym_field(3, 2)
        pt = random_phase_point(3, random.Random(39))
        for fixed, derivs in [((), ()), ((2,), (1,)), ((1, 3), (2, 2))]:
            assert _transform_value(f, 1, pt, fixed, derivs) is pt.zero
        assert pt.integrals == {}

    def test_equal_polynomials_share_one_integral(self, monkeypatch):
        calls = []
        original = moments.line_moment

        def counting(g, q, x, xi, table=None):
            calls.append(q)
            return original(g, q, x, xi, table)

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
        assert first == line_moment(a, 1, pt.x, pt.xi, LineTable(pt.x, pt.xi))


class TestValueDiff:
    def test_is_zero_only_for_an_exact_zero(self):
        zero = ExactValue.zero_value()
        tiny = ExactValue(Fraction(1, 10**400))
        huge = ExactValue(Fraction(10**400), Fraction(2), Fraction(-1))
        assert value_diff(tiny, zero) > 0.0
        assert 0.0 < value_diff(huge, zero) < math.inf
        assert value_diff(huge, huge) == 0.0
        assert value_diff(tiny, -tiny) > 0.0

    def test_exact_against_float_raises(self):
        tiny = ExactValue(Fraction(1, 10**400))
        with pytest.raises(TypeError):
            value_diff(tiny, 0.0)
        with pytest.raises(TypeError):
            value_diff(0.0, tiny)
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
        lam = math.sqrt(float(pt.xi_norm_sq()))
        lhs = extended_from_moments([i0], 0, pt, 2)
        assert float(lhs) == pytest.approx(lam * float(i0), rel=1e-13, abs=1e-300)

    def test_float_path(self):
        f = random_field(2, 1, 1, 51)
        pt = PhasePoint([0.4, -0.2], [1.1, 0.3])
        ts = pt.project()
        ivals = [float(moment_transform(f, ell, ts)) for ell in range(2)]
        lhs = extended_from_moments(ivals, 1, pt, 1)
        rhs = extended_transform(f, 1, pt)
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


class TestDerivativeRules:
    def test_translation_rule(self):
        # direction-contracted x-gradient of the zeroth transform vanishes
        rng = random.Random(18)
        f = random_field(2, 2, 2, 52)
        pt = random_phase_point(2, rng)
        e = MomentExpression.transform(f, 0)
        from raymoments.moments import directional_x_derivative
        assert directional_x_derivative(e, pt).is_zero

    def test_integration_by_parts(self):
        rng = random.Random(19)
        f = random_field(3, 1, 2, 53)
        from raymoments.moments import directional_x_derivative
        for k in (1, 2, 3):
            pt = random_phase_point(3, rng)
            lhs = directional_x_derivative(MomentExpression.transform(f, k), pt)
            rhs = extended_transform(f, k - 1, pt).scaled(-k)
            assert value_diff(lhs, rhs) == 0.0

    def test_euler_homogeneity_degree(self):
        rng = random.Random(20)
        from raymoments.moments import directional_xi_derivative
        for r in (0, 1, 2):
            g = random_field(2, r, 2, 54 + r)
            for q in (0, 1, 2):
                pt = random_phase_point(2, rng)
                lhs = directional_xi_derivative(MomentExpression.transform(g, q), pt)
                rhs = extended_transform(g, q, pt).scaled(r - q - 1)
                assert value_diff(lhs, rhs) == 0.0

    def test_john_degree_after_application(self):
        # once applied, the data is homogeneous of degree rank-2 in direction
        rng = random.Random(21)
        g = random_field(2, 2, 1, 55)
        from raymoments.moments import directional_xi_derivative
        e = john(MomentExpression.transform(g, 0), 1, 2)
        pt = random_phase_point(2, rng)
        lhs = directional_xi_derivative(e, pt)
        rhs = e.evaluate(pt).scaled(2 - 1 - 1)
        assert value_diff(lhs, rhs) == 0.0

    def test_rewrites_commute_structurally(self):
        f = random_field(2, 2, 1, 56)
        e = MomentExpression.transform(f, 1)
        one = dx(dxi(e, 2), 1)
        two = dxi(dx(e, 1), 2)
        assert [(c, a.fingerprint) for c, a in one.terms] == \
               [(c, a.fingerprint) for c, a in two.terms]

    def test_john_antisymmetry(self):
        f = random_field(2, 1, 1, 57)
        e = MomentExpression.transform(f, 0)
        one = john(e, 1, 2)
        two = john(e, 2, 1)
        assert [(c, a.fingerprint) for c, a in one.terms] == \
               [(-c, a.fingerprint) for c, a in two.terms]

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
        lhs = float(e.evaluate(pt))
        xf = [float(v) for v in pt.x]
        xif = [float(v) for v in pt.xi]
        rhs = 2 * (quad_transform(field_partial(restrict(g, (2,)), 1), 0, xf, xif)
                   - quad_transform(field_partial(restrict(g, (1,)), 2), 0, xf, xif))
        assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_zero_expression_evaluates_exactly_zero(self):
        pt = TSPoint([Fraction(0), Fraction(1)], [Fraction(1), Fraction(0)])
        value = MomentExpression.zero().evaluate(pt)
        assert isinstance(value, ExactValue) and value.is_zero

    def test_expression_linearity(self):
        rng = random.Random(23)
        f = random_field(2, 1, 1, 60)
        g = random_field(2, 1, 1, 61)
        pt = random_phase_point(2, rng)
        e1 = MomentExpression.transform(f, 0)
        e2 = MomentExpression.transform(g, 1)
        c = Fraction(5, 3)
        lhs = (e1 * c + e2).evaluate(pt)
        rhs = e1.evaluate(pt).scaled(c) + e2.evaluate(pt)
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
    """Atoms read the field's jet; the reference builds every derived field."""

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
                            lhs = MomentAtom(q, f, fixed, derivs).value(pt)
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
        assert e.evaluate(pt) == rhs

    def test_point_memo_keeps_fields_apart(self):
        rng = random.Random(80)
        pt = random_phase_point(2, rng)
        f = random_field(2, 2, 2, 81)
        g = random_field(2, 2, 2, 82)
        for h in (f, g, f, g):
            e = john(MomentExpression.transform(h, 0, (1,)), 1, 2)
            assert e.evaluate(pt) == e.evaluate(PhasePoint(pt.x, pt.xi))
        # fields freed between evaluations must not be mistaken for new ones
        for seed in range(20):
            e = MomentExpression.transform(random_field(2, 1, 1, seed), 0)
            assert e.evaluate(pt) == e.evaluate(PhasePoint(pt.x, pt.xi))
        # the memo holds every field it has a datum of, so no id was reused
        assert len({id(held) for held, _ in pt.transforms.values()}) == 22


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
                assert e.evaluate(pt) == table[key].scaled(sign), (ptuple, qt)
                chains += 1
        assert chains == (n * (n - 1)) ** (m - k)

    def test_chains_built_once_per_field_and_fixed_multiset(self, monkeypatch):
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
        # the table of values is built once per point
        assert _john_table(f, 1, (2,), pt) is table
        # however many points read the chains
        for _ in range(4):
            other = random_phase_point(3, rng)
            assert john_power_residual(f, 1, (2,), other) == 0.0
            assert collapsed_derivative_residual(f, 1, (2,), other) == 0.0
        assert _john_table(f, 1, (2,), PhasePoint(pt.x, pt.xi)) == table
        assert len(calls) == built
        # another fixed multiset or another field builds its own chains
        _john_table(f, 1, (3,), pt)
        assert len(calls) == 2 * built
        _john_table(random_field(3, 2, 1, "johnonce:other"), 1, (2,), pt)
        assert len(calls) == 3 * built
        # a fixed multiset is one, in whatever order its indices come
        g = random_field(3, 3, 1, "johnonce:rank3")
        _john_table(g, 2, (3, 1), pt)
        built_g = len(calls)
        _john_table(g, 2, (1, 3), PhasePoint(pt.x, pt.xi))
        assert len(calls) == built_g


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

    def test_rewrites_built_once_per_field_and_fixed_multiset(self, monkeypatch):
        # the John chains and the right side's dx chains are both held by the field
        calls = []
        original = moments.dx

        def counting(e, i):
            calls.append(i)
            return original(e, i)

        monkeypatch.setattr(moments, "dx", counting)
        f = random_field(3, 3, 1, "dxonce")
        rng = random.Random(43)
        assert collapsed_derivative_residual(f, 1, (2,), random_phase_point(3, rng)) == 0.0
        built = len(calls)
        assert built
        for _ in range(3):
            pt = random_phase_point(3, rng)
            assert collapsed_derivative_residual(f, 1, (2,), pt) == 0.0
        assert len(calls) == built

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
        total = MomentExpression.zero()
        for perm in rearr:
            e = MomentExpression.transform(f, 0, perm[mk:])
            for i in perm[:mk]:
                e = dx(e, i)
            total = total + e * weight
        values.append(total.evaluate(pt))
    return values


class TestSymmetrizedDerivative:
    @pytest.mark.parametrize("n,m,r", [(2, 3, r) for r in range(4)]
                             + [(3, 3, 1), (3, 2, 2), (2, 5, 0)])
    def test_matches_reference_off_the_kernel(self, monkeypatch, n, m, r):
        # every index tuple's value, as the residual hands it to value_diff
        seen = []
        monkeypatch.setattr(moments, "value_diff",
                            lambda a, b: seen.append(a) or value_diff(a, b))
        rng = random.Random(f"symref:{n}:{m}:{r}")
        for trial in range(2):
            f = random_field(n, m, 2, f"symref:{n}:{m}:{r}:{trial}")
            pt = random_phase_point(n, rng)
            seen.clear()
            residual = symmetrized_derivative_residual(f, r, pt)
            # a fresh point, so that no memoized datum is shared
            expected = _reference_symmetrized_derivative(f, r, PhasePoint(pt.x, pt.xi))
            assert seen == expected
            assert residual == max(map(moments.magnitude, expected)) > 0.0

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
