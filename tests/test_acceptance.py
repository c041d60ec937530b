"""Acceptance criteria, one test per criterion, at the stated tolerances.

Each test prints a single summary line (visible with ``pytest -s``); the
pytest verdict per test is the pass/fail record.  Exact-arithmetic criteria
demand literal zeros; float-path criteria compare against their tolerance.
"""

import itertools
import math
import random
from fractions import Fraction

import pytest

import raymoments.diffops as diffops
import raymoments.moments as moments
from raymoments import (
    SuiteConfig,
    alternated_derivative,
    alternated_from_saint_venant,
    collapsed_derivative_residual,
    extended_from_moments,
    extended_transform,
    field_scale_report,
    generalized_saint_venant,
    generate_potential,
    john_power_residual,
    line_moment,
    line_moment_quadrature,
    moment_stack,
    moment_transform,
    random_field,
    random_float_ts_point,
    random_phase_point,
    random_ts_point,
    recover_restricted,
    restrict,
    restriction_relation_residual,
    saint_venant,
    saint_venant_from_alternated,
    suite_identities,
    suite_kernel,
    sym_field,
    symmetrization_split_residual,
    symmetrize,
)
from raymoments.moments import MomentExpression, value_diff
from raymoments.moments import directional_x_derivative, directional_xi_derivative
from raymoments.polygauss import PolyGauss, quadrature_mass, random_polynomial
from conftest import random_raw

KERNEL_RANGES = [(n, m, k) for n in (2, 3) for m in (1, 2, 3) for k in range(m)]


def announce(num, name, passed, detail):
    print(f"criterion {num:02d} {name}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"criterion {num:02d} {name}: {detail}"


def test_criterion_01_kernel_forward():
    worst_ratio = 0.0
    for (n, m, k) in KERNEL_RANGES:
        for seed in range(5):
            _, f = generate_potential(n, m, k, 2, seed=f"acc1:{n}:{m}:{k}:{seed}")
            scale = max(float(field_scale_report(f)), 1e-30)
            assert generalized_saint_venant(f, k).is_zero(), (n, m, k, seed)
            rng = random.Random(f"acc1pts:{n}:{m}:{k}:{seed}")
            points = [random_ts_point(n, rng) for _ in range(10)]
            points += [random_float_ts_point(n, rng) for _ in range(10)]
            worst = 0.0
            for pt in points:
                for value in moment_stack(f, k, pt):
                    worst = max(worst, abs(float(value)))
            worst_ratio = max(worst_ratio, worst / scale)
            assert worst <= 1e-10 * scale, (n, m, k, seed, worst)
    announce(1, "kernel-forward", True,
             f"60 potentials, worst moment/scale = {worst_ratio:.2e}")


def test_criterion_02_kernel_separation():
    successes = 0
    resamples = 0
    for seed in range(100):
        n, m, k = KERNEL_RANGES[seed % len(KERNEL_RANGES)]
        f = random_field(n, m, 2, f"acc2:{seed}")
        if f.is_zero():
            continue
        if generalized_saint_venant(f, k).is_zero():
            continue
        rng = random.Random(f"acc2pts:{seed}")
        witness = 0.0
        count = 20
        for round_ in range(3):
            for _ in range(count):
                pt = random_ts_point(n, rng)
                for value in moment_stack(f, k, pt):
                    witness = max(witness, abs(float(value)))
            if witness > 1e-6:
                break
            resamples += 1
            count *= 2
        if witness > 1e-6:
            successes += 1
    announce(2, "kernel-separation", successes >= 99,
             f"{successes}/100 separated, {resamples} resampling rounds")


def test_criterion_03_moment_conversion():
    combos = [(n, m) for n in (2, 3) for m in (1, 2, 3)]
    fields = {(n, m): random_field(n, m, 2, f"acc3:{n}:{m}") for n, m in combos}
    rng = random.Random("acc3pts")
    worst = 0.0
    for trial in range(50):
        n, m = combos[trial % len(combos)]
        f = fields[(n, m)]
        q = trial % 4
        pt = random_phase_point(n, rng)
        ts = pt.project()
        ivals = [moment_transform(f, ell, ts) for ell in range(q + 1)]
        lhs = extended_from_moments(ivals, q, pt, m)
        rhs = extended_transform(f, q, pt)
        rel = value_diff(lhs, rhs) / max(1.0, abs(float(lhs)), abs(float(rhs)))
        worst = max(worst, rel)
        assert rel <= 1e-10, (n, m, q, trial)
    announce(3, "moment-conversion", True, f"50 points, worst relative = {worst:.2e}")


def test_criterion_04_alternation_equivalence():
    for n in (2, 3):
        for m in (1, 2, 3):
            f = random_field(n, m, 2, f"acc4:{n}:{m}")
            alt = alternated_derivative(f)
            w = saint_venant_from_alternated(alt)
            assert (w - saint_venant(f)).is_zero(), (n, m)
            assert (alternated_from_saint_venant(w) - alt).is_zero(), (n, m)
    announce(4, "alternation-equivalence", True,
             "exact equality and round-trip for n <= 3, m <= 3")


def test_criterion_05_restricted_recovery():
    rng = random.Random("acc5pts")
    pick = random.Random("acc5idx")
    worst = 0.0
    for trial in range(20):
        n = 2 + trial % 2
        m = 1 + trial % 3
        f = random_field(n, m, 2, f"acc5:{n}:{m}")
        r = trial % (m + 1)
        fixed = tuple(pick.randint(1, n) for _ in range(r))
        pt = random_phase_point(n, rng)
        lhs = recover_restricted(f, fixed, pt)
        rhs = extended_transform(restrict(f, fixed), 0, pt)
        res = value_diff(lhs, rhs)
        worst = max(worst, res)
        assert res <= 1e-9, (n, m, fixed, trial)
    announce(5, "restricted-recovery", True, f"20 points, worst = {worst:.2e}")


def test_criterion_06_john_power_and_collapse():
    rng = random.Random("acc6pts")
    pick = random.Random("acc6idx")
    worst = 0.0
    for (n, m, k) in [(2, 2, 0), (2, 2, 1), (3, 3, 1), (3, 3, 2)]:
        f = random_field(n, m, 2, f"acc6:{n}:{m}:{k}")
        for _ in range(10):
            fixed = tuple(pick.randint(1, n) for _ in range(k))
            pt = random_phase_point(n, rng)
            res = max(john_power_residual(f, k, fixed, pt),
                      collapsed_derivative_residual(f, k, fixed, pt))
            worst = max(worst, res)
            assert res <= 1e-9, (n, m, k)
    announce(6, "john-power-collapse", True,
             f"4 configurations x 10 points, worst = {worst:.2e}")


def test_criterion_07_restriction_and_split_exact():
    sym_rng = random.Random("acc7blocks")
    for n in (2, 3):
        for m in (1, 2, 3):
            f = random_field(n, m, 2, f"acc7:{n}:{m}")
            for k in range(min(2, m - 1) + 1):
                assert restriction_relation_residual(f, k) == 0, (n, m, k)
            for k in range(min(2, m) + 1):
                t = random_raw(n, m, sym_rng)
                if m - k >= 2:
                    t = symmetrize(t, tuple(range(1, m - k + 1)))
                if k >= 2:
                    t = symmetrize(t, tuple(range(m - k + 1, m + 1)))
                assert symmetrization_split_residual(t, k) == 0, (n, m, k)
    announce(7, "restriction-and-split", True,
             "exact zeros over all index tuples, (n, m, k) <= (3, 3, 2)")


def test_criterion_08_transport_and_euler():
    rng = random.Random("acc8pts")
    worst = 0.0
    for k in (1, 2, 3):
        f = random_field(2, 2, 2, f"acc8:{k}")
        for _ in range(5):
            pt = random_phase_point(2, rng)
            lhs = directional_x_derivative(MomentExpression.transform(f, k), f, pt)
            rhs = extended_transform(f, k - 1, pt).scaled(-k)
            res = value_diff(lhs, rhs)
            worst = max(worst, res)
            assert res <= 1e-10, ("transport", k)
    for r in (0, 1, 2, 3):
        g = random_field(2, r, 1, f"acc8euler:{r}")
        for q in (0, 1, 2, 3):
            pt = random_phase_point(2, rng)
            lhs = directional_xi_derivative(MomentExpression.transform(g, q), g, pt)
            rhs = extended_transform(g, q, pt).scaled(r - q - 1)
            res = value_diff(lhs, rhs)
            worst = max(worst, res)
            assert res <= 1e-10, ("euler", r, q)
    announce(8, "transport-and-euler", True, f"worst residual = {worst:.2e}")


def test_criterion_09_quadrature_oracle():
    rng = random.Random("acc9")
    worst = 0.0
    for trial in range(200):
        n = rng.choice((2, 3))
        g = PolyGauss(random_polynomial(n, rng.randint(0, 3), rng))
        q = rng.randint(0, 3)
        x = [Fraction(rng.randint(-4, 4), rng.choice((2, 3))) for _ in range(n)]
        xi = [Fraction(rng.randint(-3, 3), rng.choice((1, 2))) for _ in range(n)]
        if not any(xi):
            xi[0] = Fraction(1)
        closed = float(line_moment(g, q, x, xi))
        quad = line_moment_quadrature(g, q, x, xi)
        scale = max(abs(closed), abs(quad), quadrature_mass(g, q, x, xi), 1e-300)
        rel = abs(closed - quad) / scale
        worst = max(worst, rel)
        assert rel <= 1e-12, (trial, closed, quad)
    announce(9, "quadrature-oracle", True, f"200 triples, worst relative = {worst:.2e}")


def test_criterion_10_mutation_sensitivity(monkeypatch):
    kernel_config = SuiteConfig(n=2, m=2, k=0, seed=7, samples=5)
    ident_config = SuiteConfig(n=2, m=2, k=1, seed=7, samples=5)
    original_series = diffops._series_term
    original_recovery = moments._recovery_term
    outcomes = []

    def run_with(series=None, recovery=None):
        monkeypatch.setattr(diffops, "_series_term", series or original_series)
        monkeypatch.setattr(moments, "_recovery_term",
                            recovery or original_recovery)
        kernel_fails = not suite_kernel(kernel_config).passed
        ident_fails = not suite_identities(ident_config).passed
        return kernel_fails or ident_fails

    for ell in range(3):
        for mutate in (lambda v: -v, lambda v: 2 * v):
            def series(count, e, _ell=ell, _mut=mutate):
                value = original_series(count, e)
                return _mut(value) if e == _ell else value
            outcomes.append(run_with(series=series))
    for p in range(3):
        for mutate in (lambda v: -v, lambda v: 2 * v):
            def recovery(r, pp, _p=p, _mut=mutate):
                value = original_recovery(r, pp)
                return _mut(value) if pp == _p else value
            outcomes.append(run_with(recovery=recovery))
    monkeypatch.setattr(diffops, "_series_term", original_series)
    monkeypatch.setattr(moments, "_recovery_term", original_recovery)
    announce(10, "mutation-sensitivity", all(outcomes),
             f"{sum(outcomes)}/{len(outcomes)} mutations detected")
