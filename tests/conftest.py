import itertools
import math
import random
from fractions import Fraction

import pytest

from raymoments import (
    LineTable,
    PolyGauss,
    Polynomial,
    RawTensor,
    SymTensor,
    line_moment,
    line_moment_quadrature,
    tuple_multiplicity,
)
from raymoments.polygauss import quadrature_mass, random_polynomial


def brute_symmetrize(t: RawTensor, positions) -> RawTensor:
    """Reference symmetrization: plain average over all |group|! permutations."""
    slots = [p - 1 for p in positions]
    perms = list(itertools.permutations(slots))
    keys = set()
    for key in t.components:
        for perm in perms:
            new = list(key)
            for dst, src in zip(slots, perm):
                new[dst] = key[src]
            keys.add(tuple(new))
    data = {}
    for key in keys:
        acc = t.zero
        for perm in perms:
            new = list(key)
            for dst, src in zip(slots, perm):
                new[dst] = key[src]
            acc = acc + t.get(tuple(new))
        data[key] = acc * Fraction(1, len(perms))
    return RawTensor(t.n, t.rank, data, t.zero)


def quad_transform(f: SymTensor, q: int, x, xi) -> float:
    """Float transform evaluated through the quadrature oracle, component-wise."""
    xf = [float(v) for v in x]
    xif = [float(v) for v in xi]
    total = 0.0
    for key, comp in f.items():
        weight = float(tuple_multiplicity(key))
        for j in key:
            weight *= xif[j - 1]
        if weight:
            total += weight * line_moment_quadrature(comp, q, xf, xif)
    return total


def termwise_mass(g: PolyGauss, q: int, x, xi) -> float:
    """The sum over g's terms c_e x^e of |c_e| times the quadrature mass of x^e.

    A scale for the float error of a line integral that does not cancel:
    where g vanishes on the line, the quadrature mass of g itself is only
    rounding noise, while every term still rounds on its own.
    """
    return sum(abs(coef) * quadrature_mass(PolyGauss(Polynomial(g.n, {e: 1})), q, x, xi)
               for e, coef in g.poly.terms.items())


def assert_same_table(got: LineTable, want: LineTable, rng: random.Random) -> None:
    """Two tables of one line agree on every scalar, and on their rows after the same integrals."""
    names = [name for name in LineTable.__slots__ if name != "rows"]
    assert [getattr(got, name) for name in names] == [getattr(want, name) for name in names]
    assert [type(getattr(got, name)) for name in names] == [
        type(getattr(want, name)) for name in names]
    scalars = ("x", "xi", "s", "c", "mean", "var")
    assert [getattr(got, a) for a in scalars] == [getattr(want, a) for a in scalars]
    g = PolyGauss(random_polynomial(len(got.x), rng.randint(0, 4), rng))
    for q in range(3):
        assert line_moment(g, q, got) == line_moment(g, q, want)
    assert got.rows == want.rows


def count_fractions(monkeypatch, fn, *args):
    """The number of Fractions built by ``fn(*args)``, and its result."""
    built = []
    new = Fraction.__new__

    def counting(cls, *a, **k):
        built.append(cls)
        return new(cls, *a, **k)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counting)
        result = fn(*args)
    return len(built), result


def random_raw(n: int, rank: int, rng: random.Random) -> RawTensor:
    data = {}
    for idx in itertools.product(range(1, n + 1), repeat=rank):
        num = rng.randint(-9, 9)
        if num:
            data[idx] = Fraction(num, rng.choice((1, 2, 3)))
    return RawTensor(n, rank, data)


@pytest.fixture
def rng():
    return random.Random(20240811)
