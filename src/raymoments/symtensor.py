"""Sparse storage and index algebra for symmetric and block-symmetric tensors.

Tensors are stored as mappings from canonical index tuples to scalar values,
with missing keys meaning zero.  Indices are 1-based and the canonical form of
a symmetric index group is the non-decreasing ordering.  The scalar type is
generic: anything supporting addition with itself and multiplication by
``fractions.Fraction`` works (rationals, floats, polynomial-Gaussian values).
"""

from __future__ import annotations

import functools
import itertools
import math
from fractions import Fraction
from typing import Any, Iterable, Iterator, Sequence

Index = tuple[int, ...]


def canonical(indices: Iterable[int]) -> Index:
    """Return the canonical (non-decreasing) form of an index tuple."""
    return tuple(sorted(indices))


def _check_indices(indices: Sequence[int], n: int) -> Index:
    idx = tuple(indices)
    for i in idx:
        if not isinstance(i, int) or isinstance(i, bool) or not 1 <= i <= n:
            raise ValueError(f"index {i!r} outside [1, {n}]")
    return idx


def _check_group(indices: Sequence[int], n: int, rank: int) -> Index:
    idx = _check_indices(indices, n)
    if len(idx) != rank:
        raise ValueError(f"index group {idx} has length {len(idx)}, expected {rank}")
    return idx


def all_canonical_tuples(n: int, rank: int) -> Iterator[Index]:
    """All canonical index tuples of the given rank, in lexicographic order."""
    return itertools.combinations_with_replacement(range(1, n + 1), rank)


def tuple_multiplicity(indices: Sequence[int]) -> int:
    """Number of distinct rearrangements of an index tuple."""
    mult = math.factorial(len(indices))
    for _, count in _row((i, 1) for i in indices)[1]:  # each letter's count
        mult //= math.factorial(count)
    return mult


def distinct_rearrangements(indices: Sequence[int]) -> list[Index]:
    """All distinct orderings of an index tuple (each exactly once), sorted."""
    return list(_rearrangements(canonical(indices)))


@functools.lru_cache(maxsize=256)
def _rearrangements(key: Index) -> tuple:
    """The distinct orderings of the canonical ``key``, in lexicographic order.

    Each distinct letter, smallest first, leads the orderings of the rest,
    so every ordering is built once, however many letters repeat.
    """
    if not key:
        return ((),)
    return tuple((a, *rest) for j, a in enumerate(key) if not j or a != key[j - 1]
                 for rest in _rearrangements(key[:j] + key[j + 1:]))


def _row(parts, den: int = 1) -> tuple:
    """``(address, int weight)`` parts over the int ``den`` > 0 as one row ``(den, entries)``.

    The one form of a ``diffops`` stencil row and a moment expression: parts merged
    per address in first-seen order, zeros dropped, ``den`` and weights divided by their gcd.
    """
    summed: dict = {}
    for address, weight in parts:
        summed[address] = summed.get(address, 0) + weight
    g = math.gcd(den, *summed.values())
    return den // g, tuple([(address, weight // g)
                            for address, weight in summed.items() if weight])


def _multiset_difference(key: tuple, sub: tuple) -> tuple:
    """The index tuple ``key`` with the sub-multiset ``sub`` taken out."""
    rest = list(key)
    for i in sub:
        rest.remove(i)
    return tuple(rest)


class _SparseTensor:
    """Sparse storage and linear arithmetic shared by the tensor kinds.

    A kind passes its ``shape`` (the ranks of its index groups) and supplies
    ``_key``, which validates a key and returns its canonical form.  Storage
    keeps one value per canonical key and never stores the zero scalar.
    """

    def __init__(self, n: int, shape: tuple, components: dict | None, zero: Any):
        if n < 1:
            raise ValueError("dimension must be positive")
        if min(shape) < 0:
            raise ValueError("ranks must be non-negative")
        self.n = n
        self.shape = shape
        self.zero = zero
        data = {}
        for key, value in (components or {}).items():
            idx = self._key(key)
            if idx in data:
                raise ValueError(f"duplicate canonical key {idx}")
            if value != zero:
                data[idx] = value
        self.components = data

    @classmethod
    def _trusted(cls, n: int, shape: tuple, data: dict, zero: Any):
        """A tensor that keeps ``data`` as it is, without checking a key.

        Every key of ``data`` must be canonical and no value the zero
        scalar: the operators' stencil rows are keyed so, and the rows that
        sum to zero are left out.
        """
        out = cls(n, *shape, zero=zero)
        out.components = data
        return out

    def _like(self, data: dict):
        """Same kind and shape, over keys that are canonical already."""
        return self._trusted(self.n, self.shape,
                             {k: v for k, v in data.items() if v != self.zero}, self.zero)

    def get(self, indices: Sequence[int]):
        return self.components.get(self._key(indices), self.zero)

    def items(self):
        return sorted(self.components.items())

    def is_zero(self) -> bool:
        return not self.components

    def _compat(self, other) -> None:
        if type(other) is not type(self):
            raise TypeError(f"expected a {type(self).__name__}")
        if self.n != other.n or self.shape != other.shape:
            raise ValueError("dimension or rank mismatch")

    def __add__(self, other):
        self._compat(other)
        data = dict(self.components)
        for key, value in other.components.items():
            data[key] = data[key] + value if key in data else value
        return self._like(data)

    def __sub__(self, other):
        """The difference; a component equal to the other side's drops out.

        Two components of equal stored form differ by zero, so they are
        compared, which is cheap, and only those that differ are subtracted.
        """
        self._compat(other)
        data = dict(self.components)
        for key, value in other.components.items():
            if key not in data:
                data[key] = -value
            elif data[key] == value:
                del data[key]
            else:
                data[key] = data[key] - value
        return self._like(data)

    def __mul__(self, coef):
        if isinstance(coef, int):
            coef = Fraction(coef)
        return self._like({k: v * coef for k, v in self.components.items()})

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        return (type(other) is type(self) and self.n == other.n
                and self.shape == other.shape and self.components == other.components)

    def __repr__(self) -> str:
        shape = self.shape
        ranks = f"rank={shape[0]}" if len(shape) == 1 else f"ranks={shape}"
        return f"{type(self).__name__}(n={self.n}, {ranks}, nnz={len(self.components)})"


class SymTensor(_SparseTensor):
    """A fully symmetric tensor over an arbitrary scalar type.

    Component lookup accepts the indices in any order.  ``jet`` memoizes
    the partial derivatives of the components that the operators read (see
    polygauss._jet), and ``_alternated`` the alternated derivatives of the
    field per sorted fixed multiset (see diffops._alternated); both stay
    valid because a tensor is never changed after it is built.
    """

    def __init__(self, n: int, rank: int, components: dict | None = None,
                 zero: Any = Fraction(0)):
        self.rank = rank
        self.jet = {}
        self._alternated = {}
        super().__init__(n, (rank,), components, zero)

    def _key(self, key) -> Index:
        return canonical(_check_group(key, self.n, self.rank))


class BiSymTensor(_SparseTensor):
    """A tensor with two independently symmetric index groups.

    Symmetric within each group, with no symmetry across groups.
    """

    def __init__(self, n: int, rank1: int, rank2: int,
                 components: dict | None = None, zero: Any = Fraction(0)):
        self.rank1 = rank1
        self.rank2 = rank2
        super().__init__(n, (rank1, rank2), components, zero)

    def _key(self, key) -> tuple[Index, Index]:
        k1, k2 = key
        return (canonical(_check_group(k1, self.n, self.rank1)),
                canonical(_check_group(k2, self.n, self.rank2)))

    def get(self, group1: Sequence[int], group2: Sequence[int]):
        return self.components.get(self._key((group1, group2)), self.zero)


class RawTensor(_SparseTensor):
    """A tensor with no index symmetry, keyed by full index tuples."""

    def __init__(self, n: int, rank: int, components: dict | None = None,
                 zero: Any = Fraction(0)):
        self.rank = rank
        super().__init__(n, (rank,), components, zero)

    def _key(self, key) -> Index:
        return _check_group(key, self.n, self.rank)


def _check_positions(positions: Sequence[int], rank: int) -> tuple[int, ...]:
    pos = tuple(positions)
    if len(set(pos)) != len(pos):
        raise ValueError("positions must be distinct")
    for p in pos:
        if not isinstance(p, int) or isinstance(p, bool) or not 1 <= p <= rank:
            raise ValueError(f"position {p!r} outside [1, {rank}]")
    return pos


def _orbits(keys, slots: list) -> Iterator[list]:
    """The orbits of ``keys`` under rearranging the 0-based ``slots``, each listed once."""
    seen: set = set()
    for key in keys:
        if key in seen:
            continue
        orbit = []
        for arr in _rearrangements(canonical(key[s] for s in slots)):
            new = list(key)
            for s, v in zip(slots, arr):
                new[s] = v
            orbit.append(tuple(new))
        seen.update(orbit)
        yield orbit


def _over_lcm(values: dict) -> tuple[dict, int]:
    """Ints, Fractions or floats as int numerators over the lcm of their denominators."""
    ratios = {key: v.as_integer_ratio() for key, v in values.items()}
    den = math.lcm(*(d for _, d in ratios.values()))
    return {key: num * (den // d) for key, (num, d) in ratios.items()}, den


def symmetrize(t: RawTensor, positions: Sequence[int]) -> RawTensor:
    """Average a raw tensor over all permutations of the selected positions.

    A linear projector: symmetric in the selected positions, identity on the
    rest.  Averaging runs over distinct rearrangements only, which gives the
    same result as the full permutation average.  The members of an orbit
    share their average, so it is taken once per orbit and written to each.
    On Fractions an orbit's sum is one int sum over the tensor's common
    denominator (``_over_lcm``); other scalars are added as they are.
    """
    pos = _check_positions(positions, t.rank)
    if not pos:
        raise ValueError("position set must be non-empty")
    values, zero = t.components, t.zero
    nums, den = (_over_lcm(values) if all(type(v) is Fraction for v in values.values())
                 else (None, 0))
    data = {}
    for orbit in _orbits(values, [p - 1 for p in pos]):
        if den:
            total = sum(map(nums.get, orbit, itertools.repeat(0)))
            acc = Fraction(total, den * len(orbit)) if total else zero
        else:
            total = sum(map(values.get, orbit, itertools.repeat(zero)), zero)
            acc = total * Fraction(1, len(orbit))
        if acc != zero:
            data.update(dict.fromkeys(orbit, acc))
    return t._trusted(t.n, t.shape, data, zero)


def alternate(t: RawTensor, pos_pair: tuple[int, int]) -> RawTensor:
    """Antisymmetrize a raw tensor in a pair of positions.

    Returns (t - t with the two positions swapped) / 2.
    """
    a, b = pos_pair
    if a == b:
        raise ValueError("alternation positions must be distinct")
    _check_positions((a, b), t.rank)
    sa, sb = a - 1, b - 1

    def swapped(idx: Index) -> Index:
        new = list(idx)
        new[sa], new[sb] = new[sb], new[sa]
        return tuple(new)

    orbit = set(t.components)
    orbit.update(swapped(k) for k in t.components)
    half = Fraction(1, 2)
    data = {}
    for key in orbit:
        data[key] = (t.get(key) - t.get(swapped(key))) * half
    return RawTensor(t.n, t.rank, data, t.zero)


def restriction_indices(f: SymTensor, fixed: Sequence[int]) -> Index:
    """Validate indices to fix in a symmetric tensor; returns them as a tuple."""
    fixed = _check_indices(fixed, f.n)
    if len(fixed) > f.rank:
        raise ValueError(f"cannot fix {len(fixed)} indices of a rank-{f.rank} tensor")
    return fixed


def restrict(f: SymTensor, fixed: Sequence[int]) -> SymTensor:
    """Fix leading indices of a symmetric tensor, lowering its rank.

    The result at j-indices is the component of ``f`` at (fixed, j-indices);
    by symmetry the choice of slots is immaterial.
    """
    fixed = restriction_indices(f, fixed)
    rank = f.rank - len(fixed)
    data = {}
    for key in all_canonical_tuples(f.n, rank):
        value = f.get(fixed + key)
        if value != f.zero:
            data[key] = value
    return SymTensor(f.n, rank, data, f.zero)
