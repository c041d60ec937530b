"""Seeded verification suites and the command line entry point.

Two suites: ``kernel`` exercises the kernel correspondence between the
generalized Saint Venant operator and the moment transform stack (potential
fields land in both kernels, generic fields in neither), and ``identities``
re-derives every transform-level and operator-level identity on random data.
Reports are deterministic in the configuration and are emitted as text, json
or csv, one record per check.

Every check is decided by an exact zero.  The suites sample only rational
points, so every residual is computed in exact arithmetic: a Fraction, or
the ``value_diff`` magnitude of an exact difference, which is 0.0 only for
an exact zero.  An identity passes iff its residual is zero; a witness check
(a quantity that must be nonzero) passes iff its residual, the witness
magnitude, is nonzero.  There is no tolerance.

The command line (``main``) reads its ten flags from one table,
``_OPTIONS``, with the stdlib ``getopt``: ``--name value``, ``--name=value``
and unique prefixes, as argparse reads them.  A bad flag, a bad or
mismatched field file, a run over the size budget (``TABLE_BUDGET``,
``SAMPLES_BUDGET``) and an ``--out`` file that cannot be written all exit
with code 2 and argparse's ``usage:`` and ``raymoments: error:`` lines on
stderr, before any check runs; an over-budget run exits before it builds
any field, point or polynomial.
"""

from __future__ import annotations

import contextlib
import csv
import getopt
import io
import itertools
import json
import math
import random
import re
import sys
from dataclasses import dataclass, field as dc_field
from fractions import Fraction

from .diffops import (
    _alternated,
    alternated_from_saint_venant,
    generalized_saint_venant,
    iterate_d,
    restriction_relation_residual,
    saint_venant,
    saint_venant_from_alternated,
)
from .moments import (
    MomentExpression,
    collapsed_derivative_residual,
    directional_x_derivative,
    directional_xi_derivative,
    extended_from_moments,
    extended_transform,
    john_power_residual,
    magnitude,
    moment_stack,
    moment_transform,
    random_phase_point,
    random_ts_point,
    recover_restricted,
    restriction_contraction_residual,
    symmetrization_split_residual,
    symmetrized_derivative_residual,
    value_diff,
)
from .polygauss import PolyGauss, Polynomial, field_scale_report, random_field, sym_field
from .symtensor import (
    BiSymTensor,
    RawTensor,
    SymTensor,
    restrict,
    symmetrize,
)

IDENTITY_CATALOG = {
    "moment-conversion": "extended transform rebuilt from the moment stack on the projected line",
    "sv-alternation-equivalence": "Saint Venant operator equals the pair-symmetrized alternated derivative",
    "sv-alternation-roundtrip": "alternated derivative recovered from Saint Venant output by scaled alternations",
    "restriction-relation": "order-k operator equals symmetrized Saint Venant of the k-fold restrictions",
    "partial-symmetrization": "full symmetrization splits into rotation terms on block-symmetric tensors",
    "restricted-recovery": "restricted-field transform recovered from mixed derivatives of moment data",
    "john-power": "iterated John operator equals the scaled transform of the alternated derivative",
    "collapsed-derivative": "direction-contracted John data collapses to pure spatial derivatives",
    "restriction-contraction": "deeper restriction transform equals direction contraction of the shallower one",
    "integration-by-parts": "direction-contracted spatial gradient lowers the moment order with factor -k",
    "translation-invariance": "zeroth moment data is constant along the ray direction",
    "euler-degree": "direction-contracted direction gradient scales data by its homogeneity degree",
}

KERNEL_CATALOG = {
    "potential-exact-kernel": "potential fields are annihilated exactly by the order-k operator",
    "potential-moments-vanish": "potential fields have vanishing moment stack on sampled lines",
    "potential-symmetrized-derivative": "symmetrized spatial derivatives of restricted moment data vanish on kernel fields",
    "separation-operator-witness": "a generic field has a nonzero operator component",
    "separation-moment-witness": "a generic field has a nonzero moment sample",
    "degenerate-top-order": "the top-order operator acts as the identity",
}

# checks that pass on a nonzero residual; every other check needs a zero
WITNESS_CHECKS = {"separation-operator-witness", "separation-moment-witness"}


@dataclass
class SuiteConfig:
    n: int = 2
    m: int = 2
    k: int = 1
    seed: int = 7
    degree: int = 2
    samples: int = 20
    fmt: str = "text"
    field: SymTensor | None = None

    def validate(self) -> None:
        if self.n < 2:
            raise ValueError("dimension n must be at least 2")
        if self.m < 0:
            raise ValueError("rank m must be non-negative")
        if not 0 <= self.k <= self.m:
            raise ValueError(f"order k={self.k} outside [0, m={self.m}]")
        if self.degree < 0:
            raise ValueError("degree must be non-negative")
        if self.samples < 1:
            raise ValueError("need at least one sample")
        if self.fmt not in ("json", "csv", "text"):
            raise ValueError(f"unknown format {self.fmt!r}")
        if self.field is not None:
            if self.field.n != self.n or self.field.rank != self.m:
                raise ValueError(
                    f"loaded field has (n, rank) = ({self.field.n}, "
                    f"{self.field.rank}), expected ({self.n}, {self.m})")

    def as_dict(self) -> dict:
        return {"n": self.n, "m": self.m, "k": self.k, "seed": self.seed,
                "degree": self.degree, "samples": self.samples,
                "format": self.fmt,
                "field_loaded": self.field is not None}


@dataclass
class CheckRecord:
    suite: str
    check_id: str
    identity: str
    residual: float
    passed: bool

    def as_dict(self) -> dict:
        # every check is decided exactly; the key stays for report readers
        return {"suite": self.suite, "check_id": self.check_id,
                "identity": self.identity, "residual": self.residual,
                "exact": True, "pass": self.passed}


@dataclass
class SuiteResult:
    name: str
    records: list = dc_field(default_factory=list)
    resamples: int = 0

    @property
    def passed(self) -> bool:
        return all(r.passed for r in self.records)

    def record(self, key: str, residual, tag: str = "") -> None:
        """Decide one check on its exact residual and keep it.

        ``residual`` is a Fraction or a ``value_diff`` magnitude; either is
        zero only for an exact zero.  The check id is ``key``, suffixed by
        ``tag`` when one is given.
        """
        catalog = KERNEL_CATALOG if self.name == "kernel" else IDENTITY_CATALOG
        passed = (residual != 0) == (key in WITNESS_CHECKS)
        self.records.append(CheckRecord(
            self.name, f"{key}-{tag}" if tag else key, catalog[key],
            magnitude(residual), passed))


def _nonzero_field(n: int, m: int, degree: int, seed: str) -> SymTensor:
    for attempt in range(16):
        f = random_field(n, m, degree, f"{seed}/{attempt}")
        if not f.is_zero():
            return f
    raise RuntimeError("failed to draw a nonzero random field")


def generate_potential(n: int, m: int, k: int, degree: int, seed):
    """A random generator field v and its (k+1)-fold inner derivative f.

    f lies in the kernel of the order-k operator and of the first k+1 moment
    transforms; the Gaussian factor supplies the decay of every iterate.
    """
    if k + 1 > m:
        raise ValueError(f"potential of order k={k} needs rank m > k, got m={m}")
    v = _nonzero_field(n, m - k - 1, degree, f"{seed}:potential")
    return v, iterate_d(v, k + 1)


def suite_kernel(config: SuiteConfig) -> SuiteResult:
    """Kernel correspondence checks for the configured (n, m, k)."""
    config.validate()
    n, m, k = config.n, config.m, config.k
    result = SuiteResult("kernel")
    rng = random.Random(f"{config.seed}:kernel:points")
    points = [random_ts_point(n, rng) for _ in range(config.samples)]

    if k < m:
        _, f = generate_potential(n, m, k, config.degree, f"{config.seed}:kernel")
        result.record("potential-exact-kernel",
                      field_scale_report(generalized_saint_venant(f, k)))
        result.record("potential-moments-vanish",
                      max(value_diff(value, pt.zero)
                          for pt in points for value in moment_stack(f, k, pt)))
        pp_rng = random.Random(f"{config.seed}:kernel:sym")
        sym_points = [random_phase_point(n, pp_rng) for _ in range(3)]
        result.record("potential-symmetrized-derivative",
                      max(symmetrized_derivative_residual(f, r, pt)
                          for r in range(k + 1) for pt in sym_points))
    else:
        f = _nonzero_field(n, m, config.degree, f"{config.seed}:kernel:top")
        wm = generalized_saint_venant(f, m)
        expected = BiSymTensor(n, 0, m, {((), key): val for key, val in f.items()},
                               zero=f.zero)
        result.record("degenerate-top-order", field_scale_report(wm - expected))

    sep_rng = random.Random(f"{config.seed}:kernel:separation")
    witness = 0.0
    op_witness = Fraction(0)
    for attempt in range(4):
        if config.field is not None:
            g = config.field
        else:
            g = _nonzero_field(n, m, config.degree,
                               f"{config.seed}:kernel:sep/{attempt}")
        op_witness = field_scale_report(generalized_saint_venant(g, k))
        if op_witness == 0:
            if config.field is not None:
                break  # a loaded kernel field cannot separate; report the failure
            result.resamples += 1
            continue
        sample_count = config.samples
        for round_ in range(3):
            pts = [random_ts_point(n, sep_rng) for _ in range(sample_count)]
            witness = max(value_diff(value, pt.zero)
                          for pt in pts for value in moment_stack(g, k, pt))
            if witness:
                break
            result.resamples += 1
            sample_count *= 2
        break
    result.record("separation-operator-witness", op_witness)
    result.record("separation-moment-witness", witness)
    return result


def _random_block_symmetric(n: int, m: int, k: int, rng: random.Random) -> RawTensor:
    data = {}
    for idx in itertools.product(range(1, n + 1), repeat=m):
        num = rng.randint(-9, 9)
        if num:
            data[idx] = Fraction(num, rng.choice((1, 2, 3)))
    t = RawTensor._trusted(n, (m,), data, Fraction(0))  # keys valid by construction
    if m - k >= 2:
        t = symmetrize(t, tuple(range(1, m - k + 1)))
    if k >= 2:
        t = symmetrize(t, tuple(range(m - k + 1, m + 1)))
    return t


def suite_identities(config: SuiteConfig) -> SuiteResult:
    """Every operator-level and transform-level identity on one random field."""
    config.validate()
    n, m, k = config.n, config.m, config.k
    result = SuiteResult("identities")
    record = result.record
    f = config.field if config.field is not None else _nonzero_field(
        n, m, config.degree, f"{config.seed}:identities:f")
    rng = random.Random(f"{config.seed}:identities:points")
    pick = random.Random(f"{config.seed}:identities:indices")

    # operator-level identities, certified by exact coefficient arithmetic
    if m >= 1:
        alt = _alternated(f, ())
        w_direct = saint_venant(f)
        w_from_alt = saint_venant_from_alternated(alt)
        record("sv-alternation-equivalence",
               field_scale_report(w_direct - w_from_alt))
        record("sv-alternation-roundtrip",
               field_scale_report(alternated_from_saint_venant(w_from_alt) - alt))
        record("restriction-relation",
               restriction_relation_residual(f, min(k, m - 1)))
    sym_rng = random.Random(f"{config.seed}:identities:blocksym")
    block = _random_block_symmetric(n, max(m, 1), min(k, max(m, 1)), sym_rng)
    record("partial-symmetrization",
           symmetrization_split_residual(block, min(k, max(m, 1))))

    # transform-level identities, one record per sampled line; each point
    # (the moment table of its line) is drawn and dropped with its sample,
    # while the base transforms serve every sample
    bases = [MomentExpression.transform(f, q) for q in range(max(k, 1) + 1)]
    for s_idx in range(config.samples):
        pt = random_phase_point(n, rng)
        tag = f"s{s_idx:02d}"

        q = s_idx % 4
        ts = pt.project()
        ivals = [moment_transform(f, ell, ts) for ell in range(q + 1)]
        record("moment-conversion",
               value_diff(extended_from_moments(ivals, q, pt, m),
                          extended_transform(f, q, pt)), tag)

        r = s_idx % (m + 1)
        fixed = tuple(pick.randint(1, n) for _ in range(r))
        record("restricted-recovery",
               value_diff(recover_restricted(f, fixed, pt),
                          extended_transform(restrict(f, fixed), 0, pt)), tag)

        if m >= 1:
            kk = min(k, m - 1)
            fixed_k = tuple(pick.randint(1, n) for _ in range(kk))
            record("john-power", john_power_residual(f, kk, fixed_k, pt), tag)
            record("collapsed-derivative",
                   collapsed_derivative_residual(f, kk, fixed_k, pt), tag)

        depth = s_idx % (k + 1)
        fixed_r = tuple(pick.randint(1, n) for _ in range(depth))
        record("restriction-contraction",
               restriction_contraction_residual(f, fixed_r, k, pt), tag)

        drift = value_diff(directional_x_derivative(bases[0], f, pt), pt.zero)
        moved = pt._translated(3)  # x + xi/3
        record("translation-invariance",
               max(drift, value_diff(extended_transform(f, 0, moved),
                                     extended_transform(f, 0, pt))), tag)

        qq = k if k >= 1 else 1
        lhs = directional_x_derivative(bases[qq], f, pt)
        rhs = extended_transform(f, qq - 1, pt)
        record("integration-by-parts", value_diff(lhs, rhs * -qq), tag)

        qe = s_idx % (k + 1)
        lhs = directional_xi_derivative(bases[qe], f, pt)
        rhs = extended_transform(f, qe, pt)
        record("euler-degree", value_diff(lhs, rhs * (m - qe - 1)), tag)

    return result


# The most entries one line table of a command line run may reach (see
# _run_cost), and the tables of all its samples, which the kernel suite
# draws up front.  The identities suite's dense block tensor
# (_random_block_symmetric, n^max(m, 1) entries) and its alternation reads
# (2^m for each of the C(C(n, 2) + m - 1, m) rows of
# diffops._alternation_stencil) are held to TABLE_BUDGET too.  A run
# estimated above any of them exits with code 2 before it builds any point
# or polynomial.  Library calls are not bounded.
TABLE_BUDGET = 100_000
SAMPLES_BUDGET = 20 * TABLE_BUDGET


def _run_cost(n: int, m: int, k: int, degree: int, which: str) -> tuple[int, int, int]:
    """The top polynomial degree of a run, and the dense and table sizes there.

    ``degree`` is the largest degree of a field the run draws or loads.  The
    kernel suite differentiates a degree-``degree`` potential k + 1 times
    and applies ``W^k``, which takes m derivatives for k < m and none for
    k = m, and integrates at orders up to k.  The identities suite takes at
    most max(m, 1) derivatives and integrates at orders up to
    max(3, k + 1).  A polynomial of degree D has up to C(D + n, n)
    numerators, and integrating polynomials of degree at most D at orders at
    most q fills at most C(D + q + n + 1, n + 1) entries of a line's table
    (see polygauss.LineTable).
    """
    suites = ("kernel", "identities") if which == "all" else (which,)
    order = max((m + k + 1 if k < m else 0) if name == "kernel" else max(m, 1)
                for name in suites)
    q = max(k if name == "kernel" else max(3, k + 1) for name in suites)
    top = degree + order
    return top, math.comb(top + n, n), math.comb(top + q + n + 1, n + 1)


def run_suites(config: SuiteConfig, which: str) -> list[SuiteResult]:
    if which == "kernel":
        return [suite_kernel(config)]
    if which == "identities":
        return [suite_identities(config)]
    if which == "all":
        return [suite_kernel(config), suite_identities(config)]
    raise ValueError(f"unknown suite {which!r}")


# ---------------------------------------------------------------------------
# field (de)serialization
# ---------------------------------------------------------------------------

class FieldParseError(ValueError):
    """Malformed field text; the message carries the position."""


def serialize_field(f: SymTensor) -> str:
    """Render a field as UTF-8 text with exact rational coefficients."""
    components = {}
    for key, value in f.items():
        key_str = ",".join(str(i) for i in key)
        components[key_str] = [
            {"exp": list(exps), "coef": f"{c.numerator}/{c.denominator}"}
            for exps, c in sorted(value.poly.terms.items())
        ]
    obj = {"n": f.n, "rank": f.rank, "components": components}
    return json.dumps(obj, indent=2) + "\n"


def _is_natural(value) -> bool:
    # JSON true/false arrive as bool, which Python counts as int
    return isinstance(value, int) and not isinstance(value, bool) and value >= 0


# the forms serialize_field writes, and nothing else
_COEF = re.compile(r"-?[0-9]+(/[0-9]+)?")
_INDEX = re.compile(r"[0-9]+")


def _parse_coef(text, where: str) -> Fraction:
    if not isinstance(text, str):
        raise FieldParseError(f"{where}: coefficient must be a string, "
                              f"got {type(text).__name__}")
    if not _COEF.fullmatch(text):
        raise FieldParseError(f"{where}: bad rational {text!r} (expected p or p/q)")
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise FieldParseError(f"{where}: bad rational {text!r} ({exc})") from None


def parse_field(text: str) -> SymTensor:
    """Parse serialized field text; inverse of serialize_field, exactly."""
    return _build_field(*_read_field(text))


def _build_field(n: int, rank: int, comps: dict) -> SymTensor:
    return sym_field(n, rank, {key: PolyGauss(Polynomial(n, terms))
                               for key, terms in comps.items()})


def _read_field(text: str) -> tuple:
    """Check serialized field text and return ``(n, rank, {key: {exps: Fraction}})``.

    Builds no polynomial, so that the command line can bound the run's cost
    by the field's degree first.
    """
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise FieldParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from None
    except (ValueError, RecursionError) as exc:  # an overlong integer, deep nesting
        raise FieldParseError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FieldParseError("top level must be an object")
    for name in ("n", "rank"):
        if not _is_natural(obj.get(name)):
            raise FieldParseError(f"field {name!r} must be a non-negative integer")
    n, rank = obj["n"], obj["rank"]
    if n < 1:
        raise FieldParseError("dimension n must be positive")
    components_obj = obj.get("components", {})
    if not isinstance(components_obj, dict):
        raise FieldParseError("'components' must be an object")
    comps = {}
    for key_str, terms in components_obj.items():
        where = f"component {key_str!r}"
        parts = key_str.split(",") if key_str else []
        if not all(_INDEX.fullmatch(part) for part in parts):
            raise FieldParseError(f"{where}: bad index tuple")
        try:
            indices = tuple(int(part) for part in parts)
        except ValueError:  # more digits than int() converts
            raise FieldParseError(f"{where}: bad index tuple") from None
        if len(indices) != rank:
            raise FieldParseError(f"{where}: expected {rank} indices")
        if any(not 1 <= i <= n for i in indices):
            raise FieldParseError(f"{where}: index outside [1, {n}]")
        key = tuple(sorted(indices))
        if key in comps:
            raise FieldParseError(f"{where}: duplicate canonical component")
        if not isinstance(terms, list):
            raise FieldParseError(f"{where}: terms must be a list")
        poly_terms = {}
        for t_idx, term in enumerate(terms):
            spot = f"{where}, term {t_idx}"
            if not isinstance(term, dict) or set(term) != {"exp", "coef"}:
                raise FieldParseError(f"{spot}: expected keys 'exp' and 'coef'")
            exps = term["exp"]
            if (not isinstance(exps, list) or len(exps) != n
                    or not all(_is_natural(e) for e in exps)):
                raise FieldParseError(f"{spot}: 'exp' must be {n} non-negative ints")
            exps = tuple(exps)
            if exps in poly_terms:
                raise FieldParseError(f"{spot}: duplicate exponent {list(exps)}")
            poly_terms[exps] = _parse_coef(term["coef"], spot)
        comps[key] = poly_terms
    return n, rank, comps


# ---------------------------------------------------------------------------
# report rendering and CLI
# ---------------------------------------------------------------------------

def _flat_encoder(depth: int) -> json.JSONEncoder:
    """The C encoder that writes the items of flat dicts one a line at ``depth``."""
    return json.JSONEncoder(separators=(",\n" + " " * depth, ": "))


def _is_flat(obj) -> bool:
    """Whether ``obj`` is a nonempty dict none of whose values is a dict or list."""
    return (type(obj) is dict and bool(obj)
            and not any(isinstance(v, (dict, list)) for v in obj.values()))


def _json_text(obj, depth: int = 0) -> str:
    """``json.dumps(obj, indent=2)`` at nesting ``depth``, through the C encoder.

    ``obj`` is built of str-keyed dicts, lists and JSON scalars.  With an
    indent, ``json.dumps`` runs CPython's pure-Python encoder.  Here the
    C encoder writes every flat dict (``_is_flat``), as every report record
    is, with the newline and indentation of its items as the item
    separator, and a list of flat dicts in one call: a real newline never
    occurs inside an encoded string, so ``},`` newline ``{`` occurs only
    between two of the dicts, where the indentation of the list's own items
    is put.  The lists and dicts above them are written with the same fixed
    indentation, so the bytes are those of ``json.dumps(obj, indent=2)``.
    """
    pad, inner = " " * depth, " " * (depth + 2)
    if type(obj) is list and obj:
        if all(map(_is_flat, obj)):
            sep = ",\n" + inner + "  "
            body = _flat_encoder(depth + 4).encode(obj)[2:-2].replace(
                "}" + sep + "{", "\n" + inner + "}," + "\n" + inner + "{\n" + inner + "  ")
            return "[\n" + inner + "{\n" + inner + "  " + body + "\n" + inner + "}\n" + pad + "]"
        items = (inner + _json_text(v, depth + 2) for v in obj)
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if _is_flat(obj):
        return "{\n" + inner + _flat_encoder(depth + 2).encode(obj)[1:-1] + "\n" + pad + "}"
    if type(obj) is dict and obj:
        items = (f"{inner}{json.dumps(key)}: {_json_text(v, depth + 2)}"
                 for key, v in obj.items())
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    return json.dumps(obj)


def render_report(results: list[SuiteResult], config: SuiteConfig, fmt: str) -> str:
    if fmt == "json":
        obj = {
            "config": config.as_dict(),
            "suites": [
                {"name": r.name, "pass": r.passed, "resamples": r.resamples,
                 "records": [rec.as_dict() for rec in r.records]}
                for r in results
            ],
            "pass": all(r.passed for r in results),
        }
        return _json_text(obj) + "\n"
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["suite", "check_id", "identity", "residual", "exact",
                         "pass"])
        for r in results:
            for rec in r.records:
                writer.writerow([rec.suite, rec.check_id, rec.identity,
                                 repr(rec.residual), True, rec.passed])
        return buf.getvalue()
    lines = [f"config: {config.as_dict()}"]
    for r in results:
        for rec in r.records:
            status = "PASS" if rec.passed else "FAIL"
            lines.append(f"[{status}] {rec.suite}/{rec.check_id} "
                         f"residual={rec.residual:.6e} (exact) :: {rec.identity}")
        lines.append(f"suite {r.name}: "
                     f"{'PASS' if r.passed else 'FAIL'} "
                     f"({len(r.records)} checks, {r.resamples} resamples)")
    lines.append("overall: " + ("PASS" if all(r.passed for r in results) else "FAIL"))
    return "\n".join(lines) + "\n"


# flag: (int, str for a file name, or the tuple of its choices; default; help line)
_OPTIONS = {
    "suite": (("kernel", "identities", "all"), "all", "suites to run"),
    "n": (int, 2, "ambient dimension"),
    "m": (int, 2, "tensor rank"),
    "k": (int, 1, "operator order"),
    "seed": (int, 7, "seed of the drawn fields and lines"),
    "degree": (int, 2, "polynomial degree of random fields"),
    "samples": (int, 20, "sampled lines per check family"),
    "format": (("json", "csv", "text"), "text", "report format"),
    "out": (str, None, "write the report to FILE instead of stdout"),
    "field": (str, None, "load the test field from FILE instead of drawing it from the seed"),
}
_USAGE = "usage: raymoments [-h] " + " ".join(
    f"[--{name} {name.upper() if kind is int else 'FILE' if kind is str else '{' + ','.join(kind) + '}'}]"
    for name, (kind, _, _) in _OPTIONS.items())


def _fail(message: str):
    """Exit with code 2 as argparse does: the usage line, then the error, on stderr."""
    sys.stderr.write(f"{_USAGE}\nraymoments: error: {message}\n")
    raise SystemExit(2)


def parse_args(argv=None) -> dict:
    """The flag values of ``argv`` (default ``sys.argv[1:]``), keyed as in _OPTIONS.

    As argparse would: ``--name value``, ``--name=value`` and unique
    prefixes are accepted and the last of a repeated flag wins; ``-h`` or
    ``--help`` prints the help and exits 0, and a bad argv exits 2.
    """
    try:
        opts, rest = getopt.getopt(sys.argv[1:] if argv is None else argv, "h",
                                   ["help", *(name + "=" for name in _OPTIONS)])
    except getopt.GetoptError as exc:
        _fail(str(exc))
    if rest:
        _fail(f"unrecognized arguments: {' '.join(rest)}")
    args = {name: default for name, (_, default, _) in _OPTIONS.items()}
    for flag, value in opts:
        name = flag.lstrip("-")
        if name in ("h", "help"):
            print(_USAGE, "", *(f"  --{option:<8} {text}" if default is None else
                                f"  --{option:<8} {text} (default: {default})"
                                for option, (_, default, text) in _OPTIONS.items()), sep="\n")
            raise SystemExit(0)
        kind = _OPTIONS[name][0]
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                _fail(f"argument --{name}: invalid int value: {value!r}")
        elif kind is not str and value not in kind:
            _fail(f"argument --{name}: invalid choice: {value!r} "
                  f"(choose from {', '.join(map(repr, kind))})")
        args[name] = value
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    config = SuiteConfig(n=args["n"], m=args["m"], k=args["k"], seed=args["seed"],
                         degree=args["degree"], samples=args["samples"], fmt=args["format"])
    try:
        config.validate()
    except ValueError as exc:
        _fail(str(exc))
    n, m, degree, raw = config.n, config.m, config.degree, None
    if args["field"] is not None:
        try:
            with open(args["field"], "r", encoding="utf-8") as handle:
                raw = _read_field(handle.read())
        except OSError as exc:
            _fail(f"cannot read field file: {exc}")
        except FieldParseError as exc:
            _fail(f"bad field file: {exc}")
        n = raw[0]
        degree = max(degree, max((sum(exps) for terms in raw[2].values()
                                  for exps in terms), default=0))
    top, dense, table = _run_cost(n, m, config.k, degree, args["suite"])
    if table > TABLE_BUDGET:
        _fail(f"run too large: polynomials of degree up to {top} in {n} "
              f"variables ({dense} coefficients each) need line tables of "
              f"up to {table} entries, over the limit of {TABLE_BUDGET}")
    if config.samples * table > SAMPLES_BUDGET:
        _fail(f"run too large: {config.samples} samples of line tables of up to "
              f"{table} entries, over the limit of {SAMPLES_BUDGET} in all")
    if args["suite"] != "kernel":  # the identities suite's sizes exponential in m
        for term, size in (("block tensor entries", n ** max(m, 1)),
                           ("alternation reads", math.comb(math.comb(n, 2) + m - 1, m) * 2 ** m)):
            if size > TABLE_BUDGET:
                _fail(f"run too large: the identities suite needs {size} {term}, "
                      f"over the limit of {TABLE_BUDGET}")
    if raw is not None:
        config.field = _build_field(*raw)
        try:
            config.validate()
        except ValueError as exc:
            _fail(str(exc))
    sink = contextlib.nullcontext(sys.stdout)
    if args["out"]:
        try:
            sink = open(args["out"], "w", encoding="utf-8")
        except OSError as exc:
            _fail(f"cannot write report file: {exc}")
    with sink as handle:
        results = run_suites(config, args["suite"])
        handle.write(render_report(results, config, config.fmt))
    return 0 if all(r.passed for r in results) else 1


def console_entry() -> None:
    raise SystemExit(main())
