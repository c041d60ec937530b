import argparse
import json
import math
import pathlib
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import raymoments
import raymoments.diffops as diffops
import raymoments.moments as moments
import raymoments.symtensor as symtensor
import raymoments.verify as verify
from raymoments import (
    ExactValue,
    MomentExpression,
    PolyGauss,
    Polynomial,
    SuiteConfig,
    generalized_saint_venant,
    generate_potential,
    inner_derivative,
    iterate_d,
    main,
    moment_stack,
    parse_field,
    random_field,
    random_ts_point,
    run_suites,
    serialize_field,
    suite_identities,
    suite_kernel,
    sym_field,
)
from conftest import count_fractions


class TestGeneratePotential:
    def test_gradient_case(self):
        v, f = generate_potential(2, 1, 0, 2, seed=1)
        assert v.rank == 0 and f.rank == 1
        assert f == inner_derivative(v)

    def test_kernel_membership(self):
        _, f = generate_potential(2, 2, 1, 2, seed=2)
        assert generalized_saint_venant(f, 1).is_zero()
        rng = random.Random(3)
        for _ in range(20):
            pt = random_ts_point(2, rng)
            assert all(v.is_zero for v in moment_stack(f, 1, pt))

    def test_rank_too_small(self):
        with pytest.raises(ValueError):
            generate_potential(2, 1, 1, 2, seed=4)


class TestSuites:
    def test_kernel_default_passes(self):
        result = suite_kernel(SuiteConfig(n=2, m=2, k=1, seed=7, samples=10))
        assert result.passed
        ids = {rec.check_id for rec in result.records}
        assert "potential-exact-kernel" in ids
        assert "separation-moment-witness" in ids

    def test_kernel_vector_case(self):
        result = suite_kernel(SuiteConfig(n=3, m=1, k=0, seed=5, samples=10))
        assert result.passed

    def test_kernel_degenerate_top_order(self):
        result = suite_kernel(SuiteConfig(n=2, m=2, k=2, seed=6, samples=8))
        assert result.passed
        ids = {rec.check_id for rec in result.records}
        assert "degenerate-top-order" in ids
        assert "potential-exact-kernel" not in ids

    def test_loaded_kernel_field_fails_both_separation_records(self, tmp_path, capsys):
        # a potential lies in the kernel of W^k: loaded, it cannot separate and
        # is not redrawn, so both witnesses read zero and the run fails
        n, m, k = 2, 2, 1
        v = random_field(n, m - k - 1, 2, "loaded-kernel")
        assert not v.is_zero()
        path = tmp_path / "potential.json"
        path.write_text(serialize_field(iterate_d(v, k + 1)))
        code = main(["--suite", "kernel", "--n", str(n), "--m", str(m), "--k", str(k),
                     "--samples", "3", "--format", "json", "--field", str(path)])
        assert code == 1
        report = json.loads(capsys.readouterr().out)["suites"][0]
        assert report["resamples"] == 0
        failed = {r["check_id"]: r["residual"] for r in report["records"] if not r["pass"]}
        assert failed == {"separation-operator-witness": 0.0, "separation-moment-witness": 0.0}

    def test_vanishing_first_round_is_resampled_with_twice_the_lines(self, monkeypatch):
        config = SuiteConfig(n=2, m=2, k=1, seed=7, samples=3)
        original, calls = verify.moment_stack, {}

        def vanishing_first_round(f, k, pt):
            # the potential's stacks come first; the separation field's
            # first round of ``samples`` lines reads zero
            lines = calls.setdefault(id(f), [])
            lines.append(pt)
            stack = original(f, k, pt)
            if len(calls) == 2 and len(lines) <= config.samples:
                return [ExactValue.zero_value()] * len(stack)
            return stack

        monkeypatch.setattr(verify, "moment_stack", vanishing_first_round)
        result = suite_kernel(config)
        assert result.passed and result.resamples == 1
        first, second = list(calls.values())[1][:3], list(calls.values())[1][3:]
        assert len(second) == 2 * len(first) and not set(map(id, first)) & set(map(id, second))
        g = verify._nonzero_field(2, 2, config.degree, "7:kernel:sep/0")
        witness = max(moments.magnitude(value) for pt in second
                      for value in original(g, config.k, pt))
        record, = (r for r in result.records if r.check_id == "separation-moment-witness")
        assert record.residual == witness > 0.0 and record.passed

    def test_identities_default_passes(self):
        result = suite_identities(SuiteConfig(n=2, m=2, k=1, seed=7, samples=6))
        assert result.passed
        assert all(rec.residual == 0.0 for rec in result.records)

    def test_catalog_coverage(self):
        results = run_suites(SuiteConfig(n=2, m=2, k=1, seed=7, samples=4), "all")
        results += run_suites(SuiteConfig(n=2, m=2, k=2, seed=7, samples=4),
                              "kernel")
        import re
        seen = set()
        for result in results:
            for rec in result.records:
                seen.add(re.sub(r"-s\d+$", "", rec.check_id))
        wanted = set(verify.IDENTITY_CATALOG) | set(verify.KERNEL_CATALOG)
        assert wanted <= seen

    def test_every_record_carries_identity_description(self):
        results = run_suites(SuiteConfig(n=2, m=1, k=0, seed=9, samples=3), "all")
        catalog = {**verify.IDENTITY_CATALOG, **verify.KERNEL_CATALOG}
        for result in results:
            for rec in result.records:
                assert rec.identity in catalog.values()

    def test_determinism_bit_identical_reports(self):
        config = SuiteConfig(n=2, m=2, k=1, seed=13, samples=5, fmt="json")
        one = verify.render_report(run_suites(config, "all"), config, "json")
        two = verify.render_report(run_suites(config, "all"), config, "json")
        assert one == two

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SuiteConfig(n=1).validate()
        with pytest.raises(ValueError):
            SuiteConfig(k=3, m=2).validate()
        with pytest.raises(ValueError):
            SuiteConfig(fmt="xml").validate()

    def test_zero_field_residuals(self):
        # identity residual helpers are exactly zero on the zero field
        from raymoments import (collapsed_derivative_residual,
                                john_power_residual, random_phase_point)
        zero = sym_field(2, 2, {})
        pt = random_phase_point(2, random.Random(11))
        assert john_power_residual(zero, 1, (1,), pt) == 0.0
        assert collapsed_derivative_residual(zero, 1, (1,), pt) == 0.0


class TestMutationSensitivity:
    """Flipping any single series term must break at least one suite check."""

    @pytest.mark.parametrize("flip_ell", [0, 1, 2])
    def test_sign_flip_in_operator_series(self, monkeypatch, flip_ell):
        original = diffops._series_term

        def mutated(count, ell):
            value = original(count, ell)
            return -value if ell == flip_ell else value

        monkeypatch.setattr(diffops, "_series_term", mutated)
        result = suite_kernel(SuiteConfig(n=2, m=2, k=0, seed=7, samples=6))
        assert not result.passed

    @pytest.mark.parametrize("flip_ell", [0, 1])
    def test_binomial_bump_in_operator_series(self, monkeypatch, flip_ell):
        original = diffops._series_term

        def mutated(count, ell):
            value = original(count, ell)
            return value * 2 if ell == flip_ell else value

        monkeypatch.setattr(diffops, "_series_term", mutated)
        result = suite_kernel(SuiteConfig(n=2, m=2, k=1, seed=7, samples=6))
        assert not result.passed

    @pytest.mark.parametrize("flip_p", [0, 1, 2])
    def test_sign_flip_in_recovery_series(self, monkeypatch, flip_p):
        original = moments._recovery_term

        def mutated(r, p):
            value = original(r, p)
            return -value if p == flip_p else value

        monkeypatch.setattr(moments, "_recovery_term", mutated)
        result = suite_identities(SuiteConfig(n=2, m=2, k=1, seed=7, samples=6))
        assert not result.passed
        broken = [rec for rec in result.records if not rec.passed]
        assert all(rec.check_id.startswith("restricted-recovery") for rec in broken)

    @pytest.mark.parametrize("factor", [0, 2])
    @pytest.mark.parametrize("n,m,k", [(2, 2, 1), (3, 3, 1)])
    def test_second_term_of_john(self, monkeypatch, factor, n, m, k):
        # J_pq with its second term dropped (0) or doubled (2); a negated J is
        # not here: it is invisible whenever m - k is even
        def mutated(e, p, q):
            second = moments.dx(moments.dxi(e, p), q)
            return moments.dx(moments.dxi(e, q), p) - second * factor

        monkeypatch.setattr(moments, "john", mutated)
        result = suite_identities(SuiteConfig(n=n, m=m, k=k, seed=7, samples=3))
        assert not result.passed
        broken = {rec.check_id.rsplit("-", 1)[0] for rec in result.records if not rec.passed}
        assert broken == {"john-power", "collapsed-derivative"}, broken

    @pytest.mark.parametrize("factor", [-1, 2])
    @pytest.mark.parametrize("n,m,k,ell", [
        (n, m, k, ell) for n, m, k in [(3, 3, 1), (3, 3, 2), (2, 4, 1)]
        for ell in range(m - k + 1)])
    def test_series_term_against_restriction_relation(self, monkeypatch, factor,
                                                      n, m, k, ell):
        # term ell of the W^k series flipped (-1) or doubled (2); the
        # restrictions' W is taken through the alternated derivative, which
        # does not read the series
        original = diffops._series_term

        def mutated(count, j):
            value = original(count, j)
            return value * factor if j == ell else value

        monkeypatch.setattr(diffops, "_series_term", mutated)
        result = suite_identities(SuiteConfig(n=n, m=m, k=k, seed=7, samples=1))
        record = next(rec for rec in result.records
                      if rec.check_id == "restriction-relation")
        assert not record.passed

    def test_jet_derived_along_the_wrong_axis(self, monkeypatch):
        # each jet entry derived from its prefix along derivs[0], not derivs[-1]:
        # every mixed partial is wrong.  Both sides of john-power read the jet
        # (the operators, and the fully restricted transform data), so the
        # fault shows where a contraction of the field meets the jet
        def mutated(f, comp, derivs):
            key = (symtensor.canonical(comp), tuple(sorted(derivs)))
            hit = f.jet.get(key)
            if hit is None:
                comp, derivs = key
                hit = mutated(f, comp, derivs[:-1]).derive(derivs[0]) if derivs else f.get(comp)
                f.jet[key] = hit
            return hit

        for module, name in ((raymoments.polygauss, "_jet"),
                             (diffops, "_component_derivative"), (moments, "_jet")):
            monkeypatch.setattr(module, name, mutated)
        result = suite_identities(SuiteConfig(n=3, m=3, k=1, seed=7, samples=3))
        assert not result.passed
        broken = {rec.check_id.rsplit("-", 1)[0] for rec in result.records if not rec.passed}
        assert broken == {"collapsed-derivative"}, broken


class TestSerialization:
    def test_roundtrip_exact(self):
        f = random_field(3, 2, 2, 99)
        text = serialize_field(f)
        assert parse_field(text) == f

    def test_rank_zero_roundtrip(self):
        f = sym_field(2, 0, {(): PolyGauss(Polynomial(2, {(1, 1): Fraction(-3, 4)}))})
        assert parse_field(serialize_field(f)) == f

    def test_key_order_canonicalized(self):
        text = json.dumps({
            "n": 2, "rank": 2,
            "components": {"2,1": [{"exp": [0, 0], "coef": "1/1"}]},
        })
        f = parse_field(text)
        assert f.get((1, 2)).poly == Polynomial(2, {(0, 0): Fraction(1)})

    def test_duplicate_canonical_keys_rejected(self):
        text = json.dumps({
            "n": 2, "rank": 2,
            "components": {
                "1,2": [{"exp": [0, 0], "coef": "1"}],
                "2,1": [{"exp": [0, 0], "coef": "2"}],
            },
        })
        with pytest.raises(verify.FieldParseError, match="duplicate"):
            parse_field(text)

    def test_rational_normalization(self):
        text = json.dumps({
            "n": 2, "rank": 0,
            "components": {"": [{"exp": [0, 0], "coef": "3/6"}]},
        })
        f = parse_field(text)
        assert f.get(()).poly.terms[(0, 0)] == Fraction(1, 2)

    def test_malformed_json_reports_position(self):
        with pytest.raises(verify.FieldParseError, match="line 1"):
            parse_field("{not json")

    def test_bad_payloads(self):
        base = {"n": 2, "rank": 1}
        bad = [
            {**base, "components": {"1": [{"exp": [0], "coef": "1"}]}},
            {**base, "components": {"1": [{"exp": [0, -1], "coef": "1"}]}},
            {**base, "components": {"1": [{"exp": [0, 0], "coef": "1/0"}]}},
            {**base, "components": {"1": [{"exp": [0, 0], "coef": "x"}]}},
            {**base, "components": {"3": [{"exp": [0, 0], "coef": "1"}]}},
            {**base, "components": {"1,1": [{"exp": [0, 0], "coef": "1"}]}},
            {**base, "components": {"1": [{"coef": "1"}]}},
            {"n": 2, "components": {}},
            {**base, "n": True, "components": {}},
            {**base, "rank": True, "components": {}},
            {**base, "components": {"1": [{"exp": [True, 0], "coef": "1"}]}},
            {**base, "components": {"1": [{"exp": [0, 0], "coef": "1e3"}]}},
            {**base, "components": {"1": [{"exp": [0, 0], "coef": "0.5"}]}},
            {**base, "components": {"1": [{"exp": [0, 0], "coef": " 1/2"}]}},
            {**base, "components": {"1": [{"exp": [0, 0], "coef": "1_000"}]}},
            {**base, "components": {"+1": [{"exp": [0, 0], "coef": "1"}]}},
            {**base, "components": {" 1": [{"exp": [0, 0], "coef": "1"}]}},
            {**base, "components": {"0_1": [{"exp": [0, 0], "coef": "1"}]}},
            {**base, "components": {"\uff11": [{"exp": [0, 0], "coef": "1"}]}},
        ]
        for payload in bad:
            with pytest.raises(verify.FieldParseError):
                parse_field(json.dumps(payload))

    def test_hostile_json_text(self):
        # an integer too long for int() and nesting too deep for the decoder
        for text in ('{"n": ' + "1" * 5000 + ', "rank": 0}', "[" * 100000,
                     '{"n": 2, "rank": 1, "components": {"' + "1" * 5000 + '": []}}'):
            with pytest.raises(verify.FieldParseError):
                parse_field(text)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 3), st.integers(0, 3), st.integers(0, 3), st.integers())
    def test_roundtrip_property(self, n, rank, degree, seed):
        f = random_field(n, rank, degree, seed)
        text = serialize_field(f)
        assert parse_field(text) == f
        obj = json.loads(text)
        for key, terms in obj["components"].items():
            parts = key.split(",") if key else []
            assert all(verify._INDEX.fullmatch(part) for part in parts)
            assert all(verify._COEF.fullmatch(term["coef"]) for term in terms)


class TestCli:
    def test_exit_zero_on_pass(self, capsys):
        code = main(["--suite", "kernel", "--n", "2", "--m", "1", "--k", "0",
                     "--seed", "7", "--samples", "5"])
        assert code == 0
        out = capsys.readouterr().out
        assert "overall: PASS" in out

    def test_bad_order_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["--k", "3", "--m", "2"])
        assert err.value.code == 2

    def test_bad_flag_exits_two(self):
        # --tol is gone: no check is decided by a tolerance
        for argv in (["--suite", "nonsense"], ["--tol", "1e-9"]):
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2

    def test_failure_exits_one(self, monkeypatch, capsys):
        original = diffops._series_term
        monkeypatch.setattr(diffops, "_series_term",
                            lambda count, ell: -original(count, ell)
                            if ell == 0 else original(count, ell))
        code = main(["--suite", "kernel", "--n", "2", "--m", "1", "--k", "0",
                     "--samples", "4"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_json_report(self, capsys):
        code = main(["--suite", "kernel", "--n", "2", "--m", "1", "--k", "0",
                     "--samples", "4", "--format", "json"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["pass"] is True
        record = payload["suites"][0]["records"][0]
        assert set(record) == {"suite", "check_id", "identity", "residual",
                               "exact", "pass"}

    def test_csv_report(self, capsys):
        code = main(["--suite", "kernel", "--n", "2", "--m", "1", "--k", "0",
                     "--samples", "4", "--format", "csv"])
        assert code == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "suite,check_id,identity,residual,exact,pass"
        assert len(lines) > 1

    def test_out_file(self, tmp_path):
        target = tmp_path / "report.json"
        code = main(["--suite", "kernel", "--n", "2", "--m", "1", "--k", "0",
                     "--samples", "4", "--format", "json", "--out", str(target)])
        assert code == 0
        assert json.loads(target.read_text())["pass"] is True

    def test_unwritable_out_exits_two_before_any_check(self, tmp_path, monkeypatch):
        def no_checks(config, which):
            raise AssertionError("checks ran before the report file was opened")

        monkeypatch.setattr(verify, "run_suites", no_checks)
        target = tmp_path / "no" / "such" / "r.json"
        with pytest.raises(SystemExit) as err:
            main(["--suite", "kernel", "--n", "2", "--m", "1", "--k", "0",
                  "--out", str(target)])
        assert err.value.code == 2

    def test_field_loading(self, tmp_path, capsys):
        f = random_field(2, 2, 2, 1234)
        path = tmp_path / "field.json"
        path.write_text(serialize_field(f))
        code = main(["--suite", "identities", "--n", "2", "--m", "2", "--k", "1",
                     "--samples", "3", "--field", str(path)])
        assert code == 0
        capsys.readouterr()

    @pytest.mark.parametrize("scale, suite, samples", [
        (10**400, "kernel", "4"), (10**400, "identities", "2"),
        (Fraction(1, 10**400), "kernel", "4")],
        ids=["huge-kernel", "huge-identities", "tiny-kernel"])
    def test_field_beyond_float_range(self, tmp_path, capsys, scale, suite, samples):
        # 400-digit coefficients: residuals past the float range stay finite,
        # and witnesses below it stay nonzero, with no resampling
        path = tmp_path / "field.json"
        path.write_text(serialize_field(random_field(2, 1, 2, "tiny") * scale))
        code = main(["--suite", suite, "--n", "2", "--m", "1", "--k", "0",
                     "--samples", samples, "--format", "json", "--field", str(path)])
        assert code == 0
        report = json.loads(capsys.readouterr().out)["suites"][0]
        assert report["resamples"] == 0
        for rec in report["records"]:
            assert math.isfinite(rec["residual"])
            if rec["check_id"] in verify.WITNESS_CHECKS:
                assert rec["residual"] > 0

    def test_field_rank_mismatch_exits_two(self, tmp_path):
        f = random_field(2, 1, 1, 8)
        path = tmp_path / "field.json"
        path.write_text(serialize_field(f))
        with pytest.raises(SystemExit) as err:
            main(["--suite", "identities", "--m", "2", "--field", str(path)])
        assert err.value.code == 2

    def test_hostile_coefficient_exits_two(self, tmp_path):
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"n": 2, "rank": 0, "components": {
            "": [{"exp": [0, 0], "coef": "1e1000000"}]}}))
        with pytest.raises(SystemExit) as err:
            main(["--suite", "identities", "--m", "0", "--k", "0",
                  "--field", str(path)])
        assert err.value.code == 2

    def test_missing_field_file_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["--field", "/nonexistent/field.json"])
        assert err.value.code == 2


def argparse_reference() -> argparse.ArgumentParser:
    """The argparse parser the command line had before it read ``_OPTIONS`` with getopt."""
    parser = argparse.ArgumentParser(
        prog="raymoments",
        description="Verify momentum ray transform and Saint Venant operator "
                    "identities on random polynomial-Gaussian tensor fields.")
    parser.add_argument("--suite", choices=("kernel", "identities", "all"),
                        default="all")
    parser.add_argument("--n", type=int, default=2, help="ambient dimension")
    parser.add_argument("--m", type=int, default=2, help="tensor rank")
    parser.add_argument("--k", type=int, default=1, help="operator order")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--degree", type=int, default=2,
                        help="polynomial degree of random fields")
    parser.add_argument("--samples", type=int, default=20,
                        help="sampled lines per check family")
    parser.add_argument("--format", dest="fmt",
                        choices=("json", "csv", "text"), default="text")
    parser.add_argument("--out", metavar="FILE", default=None,
                        help="write the report to FILE instead of stdout")
    parser.add_argument("--field", metavar="FILE", default=None,
                        help="load the test field from FILE instead of drawing "
                             "it from the seed")
    return parser


class TestParserParity:
    """``verify.parse_args`` reads an argv as the argparse reference does."""

    @pytest.mark.parametrize("argv", [
        [], ["--n", "3"], ["--n=3"], ["--samp", "3"], ["--n", "3", "--n", "4"],
        ["--seed", "-5"], ["--suite", "kernel", "--format=csv", "--out", "r.txt",
                           "--field", "f.json", "--degree", "0", "--m", "5", "--k", "2"],
    ], ids=["defaults", "space", "equals", "prefix", "repeated", "negative", "every-kind"])
    def test_equal_values(self, argv):
        reference = vars(argparse_reference().parse_args(argv))
        reference["format"] = reference.pop("fmt")
        assert verify.parse_args(argv) == reference

    @pytest.mark.parametrize("argv", [
        ["--tol", "1e-9"], ["--s", "3"], ["--n", "3", "--n"], ["--n", "x"],
        ["--suite", "nonsense"], ["foo"],
    ], ids=["unknown", "ambiguous", "no-value", "not-int", "bad-choice", "positional"])
    def test_errors_exit_two(self, capsys, argv):
        usages = []
        for parse in (argparse_reference().parse_args, verify.parse_args):
            with pytest.raises(SystemExit) as err:
                parse(argv)
            assert err.value.code == 2
            usage, _, message = capsys.readouterr().err.partition("raymoments: error: ")
            assert usage.startswith("usage: raymoments") and message.strip()
            usages.append(" ".join(usage.split()))
        assert usages[0] == usages[1]

    def test_error_messages_of_bad_values(self, capsys):
        for argv in (["--n", "x"], ["--suite", "nonsense"]):
            errors = []
            for parse in (argparse_reference().parse_args, verify.parse_args):
                with pytest.raises(SystemExit):
                    parse(argv)
                errors.append(capsys.readouterr().err.splitlines()[-1])
            assert errors[0] == errors[1]

    @pytest.mark.parametrize("flag", ["-h", "--help"])
    def test_help_exits_zero(self, capsys, flag):
        with pytest.raises(SystemExit) as err:
            argparse_reference().parse_args([flag])
        assert err.value.code == 0
        capsys.readouterr()
        with pytest.raises(SystemExit) as err:
            main(["--n", "3", flag])
        assert err.value.code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0].startswith("usage: raymoments [-h] [--suite {kernel,identities,all}]")
        assert [line.split()[0] for line in out[2:]] == [f"--{name}" for name in verify._OPTIONS]


class TestFrontEndImports:
    def test_a_verdict_imports_neither_argparse_nor_locale(self):
        # a fresh interpreter: modules loaded at start-up do not count
        src = pathlib.Path(raymoments.__file__).resolve().parent.parent
        script = (
            "import sys\n"
            "before = set(sys.modules)\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import contextlib, io\n"
            "import raymoments.verify as verify\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    code = verify.main(sys.argv[1:])\n"
            "print(code, *sorted(set(sys.modules) - before))\n"
        )
        argv = ["--suite", "kernel", "--n", "2", "--m", "5", "--k", "0", "--samples", "2",
                "--degree", "2", "--seed", "7", "--format", "json"]
        code, *loaded = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True,
                                       text=True, check=True).stdout.split()
        assert code == "0" and "raymoments.verify" in loaded
        assert "argparse" not in loaded and "locale" not in loaded


class TestGoldenReport:
    """Report bytes pinned to a committed file, not to another run."""

    GOLDEN = (pathlib.Path(__file__).parent / "data"
              / "golden_report_all_n2_m2_k1_s3_seed13.json")

    def test_every_golden_record_is_decided_by_an_exact_zero(self):
        paths = sorted(self.GOLDEN.parent.glob("golden_report_*.json"))
        assert len(paths) == 9
        for path in paths:
            report = json.loads(path.read_text(encoding="utf-8"))
            for suite in report["suites"]:
                for rec in suite["records"]:
                    assert rec["exact"] is True
                    if rec["check_id"] in verify.WITNESS_CHECKS:
                        assert rec["pass"] == (rec["residual"] > 0)
                    else:
                        assert rec["pass"] == (rec["residual"] == 0)

    def test_report_bytes_match_golden_file(self, capsys):
        code = main(["--suite", "all", "--n", "2", "--m", "2", "--k", "1",
                     "--samples", "3", "--seed", "13", "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == self.GOLDEN.read_text(encoding="utf-8")

    def test_high_degree_moment_report_matches_golden_file(self, capsys):
        # degree-6 fields at 20 samples exercise the exact line moments
        golden = (pathlib.Path(__file__).parent / "data"
                  / "golden_report_identities_n2_m2_k1_s20_d6_seed7.json")
        code = main(["--suite", "identities", "--n", "2", "--m", "2", "--k", "1",
                     "--samples", "20", "--degree", "6", "--seed", "7",
                     "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_mixed_operator_report_matches_golden_file(self, capsys):
        # n = m = 3 reaches the alternation, Saint Venant and restriction stencils
        golden = (pathlib.Path(__file__).parent / "data"
                  / "golden_report_identities_n3_m3_k1_s3_d2_seed7.json")
        code = main(["--suite", "identities", "--n", "3", "--m", "3", "--k", "1",
                     "--samples", "3", "--degree", "2", "--seed", "7",
                     "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_rank_five_kernel_report_matches_golden_file(self, capsys):
        # a rank-5 field reaches W^k and the exact kernel moments
        golden = (pathlib.Path(__file__).parent / "data"
                  / "golden_report_kernel_n2_m5_k0_s2_d2_seed7.json")
        code = main(["--suite", "kernel", "--n", "2", "--m", "5", "--k", "0",
                     "--samples", "2", "--degree", "2", "--seed", "7",
                     "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_order_two_report_matches_golden_file(self, capsys):
        # k = 2 at n = 3 reaches W^k stencils with multi-letter derivative multisets
        golden = (pathlib.Path(__file__).parent / "data"
                  / "golden_report_all_n3_m3_k2_s2_d2_seed7.json")
        code = main(["--suite", "all", "--n", "3", "--m", "3", "--k", "2",
                     "--samples", "2", "--degree", "2", "--seed", "7",
                     "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_wide_alternation_report_matches_golden_file(self, capsys):
        # n = 4, m = 3 has the most alternated components of any pinned argv
        golden = (pathlib.Path(__file__).parent / "data"
                  / "golden_report_identities_n4_m3_k1_s2_d2_seed7.json")
        code = main(["--suite", "identities", "--n", "4", "--m", "3", "--k", "1",
                     "--samples", "2", "--degree", "2", "--seed", "7",
                     "--format", "json"])
        assert code == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    def test_loaded_field_report_matches_golden_file(self, tmp_path, capsys):
        # the seed-7 ident-mixed field, written to a file and loaded with
        # --field, gives the drawn field's report but for "field_loaded"
        golden = (pathlib.Path(__file__).parent / "data"
                  / "golden_report_identities_n3_m3_k1_s3_d2_seed7.json")
        path = tmp_path / "field.json"
        path.write_text(serialize_field(verify._nonzero_field(3, 3, 2, "7:identities:f")),
                        encoding="utf-8")
        code = main(["--suite", "identities", "--n", "3", "--m", "3", "--k", "1",
                     "--samples", "3", "--degree", "2", "--seed", "7",
                     "--format", "json", "--field", str(path)])
        assert code == 0
        drawn = golden.read_text(encoding="utf-8")
        assert drawn.count('"field_loaded": false') == 1
        loaded = drawn.replace('"field_loaded": false', '"field_loaded": true')
        assert capsys.readouterr().out == loaded

    @pytest.mark.parametrize("argv,name", [
        (["--suite", "kernel", "--n", "2", "--m", "5", "--k", "0", "--samples", "2",
          "--degree", "2"], "kernel_n2_m5_k0_s2_d2"),
        (["--suite", "identities", "--n", "2", "--m", "2", "--k", "1", "--samples", "20",
          "--degree", "6"], "identities_n2_m2_k1_s20_d6"),
        (["--suite", "identities", "--n", "3", "--m", "3", "--k", "1", "--samples", "3",
          "--degree", "2"], "identities_n3_m3_k1_s3_d2"),
    ], ids=["kernel-op", "ident-moments", "ident-mixed"])
    def test_workload_report_at_held_out_seed_matches_golden_file(self, capsys, argv, name):
        # the benchmark's three workloads at a seed no other golden uses
        golden = (pathlib.Path(__file__).parent / "data"
                  / f"golden_report_{name}_seed1009.json")
        assert main(argv + ["--seed", "1009", "--format", "json"]) == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")

    @pytest.mark.parametrize("fmt,suffix", [("csv", "csv"), ("text", "txt")])
    def test_mixed_operator_csv_and_text_match_golden_files(self, capsys, fmt, suffix):
        # the json renderer is not the only one the CLI has
        golden = (pathlib.Path(__file__).parent / "data"
                  / f"golden_report_identities_n3_m3_k1_s3_d2_seed7.{suffix}")
        code = main(["--suite", "identities", "--n", "3", "--m", "3", "--k", "1",
                     "--samples", "3", "--degree", "2", "--seed", "7",
                     "--format", fmt])
        assert code == 0
        assert capsys.readouterr().out == golden.read_text(encoding="utf-8")


class TestLineIntegralCount:
    """A verdict integrates each (polynomial, order, line) once."""

    @pytest.mark.parametrize("argv,calls", [
        (["--suite", "identities", "--n", "2", "--m", "2", "--k", "1",
          "--samples", "20", "--degree", "6"], 368),
        (["--suite", "identities", "--n", "3", "--m", "3", "--k", "1",
          "--samples", "3", "--degree", "2"], 146),
        (["--suite", "kernel", "--n", "2", "--m", "5", "--k", "0",
          "--samples", "2", "--degree", "2"], 22),
    ], ids=["ident-moments", "ident-mixed", "kernel-op"])
    def test_no_line_integral_is_computed_twice(self, monkeypatch, capsys, argv, calls):
        seen = []
        line_moment = moments.line_moment

        def counting(g, q, table):
            seen.append((g.poly.den, tuple(sorted(g.poly.nums.items())), q,
                         table.x, table.xi))
            return line_moment(g, q, table)

        monkeypatch.setattr(moments, "line_moment", counting)
        assert main(argv + ["--seed", "7", "--format", "json"]) == 0
        capsys.readouterr()
        assert len(seen) == calls
        assert len(set(seen)) == calls


class TestJetCount:
    """A verdict takes each derivative once: in the field's jet or a point's contraction.

    The operators and the John residuals read a restriction as an address
    into the field's jet, so the one restricted tensor a sample builds is
    the independent right side of ``restricted-recovery``.  Transform data
    differentiate a point's contraction of the field instead, each
    (fixed, derivs, field) once per point, except where ``fixed`` fills the
    rank: there is nothing to contract, and the datum is the jet entry that
    every point and the operators share.
    """

    @pytest.mark.parametrize("argv,derives,restricts", [
        (["--suite", "identities", "--n", "2", "--m", "2", "--k", "1",
          "--samples", "20", "--degree", "6"], {"_jet": 7, "_contraction": 80}, 20),
        (["--suite", "identities", "--n", "3", "--m", "3", "--k", "1",
          "--samples", "3", "--degree", "2"], {"_jet": 124, "_contraction": 36}, 3),
        (["--suite", "kernel", "--n", "2", "--m", "5", "--k", "0",
          "--samples", "2", "--degree", "2"], {"_jet": 70, "_contraction": 60}, 0),
    ], ids=["ident-moments", "ident-mixed", "kernel-op"])
    def test_derives_and_restrictions(self, monkeypatch, capsys, argv, derives, restricts):
        # derives by owner: the field's jet, or a point's contraction
        derived = []
        contracted = []
        derive = PolyGauss.derive

        def counting_derive(self, i):
            frame = sys._getframe(1)
            derived.append(frame.f_code.co_name)
            if frame.f_code.co_name == "_contraction":
                # the objects themselves, so that no id is reused while held
                args = frame.f_locals
                contracted.append((args["pt"], args["fixed"], args["derivs"], args["f"]))
            return derive(self, i)

        callers = []
        restrict = symtensor.restrict

        def counting_restrict(f, fixed):
            callers.append(sys._getframe(1).f_code.co_name)
            return restrict(f, fixed)

        monkeypatch.setattr(PolyGauss, "derive", counting_derive)
        for module in (raymoments, symtensor, diffops, moments, verify):
            for name, value in list(vars(module).items()):
                if value is restrict:
                    monkeypatch.setattr(module, name, counting_restrict)
        assert main(argv + ["--seed", "7", "--format", "json"]) == 0
        capsys.readouterr()
        assert {owner: derived.count(owner) for owner in set(derived)} == derives
        # no point differentiates one (fixed, derivs, field) twice
        keys = {(id(pt), fixed, derivs, id(f)) for pt, fixed, derivs, f in contracted}
        assert len(keys) == len(contracted) == derives["_contraction"]
        assert all(pt.is_exact for pt, _, _, _ in contracted)
        # once per sample, in the suite itself: the restricted-recovery record
        assert callers == ["suite_identities"] * restricts


class TestRewriteCount:
    """A verdict builds each point-independent rewrite chain once.

    The John chains, the recovery expressions and the directional
    derivatives of the base transforms are built once per field shape (the
    John chains once per rank left after restriction, relabelled per fixed
    multiset; the recovery expressions once per orbit of fixed multisets
    under relabelling the coordinates), so the ``dx`` and ``dxi`` calls of a
    verdict do not grow with the samples that evaluate them.
    The collapsed-derivative check reads its right side by address, with
    no rewrite.  Each expression is evaluated once per field and point: a
    directional derivative is one expression, the xi-weighted sum of its
    gradient, and so is the right side of restriction-contraction, and the
    John table that both John checks of a sample read is evaluated once.
    """

    IDENT_MIXED = ["--suite", "identities", "--n", "3", "--m", "3", "--k", "1",
                   "--samples", "3", "--degree", "2"]

    @staticmethod
    def count(monkeypatch, capsys, argv) -> tuple:
        calls = []
        for name in ("dx", "dxi"):
            original = getattr(moments, name)
            monkeypatch.setattr(moments, name, lambda e, i, _name=name, _f=original:
                                calls.append(_name) or _f(e, i))
        evaluate = MomentExpression.evaluate
        monkeypatch.setattr(MomentExpression, "evaluate",
                            lambda e, f, pt: calls.append("evaluate") or evaluate(e, f, pt))
        assert main(argv + ["--seed", "7", "--format", "json"]) == 0
        capsys.readouterr()
        return calls.count("dx"), calls.count("dxi"), calls.count("evaluate")

    @pytest.mark.parametrize("argv,dx_calls,dxi_calls,evaluate_calls", [
        (["--suite", "identities", "--n", "2", "--m", "2", "--k", "1",
          "--samples", "20", "--degree", "6"], 16, 16, 120),
        (IDENT_MIXED, 31, 31, 33),
        (["--suite", "kernel", "--n", "2", "--m", "5", "--k", "0",
          "--samples", "2", "--degree", "2"], 0, 0, 0),
    ], ids=["ident-moments", "ident-mixed", "kernel-op"])
    def test_dx_and_dxi_calls(self, monkeypatch, capsys, argv, dx_calls, dxi_calls,
                              evaluate_calls):
        assert self.count(monkeypatch, capsys, argv) == (dx_calls, dxi_calls, evaluate_calls)

    def test_patch_after_an_unpatched_verdict_counts_every_call(self, monkeypatch, capsys):
        # the chains a warm verdict cached are keyed by the unpatched
        # rewrites, so none of them is served to the patched ones
        assert main(self.IDENT_MIXED + ["--seed", "7", "--format", "json"]) == 0
        capsys.readouterr()
        assert self.count(monkeypatch, capsys, self.IDENT_MIXED) == (31, 31, 33)


class TestBuiltOnce:
    """Each alternated derivative of a verdict is built once per fixed
    multiset: the verdict's own, and those of the restriction relation, which
    every John residual reads."""

    @pytest.mark.parametrize("argv,calls", [
        (["--suite", "kernel", "--n", "2", "--m", "5", "--k", "0",
          "--samples", "2", "--degree", "2"], 0),
        (["--suite", "identities", "--n", "2", "--m", "2", "--k", "1",
          "--samples", "20", "--degree", "6"], 3),
        (TestRewriteCount.IDENT_MIXED, 4),
    ], ids=["kernel-op", "ident-moments", "ident-mixed"])
    def test_alternated_derivative_calls(self, monkeypatch, capsys, argv, calls):
        seen = []
        original = diffops.alternated_derivative
        monkeypatch.setattr(diffops, "alternated_derivative",
                            lambda f, fixed=(): seen.append(fixed) or original(f, fixed))
        assert main(argv + ["--seed", "7", "--format", "json"]) == 0
        capsys.readouterr()
        assert len(seen) == len(set(seen)) == calls


class TestFractionCount:
    """A verdict builds few Fractions: its sampled lines are drawn, set up,
    projected and translated in ints and keep their coordinates as ints, and
    its checks weight in ints."""

    # 129 / 23 / 85 at seed 7 in a warm process
    @pytest.mark.parametrize("argv,bound", [
        (["--suite", "identities", "--n", "2", "--m", "2", "--k", "1",
          "--samples", "20", "--degree", "6"], 160),
        (["--suite", "kernel", "--n", "2", "--m", "5", "--k", "0",
          "--samples", "2", "--degree", "2"], 30),
        (TestRewriteCount.IDENT_MIXED, 100),
    ], ids=["ident-moments", "kernel-op", "ident-mixed"])
    def test_fractions_per_verdict(self, monkeypatch, capsys, argv, bound):
        argv = argv + ["--seed", "7", "--format", "json"]
        assert main(argv) == 0  # the shape tables are built before the count
        built, code = count_fractions(monkeypatch, main, argv)
        capsys.readouterr()
        assert code == 0 and 0 < built <= bound


class TestImportBuildsNoTable:
    def test_no_cached_table_after_import(self):
        # a fresh interpreter: the tables are built by the first verdict
        # that needs them, never at import
        src = pathlib.Path(raymoments.__file__).resolve().parent.parent
        script = (
            "import sys\n"
            f"sys.path.insert(0, {str(src)!r})\n"
            "import raymoments.verify\n"
            "from raymoments import diffops, moments, symtensor\n"
            "for module in (diffops, moments, symtensor):\n"
            "    for name, obj in sorted(vars(module).items()):\n"
            "        if hasattr(obj, 'cache_info'):\n"
            "            print(module.__name__, name, obj.cache_info().currsize)\n"
        )
        out = subprocess.run([sys.executable, "-c", script], capture_output=True,
                             text=True, check=True).stdout
        caches = [line.split() for line in out.splitlines()]
        assert {name for _, name, _ in caches} >= {
            "_stencil", "_john_chains", "_directional", "_restriction_contraction",
            "_rearrangements"}
        assert [(module, name) for module, name, size in caches if size != "0"] == []


# the command lines of the six golden reports
GOLDEN_ARGVS = {
    "all-n2": ["--suite", "all", "--n", "2", "--m", "2", "--k", "1", "--samples", "3",
               "--seed", "13"],
    "ident-moments": ["--suite", "identities", "--n", "2", "--m", "2", "--k", "1",
                      "--samples", "20", "--degree", "6", "--seed", "7"],
    "ident-mixed": ["--suite", "identities", "--n", "3", "--m", "3", "--k", "1",
                    "--samples", "3", "--degree", "2", "--seed", "7"],
    "kernel-op": ["--suite", "kernel", "--n", "2", "--m", "5", "--k", "0",
                  "--samples", "2", "--degree", "2", "--seed", "7"],
    "order-two": ["--suite", "all", "--n", "3", "--m", "3", "--k", "2",
                  "--samples", "2", "--degree", "2", "--seed", "7"],
    "wide": ["--suite", "identities", "--n", "4", "--m", "3", "--k", "1",
             "--samples", "2", "--degree", "2", "--seed", "7"],
}


class TestRunBudget:
    """The closed-form size estimate, and the exit before an over-budget run."""

    @pytest.mark.parametrize("argv", GOLDEN_ARGVS.values(), ids=GOLDEN_ARGVS.keys())
    def test_estimate_bounds_what_a_golden_run_builds(self, monkeypatch, capsys, argv):
        built = {"degree": 0, "table": 0}
        init, from_ints = Polynomial.__init__, Polynomial._from_ints.__func__

        def counting_init(self, n, terms=None):
            init(self, n, terms)
            built["degree"] = max(built["degree"], self.total_degree())

        def counting_from_ints(cls, n, den, nums):
            out = from_ints(cls, n, den, nums)
            built["degree"] = max(built["degree"], out.total_degree())
            return out

        line_moment = moments.line_moment

        def counting_line_moment(g, q, table):
            value = line_moment(g, q, table)
            built["table"] = max(built["table"], sum(map(len, table.rows)))
            return value

        monkeypatch.setattr(Polynomial, "__init__", counting_init)
        monkeypatch.setattr(Polynomial, "_from_ints", classmethod(counting_from_ints))
        monkeypatch.setattr(moments, "line_moment", counting_line_moment)
        args = verify.parse_args(argv)
        top, dense, table = verify._run_cost(args["n"], args["m"], args["k"], args["degree"],
                                             args["suite"])
        assert main(argv + ["--format", "json"]) == 0
        capsys.readouterr()
        assert 0 < built["degree"] <= top
        assert dense == math.comb(top + args["n"], args["n"])
        assert 0 < built["table"] <= table <= verify.TABLE_BUDGET // 10

    @staticmethod
    def _refuse_polynomials(monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a polynomial was built")

        monkeypatch.setattr(Polynomial, "__init__", refuse)
        monkeypatch.setattr(Polynomial, "_from_ints", classmethod(refuse))

    def test_over_budget_field_file_exits_two(self, tmp_path, monkeypatch, capsys):
        # one term of degree 100,000: dense, about 5e9 coefficients
        path = tmp_path / "field.json"
        path.write_text(json.dumps({"n": 2, "rank": 1, "components": {
            "1": [{"exp": [100000, 0], "coef": "1"}]}}))
        self._refuse_polynomials(monkeypatch)
        with pytest.raises(SystemExit) as err:
            main(["--suite", "kernel", "--n", "2", "--m", "1", "--samples", "1",
                  "--field", str(path)])
        assert err.value.code == 2
        assert f"over the limit of {verify.TABLE_BUDGET}" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["--suite", "all", "--n", "12", "--m", "2", "--k", "1", "--degree", "2"],
        ["--suite", "kernel", "--n", "2", "--m", "1", "--degree", "300"],
    ], ids=["wide", "deep"])
    def test_over_budget_dimension_or_degree_exits_two(self, monkeypatch, capsys, argv):
        self._refuse_polynomials(monkeypatch)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == 2
        assert f"over the limit of {verify.TABLE_BUDGET}" in capsys.readouterr().err

    def test_over_budget_samples_exit_two(self, monkeypatch, capsys):
        # a drawn line holds about 1.9 KB: 10,000,000 of them, about 19 GB
        self._refuse_polynomials(monkeypatch)

        def refuse(*args):
            raise AssertionError("a point was drawn")

        monkeypatch.setattr(verify, "random_ts_point", refuse)
        monkeypatch.setattr(verify, "random_phase_point", refuse)
        for suite in ("kernel", "identities", "all"):
            with pytest.raises(SystemExit) as err:
                main(["--suite", suite, "--n", "2", "--m", "1", "--samples", "10000000"])
            assert err.value.code == 2
            assert (f"over the limit of {verify.SAMPLES_BUDGET} in all"
                    in capsys.readouterr().err)

    def test_samples_budget_boundary(self, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(verify, "run_suites",
                            lambda config, which: ran.append(config.samples) or [])
        # the most samples the budget admits run, and one more is refused
        argv = ["--suite", "kernel", "--n", "2", "--m", "1", "--k", "0"]
        limit = verify.SAMPLES_BUDGET // verify._run_cost(2, 1, 0, 2, "kernel")[2]
        assert main(argv + ["--samples", str(limit)]) == 0
        with pytest.raises(SystemExit) as err:
            main(argv + ["--samples", str(limit + 1)])
        assert err.value.code == 2
        # at the default 20 samples, a table at the table budget is admitted
        monkeypatch.setattr(verify, "_run_cost", lambda *args: (2, 6, verify.TABLE_BUDGET))
        assert main(["--suite", "kernel"]) == 0
        capsys.readouterr()
        assert ran == [limit, 20]

    @pytest.mark.parametrize("argv,term", [
        (["--suite", "identities", "--n", "2", "--m", "40"], "1099511627776 block tensor entries"),
        (["--suite", "identities", "--n", "3", "--m", "20"], "3486784401 block tensor entries"),
        (["--suite", "all", "--n", "4", "--m", "7"], "101376 alternation reads"),
    ], ids=["two-40", "three-20", "four-7"])
    def test_exponential_identity_sizes_exit_two(self, monkeypatch, capsys, argv, term):
        # within the table budget at degree 0, but a dense n^m block tensor or
        # 2^m alternation reads per row over it
        self._refuse_polynomials(monkeypatch)

        def refuse(*args):
            raise AssertionError("a block tensor was drawn")

        monkeypatch.setattr(verify, "_random_block_symmetric", refuse)
        with pytest.raises(SystemExit) as err:
            main(argv + ["--degree", "0"])
        assert err.value.code == 2
        assert (f"the identities suite needs {term}, over the limit of {verify.TABLE_BUDGET}"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("n,m", [(4, 1), (3, 2), (4, 2), (3, 3)])
    def test_exponential_sizes_are_the_sizes_built(self, monkeypatch, capsys, n, m):
        # the block tensor's draws and the alternation stencil's reads,
        # counted at shapes where the reads are the larger
        draws = []

        class Counting(random.Random):
            def randint(self, a, b):
                draws.append((a, b))
                return super().randint(a, b)

        verify._random_block_symmetric(n, m, 0, Counting(0))
        reads = len(diffops._alternation_stencil(n, m)) * 2 ** m
        assert len(draws) < reads
        ran = []
        monkeypatch.setattr(verify, "run_suites", lambda config, which: ran.append(which) or [])
        monkeypatch.setattr(verify, "_run_cost", lambda *args: (0, 1, 0))
        argv = ["--suite", "identities", "--n", str(n), "--m", str(m), "--k", "0"]
        for budget, refusal in ((0, f"needs {len(draws)} block tensor entries,"),
                                (reads - 1, f"needs {reads} alternation reads,")):
            monkeypatch.setattr(verify, "TABLE_BUDGET", budget)
            with pytest.raises(SystemExit) as err:
                main(argv)
            assert err.value.code == 2
            assert refusal in capsys.readouterr().err
        monkeypatch.setattr(verify, "TABLE_BUDGET", reads)
        assert main(argv) == 0
        # the kernel suite draws no block tensor and alternates nothing
        monkeypatch.setattr(verify, "TABLE_BUDGET", 0)
        assert main(["--suite", "kernel"] + argv[2:]) == 0
        assert ran == ["identities", "kernel"]

    def test_estimate_of_the_sparse_wide_argv_is_within_budget(self):
        # --suite all --n 8 --m 1 --k 0 --degree 2, checked in CI, and
        # --n 12 --m 1 --degree 1: the sparsest drawn inputs measured
        assert verify._run_cost(8, 1, 0, 2, "all")[2] <= verify.TABLE_BUDGET // 5
        assert verify._run_cost(12, 1, 1, 1, "all")[2] <= verify.TABLE_BUDGET // 5


class TestJsonRendering:
    """The JSON report is ``json.dumps(obj, indent=2)`` byte for byte."""

    @staticmethod
    def reference(results, config):
        # the report object as render_report builds it, through the indenting encoder
        obj = {"config": config.as_dict(),
               "suites": [{"name": r.name, "pass": r.passed, "resamples": r.resamples,
                           "records": [rec.as_dict() for rec in r.records]}
                          for r in results],
               "pass": all(r.passed for r in results)}
        return json.dumps(obj, indent=2) + "\n"

    @pytest.mark.parametrize("argv", GOLDEN_ARGVS.values(), ids=GOLDEN_ARGVS.keys())
    def test_golden_argvs(self, argv):
        args = verify.parse_args(argv + ["--format", "json"])
        config = SuiteConfig(n=args["n"], m=args["m"], k=args["k"], seed=args["seed"],
                             degree=args["degree"], samples=args["samples"], fmt="json")
        results = run_suites(config, args["suite"])
        assert verify.render_report(results, config, "json") == self.reference(results, config)

    def test_suites_with_no_records_and_no_suites(self):
        config = SuiteConfig(fmt="json")
        for results in ([], [verify.SuiteResult("kernel")],
                        [verify.SuiteResult("identities"), verify.SuiteResult("kernel", [], 2)]):
            assert verify.render_report(results, config, "json") == self.reference(results, config)

    @given(st.lists(st.tuples(st.text(), st.text(), st.floats(allow_nan=False), st.booleans()),
                    max_size=4),
           st.text())
    @settings(max_examples=60, deadline=None)
    def test_strings_that_need_escapes(self, rows, name):
        records = [verify.CheckRecord(name, check_id, identity, residual, passed)
                   for check_id, identity, residual, passed in rows]
        # quotes, backslashes, control characters, non-ASCII and the item separator
        records.append(verify.CheckRecord("s", '"},\n          {"\\', "\u00e9\t\x00\u2028",
                                          1e300, False))
        results = [verify.SuiteResult(name, records), verify.SuiteResult("kernel")]
        config = SuiteConfig(fmt="json")
        assert verify.render_report(results, config, "json") == self.reference(results, config)

    def test_nested_values_of_every_kind(self):
        for obj in ({}, [], {"a": []}, {"a": {}}, [[[]]], "x", 3, None,
                    {"a": [1, {"b": "x\n\"\u00e9 },\n  {"}], "c": None, "d": 1.5e300},
                    [{"a": 1}, {"b": "},\n      {"}, {"c": 2}], [{"a": 1}, {}],
                    [{"a": 1}, [2]], {"x": [{"a": {"b": 1}}]}):
            assert verify._json_text(obj) == json.dumps(obj, indent=2)


class TestExactSumsBuildNoFraction:
    """``line_moment`` and ``ExactValue.sum`` add exact values up as int pairs."""

    @pytest.mark.parametrize("argv", [
        ["--suite", "identities", "--n", "2", "--m", "2", "--k", "1",
         "--samples", "20", "--degree", "6"],
        ["--suite", "identities", "--n", "3", "--m", "3", "--k", "1",
         "--samples", "3", "--degree", "2"],
        ["--suite", "kernel", "--n", "2", "--m", "5", "--k", "0",
         "--samples", "2", "--degree", "2"],
    ], ids=["ident-moments", "ident-mixed", "kernel-op"])
    def test_no_fraction_is_built_inside_them(self, monkeypatch, capsys, argv):
        depth = [0]
        built = {"inside": 0, "outside": 0}
        calls = []

        def entered(fn):
            def wrapper(*args):
                calls.append(fn.__name__)
                depth[0] += 1
                try:
                    return fn(*args)
                finally:
                    depth[0] -= 1
            return wrapper

        monkeypatch.setattr(moments, "line_moment", entered(moments.line_moment))
        monkeypatch.setattr(ExactValue, "sum", staticmethod(entered(ExactValue.sum)))
        new = Fraction.__dict__["__new__"]

        def counting_new(cls, *args, **kwargs):
            built["inside" if depth[0] else "outside"] += 1
            return new.__func__(cls, *args, **kwargs)

        Fraction.__new__ = staticmethod(counting_new)
        try:
            assert main(argv + ["--seed", "7", "--format", "json"]) == 0
        finally:
            Fraction.__new__ = new
        capsys.readouterr()
        assert "line_moment" in calls and "sum" in calls
        assert built["outside"] > 0  # the counter does see the Fractions built elsewhere
        assert built["inside"] == 0
