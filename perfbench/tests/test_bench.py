"""Tests of the benchmark harness itself.

Run from the root of the repository:  python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import raymoments  # noqa: E402
import raymoments.verify as verify  # noqa: E402
import run as bench  # noqa: E402
from tracer import LAYERS, Tracer, summarize  # noqa: E402

SMOKE = dict(suite="all", n=2, m=1, k=1, samples=2, degree=2)
# Small, but reaches every layer: alternation, W, W^k, John rewrites, line moments.
SMALL = dict(suite="all", n=2, m=2, k=1, samples=2, degree=2)


def verdict(spec, tracer=None):
    out = io.StringIO()
    argv = bench.cli_argv(spec, 5)
    with contextlib.redirect_stdout(out):
        if tracer is None:
            rc = verify.main(argv)
        else:
            with tracer:
                rc = verify.main(argv)
    return rc, out.getvalue()


def namespaces():
    """Every binding the tracer may touch, by identity."""
    owners = [m for name, m in sys.modules.items()
              if name == "raymoments" or name.startswith("raymoments.")]
    owners += [raymoments.MomentExpression, raymoments.PolyGauss]
    return {(id(owner), attr): value for owner in owners
            for attr, value in list(vars(owner).items())}


def test_report_bytes_identical_with_tracer_on_and_off():
    rc_plain, plain = verdict(SMALL)
    tracer = Tracer()
    rc_traced, traced = verdict(SMALL, tracer)
    assert rc_plain == rc_traced == 0
    assert plain == traced
    layers = {name.split(".", 1)[0] for name, *_ in tracer.spans}
    assert layers == set(LAYERS)


def test_every_patched_name_is_restored():
    before = namespaces()
    original = raymoments.symtensor.restrict
    tracer = Tracer().install()
    try:
        # aliases and methods are patched too, not only the defining module
        assert raymoments.symtensor.restrict.__wrapped__ is original
        assert raymoments.diffops.restrict_field is raymoments.symtensor.restrict
        assert "__wrapped__" in vars(raymoments.PolyGauss.derive)
        verify.main(bench.cli_argv(SMOKE, 5) + ["--out", os.devnull])
    finally:
        tracer.restore()
    after = namespaces()
    assert before.keys() == after.keys()
    assert all(before[key] is after[key] for key in before)


def test_exact_counts_repeat_across_traced_runs():
    def counts():
        tracer = Tracer()
        _, report = verdict(SMALL, tracer)
        result = {"report": report}
        return (summarize(tracer.spans)["calls"], tracer.out_terms,
                bench.report_counts(result))

    first, second = counts(), counts()
    assert first == second
    assert first[1] > 0 and first[2]["verify.checks"] > 0


def test_gate_rejects_a_changed_report(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    rc, report = verdict(SMOKE)
    gate = bench.Gate(SMOKE, "0" * 64)
    argv = bench.cli_argv(SMOKE, 5)
    result = {"rc": rc, "report": report}
    assert gate.problems(argv, result) == []
    assert gate.problems(argv, result) == []
    changed = {"rc": rc, "report": report.replace('"residual": 0.0', '"residual": 0.5', 1)}
    assert any("differ" in p for p in gate.problems(argv, changed))
    failing = {"rc": 1, "report": report.replace('"pass": true', '"pass": false')}
    assert len(gate.problems(argv, failing)) >= 2
    obj = json.loads(report)
    obj["suites"][0]["records"].pop()
    assert any("missing" in p for p in gate.problems(argv, {"rc": 0, "report": json.dumps(obj)}))


def test_smoke_config_runs_in_seconds(monkeypatch):
    monkeypatch.chdir(ROOT)
    monkeypatch.setitem(bench.WORKLOADS, "smoke", SMOKE)
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        config = json.load(handle)
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        started = time.perf_counter()
        result = bench.measure("smoke", 3, 0.5, trace, config)
        assert time.perf_counter() - started < 30
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert list(result["metrics"]) == [m["name"] for m in config[section]]
