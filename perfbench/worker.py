"""One verdict of the raymoments CLI in a fresh interpreter.

Usage: python3 perfbench/worker.py [--trace] -- <raymoments CLI arguments>

Imports the package from ``src/`` of the current directory, times one call
of ``raymoments.verify.main(argv)`` with the report captured in memory, and
prints one JSON object: the CLI exit code, the time of the import and of the
call, the report text, the process's peak resident set, the interpreter and
numpy versions, and the machine speed around the call (``reference_s``).
With ``--trace`` the call runs under the tracer and the object also holds
the spans, the operator output term count and the names of the traced
functions.
"""

from __future__ import annotations

import os
import sys
import time


def import_package(src: str):
    """Import raymoments from ``src`` and nowhere else; return (verify, seconds)."""
    if not os.path.isfile(os.path.join(src, "raymoments", "__init__.py")):
        raise SystemExit(f"worker: no raymoments package under {src}")
    sys.path.insert(0, src)
    start = time.perf_counter()
    import raymoments.verify as verify
    import_s = time.perf_counter() - start
    if not os.path.abspath(verify.__file__).startswith(src + os.sep):
        raise SystemExit(f"worker: raymoments imported from {verify.__file__}")
    return verify, import_s


def reference_s() -> float:
    """Seconds of a fixed loop of exact rational arithmetic.

    The loop mixes the two kinds of work verdicts spend their time in: small
    fractions kept in dicts (polynomial and tensor arithmetic) and powers and
    sums of rationals with long numerators (line integrals).  Its time tracks
    the speed the machine gives this process at the moment.  A shared host
    can swing that speed by half within minutes; timings are divided by it.
    """
    from fractions import Fraction
    start = time.perf_counter()
    x, acc = Fraction(1, 3), {}
    for i in range(5000):
        x = x * Fraction(i % 7 + 1, i % 5 + 2) + Fraction(1, i + 1)
        key = (i % 97, i % 3)
        acc[key] = acc.get(key, 0) + x.numerator % 1000
        if x.denominator > 10**40:
            x = Fraction(x.numerator % 10**20, x.denominator % 10**20 + 1)
    p, q, v = Fraction(123456789, 987654321), Fraction(-55555, 777777), Fraction(3, 5)
    total = Fraction(0)
    for _ in range(25):
        for e in range(12):
            for j in range(e + 1):
                total += (e - j + 1) * p ** (e - j) * v ** j * q ** (j % 3)
        total = Fraction(total.numerator % 10**30, total.denominator % 10**30 + 1)
    return time.perf_counter() - start


def main() -> int:
    # The package is imported before the worker's own modules, so that these
    # do not make its import look cheaper than it is in a user's process.
    verify, import_s = import_package(os.path.abspath("src"))

    import argparse
    import contextlib
    import io
    import json
    import platform
    import resource
    import statistics

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("cli", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    cli = args.cli[1:] if args.cli[:1] == ["--"] else args.cli

    references = [reference_s(), reference_s()]
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer().install()
    report = io.StringIO()
    try:
        with contextlib.redirect_stdout(report):
            start = time.perf_counter()
            rc = verify.main(cli)
            verdict_s = time.perf_counter() - start
    finally:
        if tracer is not None:
            tracer.restore()
    references += [reference_s(), reference_s()]

    out = {
        "rc": rc,
        "import_s": import_s,
        "verdict_s": verdict_s,
        "reference_s": statistics.median(references),
        "report": report.getvalue(),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "python": platform.python_version(),
        "numpy": sys.modules["numpy"].__version__,
    }
    if tracer is not None:
        out["spans"] = [(name, s - start, e - start, parent)
                        for name, s, e, parent in tracer.spans]
        out["out_terms"] = tracer.out_terms
        out["traced"] = sorted(tracer.names)
    json.dump(out, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
