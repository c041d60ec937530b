"""Benchmark of the raymoments verification CLI.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload kernel-op --seed 7 --seconds 40 --trace 0
    python3 perfbench/run.py --workload all

One client runs a closed loop: each verdict is one call of
``raymoments.verify.main(argv)`` in a fresh interpreter (perfbench/worker.py),
and the next starts when the previous one has ended.  Every report passes a
correctness gate.  ``--trace 0`` prints the end-to-end metrics named in
BENCHMARK.json, ``--trace 1`` the per-layer ones from traced verdicts.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from tracer import LAYERS, summarize  # noqa: E402

# Why each workload is here: README.md, "Workloads".
WORKLOADS = {
    "kernel-op": dict(suite="kernel", n=2, m=5, k=0, samples=2, degree=2),
    "ident-moments": dict(suite="identities", n=2, m=2, k=1, samples=20, degree=6),
    "ident-mixed": dict(suite="identities", n=3, m=3, k=1, samples=3, degree=2),
}
# Timings are reported at the machine speed where worker.reference_s takes
# this long: each is multiplied by REFERENCE_S / (the run's median of
# reference_s, measured in every verdict's process around the verdict).
REFERENCE_S = 0.05
# A run that has not ended by then stops its verdict and counts it as failed,
# so that the run exits well inside three minutes.
RUN_DEADLINE_S = 150.0
# Inputs of one untraced run: the seed itself, then seed + j * SEED_STRIDE.
# For seeds below the stride, two seeds never share an input.
SEED_STRIDE = 10**6
STATE_DIR = os.path.join(".bench_build", "perfbench")


def cli_argv(spec: dict, cli_seed: int) -> list[str]:
    argv = []
    for key in ("suite", "n", "m", "k", "samples", "degree"):
        argv += [f"--{key}", str(spec[key])]
    return argv + ["--seed", str(cli_seed), "--format", "json"]


def cli_seed(seed: int, index: int) -> int:
    return seed + index * SEED_STRIDE


def expected_check_ids(spec: dict) -> set[str]:
    """The check ids a complete report for ``spec`` holds, from the suite rules."""
    m, k, samples = spec["m"], spec["k"], spec["samples"]
    ids = set()
    if spec["suite"] in ("kernel", "all"):
        if k < m:
            ids |= {"potential-exact-kernel", "potential-moments-vanish",
                    "potential-symmetrized-derivative"}
        else:
            ids.add("degenerate-top-order")
        ids |= {"separation-operator-witness", "separation-moment-witness"}
    if spec["suite"] in ("identities", "all"):
        families = ["moment-conversion", "restricted-recovery",
                    "restriction-contraction", "translation-invariance",
                    "integration-by-parts", "euler-degree"]
        ids.add("partial-symmetrization")
        if m >= 1:
            ids |= {"sv-alternation-equivalence", "sv-alternation-roundtrip",
                    "restriction-relation"}
            families += ["john-power", "collapsed-derivative"]
        ids |= {f"{family}-s{s:02d}" for family in families for s in range(samples)}
    return ids


def src_digest() -> str:
    """SHA-256 over the package sources, naming the code a report came from."""
    digest = hashlib.sha256()
    for root, dirs, files in os.walk("src"):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            path = os.path.join(root, name)
            digest.update(path.encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    return digest.hexdigest()


def git_commit() -> str | None:
    """The checked-out commit, read from .git without running git."""
    try:
        with open(os.path.join(".git", "HEAD"), encoding="ascii") as handle:
            head = handle.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        try:
            with open(os.path.join(".git", ref), encoding="ascii") as handle:
                return handle.read().strip()
        except FileNotFoundError:
            with open(os.path.join(".git", "packed-refs"), encoding="ascii") as handle:
                for line in handle:
                    if line.rstrip().endswith(" " + ref):
                        return line.split()[0]
    except OSError:
        pass
    return None


class Gate:
    """Decides whether one verdict is correct.

    The first report of each CLI argv on the current sources is stored as a
    digest under .bench_build; every later report of that argv, traced or not
    and in this or a later run, must have the same bytes.
    """

    def __init__(self, spec: dict, sources: str):
        self.expected = expected_check_ids(spec)
        self.directory = os.path.join(STATE_DIR, "reports", sources[:16])
        os.makedirs(self.directory, exist_ok=True)

    def problems(self, argv: list[str], result: dict) -> list[str]:
        found = []
        if result["rc"] != 0:
            found.append(f"exit code {result['rc']}")
        try:
            report = json.loads(result["report"])
            records = [rec for suite in report["suites"] for rec in suite["records"]]
        except (ValueError, KeyError, TypeError) as exc:
            return found + [f"unreadable report ({exc!r})"]
        if report.get("pass") is not True:
            found.append("report says pass: false")
        missing = self.expected - {rec["check_id"] for rec in records}
        if missing:
            found.append(f"{len(missing)} expected checks missing, e.g. {min(missing)}")
        key = hashlib.sha256(" ".join(argv).encode()).hexdigest()[:24]
        path = os.path.join(self.directory, key)
        digest = hashlib.sha256(result["report"].encode()).hexdigest()
        if os.path.exists(path):
            with open(path, encoding="ascii") as handle:
                if handle.read() != digest:
                    found.append("report bytes differ from the first run of this argv")
        else:
            with open(path, "w", encoding="ascii") as handle:
                handle.write(digest)
        return found


def run_worker(argv: list[str], trace: bool, deadline: float) -> tuple[dict | None, str]:
    """One verdict in a fresh interpreter: (result or None, error)."""
    command = [sys.executable, WORKER] + (["--trace"] if trace else []) + ["--"] + argv
    try:
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
    except subprocess.TimeoutExpired:
        return None, "verdict passed the run deadline"
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-1:] or [""]
        return None, f"worker exited with {proc.returncode}: {tail[0]}"
    return json.loads(proc.stdout.splitlines()[-1]), ""


def compile_package() -> None:
    """Import the package once untimed, so that no verdict pays for bytecode."""
    subprocess.run([sys.executable, "-c",
                    "import sys; sys.path.insert(0, 'src'); import raymoments"],
                   check=True, capture_output=True)


def speed_scale(results: list[dict]) -> float:
    """Factor that brings this run's timings to the reference speed."""
    return REFERENCE_S / statistics.median(r["reference_s"] for r in results)


def stats(values: list[float]) -> tuple[float, float, float]:
    """Median and quartiles (the quartiles equal the value for one sample)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


class Run:
    """The verdicts of one workload run and what the gate said about them."""

    def __init__(self, name: str, seed: int):
        self.name, self.seed = name, seed
        self.spec = WORKLOADS[name]
        self.sources = src_digest()
        self.gate = Gate(self.spec, self.sources)
        self.attempted = 0
        self.failures: list[str] = []
        self.argvs: list[list[str]] = []
        self.first: dict | None = None

    def verdict(self, index: int, trace: bool, deadline: float) -> dict | None:
        argv = cli_argv(self.spec, cli_seed(self.seed, index))
        if argv not in self.argvs:
            self.argvs.append(argv)
        self.attempted += 1
        result, error = run_worker(argv, trace, deadline)
        found = [error] if result is None else self.gate.problems(argv, result)
        if found:
            self.failures.append(f"{' '.join(argv)}: {'; '.join(found)}")
            return None
        self.first = self.first or result
        return result

    def provenance(self) -> dict:
        return {
            "git_commit": git_commit(),
            "src_sha256": self.sources,
            "python": self.first["python"] if self.first else None,
            "numpy": self.first["numpy"] if self.first else None,
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0)),
            "workload": self.name,
            "seed": self.seed,
            "argv": [["raymoments"] + argv for argv in self.argvs],
        }


def closed_loop(run: Run, seconds: float, trace: bool):
    """Verdicts one after another until the next would end after ``seconds``.

    Untraced, each verdict takes the next input.  Traced, the loop alternates
    an untraced and a traced verdict of the seed's own input, so that both
    see the same work.
    """
    started = time.perf_counter()
    deadline = started + RUN_DEADLINE_S
    plain, traced = [], []
    index = 0
    while True:
        step_started = time.perf_counter()
        if trace:
            plain.append(run.verdict(0, False, deadline))
            traced.append(run.verdict(0, True, deadline))
        else:
            plain.append(run.verdict(index, False, deadline))
            index += 1
        now = time.perf_counter()
        if now + (now - step_started) > started + seconds or now >= deadline:
            break
    return [r for r in plain if r], [r for r in traced if r]


def report_counts(result: dict) -> dict:
    report = json.loads(result["report"])
    records = [rec for suite in report["suites"] for rec in suite["records"]]
    return {"verify.checks": len(records),
            "verify.exact_checks": sum(1 for rec in records if rec["exact"]),
            "verify.resamples": sum(suite["resamples"] for suite in report["suites"])}


def end_to_end(run: Run, plain: list[dict], scale: float) -> dict:
    """The samples of each metric; timings are at the reference speed.

    ``setup_s`` is the import of the package at the start of each verdict's
    fresh interpreter.
    """
    times = [r["verdict_s"] * scale for r in plain]
    counts = [report_counts(r) for r in plain]
    return {
        "verdict_s": times,
        "checks_per_s": [c["verify.checks"] / t for c, t in zip(counts, times)],
        "setup_s": [r["import_s"] * scale for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "exact_frac": [c["verify.exact_checks"] / c["verify.checks"] for c in counts],
        "pass_frac": [1.0 - len(run.failures) / run.attempted],
    }


def per_layer(run: Run, plain: list[dict], traced: list[dict], scale: float) -> dict:
    """The samples of each per-layer metric; a count has one, exact, sample.

    Every traced function has ``.calls`` and ``.self_s``, 0 when not called.
    """
    names = traced[0]["traced"]
    summaries = [summarize(r["spans"]) for r in traced]
    exact = [{**{f"{name}.calls": summary["calls"].get(name, 0) for name in names},
              **report_counts(r), "diffops.out_terms": r["out_terms"]}
             for summary, r in zip(summaries, traced)]
    if any(other != exact[0] for other in exact[1:]):
        run.failures.append("exact counts differ between traced verdicts of one input")
    values = {key: [count] for key, count in exact[0].items()}
    for name in names:
        values[f"{name}.self_s"] = [s["self_s"].get(name, 0.0) * scale for s in summaries]
    for layer in LAYERS:
        values[f"{layer}.self_s"] = [s["module_self_s"][layer] * scale for s in summaries]
    overhead = (stats([r["verdict_s"] for r in traced])[0]
                - stats([r["verdict_s"] for r in plain])[0])
    values["trace_overhead_s"] = [overhead * scale]
    return values


def measure(name: str, seed: int, seconds: float, trace: bool, config: dict) -> dict:
    run = Run(name, seed)
    compile_package()
    plain, traced = closed_loop(run, seconds, trace)
    if not plain or (trace and not traced):
        for failure in run.failures:
            print(f"FAILED {failure}", file=sys.stderr)
        raise SystemExit(f"{name}: no verdict completed")
    scale = speed_scale(plain + traced)
    if trace:
        values = per_layer(run, plain, traced, scale)
        write_spans(run, traced)
        wanted = config["per_layer"]
    else:
        values = end_to_end(run, plain, scale)
        wanted = config["end_to_end"]
    print("# provenance " + json.dumps(run.provenance()))
    metrics = {}
    for metric in wanted:
        samples = values[metric["name"]]
        median, q1, q3 = stats(samples)
        metrics[metric["name"]] = {"value": median, "unit": metric["unit"]}
        print(f"{name:14} {metric['name']:44} {median:12.6g} {metric['unit']:6} "
              f"median of {len(samples)}, q1 {q1:.6g}, q3 {q3:.6g}")
    if trace:
        ranked = sorted(((stats(samples)[0], key[:-len(".self_s")])
                         for key, samples in values.items()
                         if key.endswith(".self_s") and key[:-len(".self_s")] not in LAYERS),
                        reverse=True)
        print(f"{name:14} largest self_s: "
              + ", ".join(f"{span} {value:.3g} s" for value, span in ranked[:5]))
    wall, _, _ = stats([r["verdict_s"] for r in plain])
    print(f"{name:14} {'verdict_wall_s':44} {wall:12.6g} {'s':6} "
          f"median wall time, not scaled (scale {scale:.4g})")
    fail_frac = len(run.failures) / run.attempted
    print(f"{name:14} {'fail_frac':44} {fail_frac:12.6g} {'1':6} "
          f"{len(run.failures)} of {run.attempted} verdicts failed")
    for failure in run.failures:
        print(f"FAILED {failure}")
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": len(run.failures), "metrics": metrics}


def write_spans(run: Run, traced: list[dict]) -> None:
    """Spans of the traced verdicts as JSON lines, after a provenance line."""
    os.makedirs(STATE_DIR, exist_ok=True)
    path = os.path.join(STATE_DIR, f"spans-{run.name}-seed{run.seed}.jsonl")
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps({"provenance": run.provenance()}) + "\n")
        for number, result in enumerate(traced):
            run_id = f"{run.name}/{run.seed}/{number}"
            for index, (span, start, end, parent) in enumerate(result["spans"]):
                handle.write(json.dumps({"run": run_id, "span": index, "name": span,
                                         "start": start, "end": end,
                                         "parent": parent}) + "\n")


def main(argv=None) -> int:
    with open(os.path.join(HERE, "seeds.json"), encoding="utf-8") as handle:
        seeds = json.load(handle)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"], default="all")
    parser.add_argument("--seed", type=int, default=seeds["development"])
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "raymoments", "__init__.py")):
        parser.error("run from the root of a raymoments checkout (no src/raymoments)")
    with open("BENCHMARK.json", encoding="utf-8") as handle:
        config = json.load(handle)
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: measure(name, args.seed, seconds, bool(args.trace), config)
               for name in names}
    if len(results) == 1:
        final = results[names[0]]
    else:
        final = {"correct": all(r["correct"] for r in results.values()),
                 "attempted": sum(r["attempted"] for r in results.values()),
                 "failed": sum(r["failed"] for r in results.values()),
                 "metrics": {f"{name}.{metric}": value for name, r in results.items()
                             for metric, value in r["metrics"].items()}}
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
