import importlib
import inspect
import json
import pathlib
import re

import raymoments

ROOT = pathlib.Path(__file__).resolve().parents[1]

# Every public name of the package.  A name joins or leaves the API only by
# changing this set.
PUBLIC_NAMES = {
    # symtensor
    "BiSymTensor", "RawTensor", "SymTensor", "all_canonical_tuples", "alternate",
    "canonical", "restrict", "symmetrize", "tuple_multiplicity",
    # polygauss
    "ExactValue", "LineTable", "PolyGauss", "Polynomial", "field_scale_report",
    "line_moment", "line_moment_quadrature", "random_field", "rational_sqrt",
    "sym_field",
    # diffops
    "alternated_derivative", "alternated_from_saint_venant",
    "generalized_saint_venant", "inner_derivative", "iterate_d",
    "restriction_relation_residual", "saint_venant", "saint_venant_from_alternated",
    # moments
    "MomentExpression", "PhasePoint", "TSPoint",
    "collapsed_derivative_residual", "dx", "dxi", "extended_from_moments",
    "extended_transform", "john", "john_power_residual", "moment_stack",
    "moment_transform", "random_float_ts_point", "random_phase_point",
    "random_ts_point", "rational_unit_vector", "recover_restricted",
    "restriction_contraction_residual", "symmetrization_split_residual",
    "symmetrized_derivative_residual",
    # verify
    "SuiteConfig", "SuiteResult", "generate_potential", "main", "parse_field",
    "run_suites", "serialize_field", "suite_identities", "suite_kernel",
}


def test_public_names_are_pinned():
    exported = {name for name, value in vars(raymoments).items()
                if not name.startswith("_") and not inspect.ismodule(value)}
    assert exported == PUBLIC_NAMES


def test_benchmark_traces_only_public_functions():
    # the traced benchmark reads a span for each of these names, so each must
    # stay a public function or method defined in its layer module
    config = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    traced = set()
    for metric in config["per_layer"]:
        for suffix in (".calls", ".self_s"):
            if metric["name"].endswith(suffix):
                traced.add(metric["name"][:-len(suffix)])
    layers = {name for name in traced if "." not in name}
    assert layers == {"verify", "diffops", "moments", "polygauss", "symtensor"}
    for name in sorted(traced - layers):
        layer, *path = name.split(".")
        assert len(path) in (1, 2) and not any(part.startswith("_") for part in path), name
        module = importlib.import_module(f"raymoments.{layer}")
        owner = vars(module) if len(path) == 1 else vars(vars(module)[path[0]])
        fn = owner.get(path[-1])
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, name


def test_readme_python_blocks_run():
    # each Python block of README.md runs as written, in a fresh namespace
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", text, re.MULTILINE | re.DOTALL)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})
