"""The library names that ``bench/run.py`` calls or traces still resolve.

The benchmark harness is read as source with ``ast``; it is neither
imported nor run.  A library rename or deletion that would break its
``--trace 1`` mode or a workload then fails here, in about a second.
"""

import ast
import dataclasses
import importlib
import inspect
from pathlib import Path

import numpy as np

import alpha_lab
from alpha_lab import cli
from alpha_lab.training import ConvergenceReport, TrainConfig, _batched_gd

RUN_PY = Path(__file__).resolve().parent.parent / "bench" / "run.py"
TREE = ast.parse(RUN_PY.read_text())


def assigned(name):
    """The value node of the module-level assignment to ``name``."""
    for node in TREE.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise AssertionError(f"bench/run.py no longer assigns {name}")


def constant_tuples(node):
    """Every tuple literal under ``node`` as a list of constants (None for non-constants)."""
    return [
        [e.value if isinstance(e, ast.Constant) else None for e in t.elts]
        for t in ast.walk(node)
        if isinstance(t, ast.Tuple)
    ]


def lab_chain(node):
    """('util', 'derive_rng') for ``lab.util.derive_rng``; None for other expressions."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name) and node.id == "lab" and parts:
        return tuple(reversed(parts))
    return None


def resolve(chain):
    obj = alpha_lab
    for attr in chain:
        obj = getattr(obj, attr)
    return obj


def test_trace_targets_resolve():
    targets = [t for t in constant_tuples(assigned("TRACE_TARGETS")) if len(t) == 4]
    assert len(targets) >= 10
    for module, attr, *_ in targets:
        assert callable(getattr(importlib.import_module(module), attr)), (module, attr)


def test_positional_reads_name_the_traced_parameter():
    # _arg(a, k, i, "name") reads argument i, or the keyword "name" when the
    # call passed it by name: both must be the same parameter
    reads = 0
    for target in (t for t in ast.walk(assigned("TRACE_TARGETS")) if isinstance(t, ast.Tuple)):
        module, attr = (e.value if isinstance(e, ast.Constant) else None for e in target.elts[:2])
        if not isinstance(module, str):
            continue
        params = list(inspect.signature(getattr(importlib.import_module(module), attr)).parameters)
        for call in ast.walk(target):
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_arg":
                i, name = (a.value for a in call.args[2:])
                assert params[i] == name, (module, attr, i, name, params)
                reads += 1
    assert reads >= 8


def test_gd_counts_read_convergence_report_fields():
    # _gd_counts reads the reports of the traced _batched_gd call from result[1]
    fn = next(n for n in TREE.body if isinstance(n, ast.FunctionDef) and n.name == "_gd_counts")
    reports = {t.id for n in ast.walk(fn) if isinstance(n, ast.Assign)
               and ast.unparse(n.value) == "result[1]" for t in n.targets}
    rows = {c.target.id for c in ast.walk(fn) if isinstance(c, ast.comprehension)
            and isinstance(c.iter, ast.Name) and c.iter.id in reports}
    read = {n.attr for n in ast.walk(fn) if isinstance(n, ast.Attribute)
            and isinstance(n.value, ast.Name) and n.value.id in rows}
    assert read and read <= {f.name for f in dataclasses.fields(ConvergenceReport)}, read


def test_batched_gd_returns_thetas_and_reports():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(2, 5, 2))
    y = np.where(rng.random((2, 5)) < 0.5, -1.0, 1.0)
    thetas, reports = _batched_gd(X, y, TrainConfig(max_iterations=3))
    assert isinstance(thetas, np.ndarray) and thetas.shape == (2, 2)
    assert isinstance(reports, list) and len(reports) == 2
    for r in reports:
        assert isinstance(r, ConvergenceReport)
        # plain Python values: the bench sums them into JSON
        assert type(r.converged) is bool and type(r.iterations) is int
        assert type(r.grad_norm) is float


def test_probe_kernels_resolve():
    node = assigned("PROBE_KERNELS")
    kernels = [(m, f) for _, m, f, _ in (t for t in constant_tuples(node) if len(t) == 4) if f]
    # the comprehension part: (name, "losses", fn, alpha) for fn in (...)
    for comp in (n for n in ast.walk(node) if isinstance(n, ast.ListComp)):
        module = comp.elt.elts[1].value
        for gen in comp.generators:
            if isinstance(gen.target, ast.Name) and gen.target.id == comp.elt.elts[2].id:
                kernels += [(module, e.value) for e in gen.iter.elts]
    assert ("util", "softplus") in kernels and ("losses", "margin_alpha_loss") in kernels
    for module, fn in kernels:
        assert callable(getattr(getattr(alpha_lab, module), fn)), (module, fn)


def test_library_calls_resolve_with_their_keywords():
    chains = {lab_chain(n) for n in ast.walk(TREE)} - {None}
    for needed in [("util", "thread_count"), ("util", "derive_rng"),
                   ("risk_oracle",), ("audit_certificate",)]:
        assert needed in chains
    for chain in chains:
        resolve(chain)
    calls = [n for n in ast.walk(TREE) if isinstance(n, ast.Call) and lab_chain(n.func)]
    for call in calls:
        params = inspect.signature(resolve(lab_chain(call.func))).parameters
        for kw in call.keywords:
            assert kw.arg is None or kw.arg in params, (lab_chain(call.func), kw.arg)
    keywords = {(lab_chain(c.func), kw.arg) for c in calls for kw in c.keywords}
    assert (("risk_oracle",), "validate") in keywords
    assert (("audit_certificate",), "max_workers") in keywords


def subcommand_options():
    subparsers = next(
        a for a in cli.build_parser()._actions if a.__class__.__name__ == "_SubParsersAction"
    )
    return {name: set(p._option_string_actions) for name, p in subparsers.choices.items()}


def test_cli_options_of_the_workloads_exist():
    options = subcommand_options()
    calls = [
        n for n in ast.walk(TREE)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name) and n.func.id == "run_cli"
        and n.args and isinstance(n.args[0], ast.List)
    ]
    assert len(calls) >= 5
    for call in calls:
        argv = [e.value if isinstance(e, ast.Constant) else None for e in call.args[0].elts]
        assert argv[0] in options, argv[0]
        for token in argv[1:]:
            if isinstance(token, str) and token.startswith("--"):
                assert token in options[argv[0]], (argv[0], token)
