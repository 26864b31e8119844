"""The benchmark under ``perfbench/`` binds sigbasis names from outside.

``perfbench/layers.py`` patches functions and methods by name for
``--trace 1``, and ``perfbench/run.py`` calls the package through attribute
chains on its modules.  A rename or a move in ``src/`` breaks the benchmark
without failing any other test, so the bindings are checked here, reading
both files without importing ``run.py``.
"""

import ast
import importlib
import importlib.util
import pathlib
from types import SimpleNamespace

import pytest

import sigbasis

PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", PERFBENCH / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run_py():
    return ast.parse((PERFBENCH / "run.py").read_text())


def _literal(tree, name):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise LookupError(name)


def _sb_chains(tree):
    """Every ``sb.<module>.<name>`` attribute chain in run.py."""
    chains = set()
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Attribute)
            and isinstance(node.value.value, ast.Name)
            and node.value.value.id == "sb"
        ):
            chains.add((node.value.attr, node.attr))
    return sorted(chains)


LAYERS = _load_layers()
RUN_PY = _run_py()
SUBMODULES = _literal(RUN_PY, "SUBMODULES")


def _module(name):
    return sigbasis if name == "package" else importlib.import_module(f"sigbasis.{name}")


@pytest.mark.parametrize(
    "module, path",
    [(m, p) for m, p, _ in LAYERS.SPANS + LAYERS.COUNTS],
    ids=[f"{m}.{p}" for m, p, _ in LAYERS.SPANS + LAYERS.COUNTS],
)
def test_traced_binding_resolves(module, path):
    # Tracer._patch reads the original from the owner's own __dict__
    owner, attr = LAYERS._resolve(_module(module), path)
    assert attr in owner.__dict__


@pytest.mark.parametrize("module, name", _sb_chains(RUN_PY))
def test_run_py_binding_resolves(module, name):
    assert module == "package" or module in SUBMODULES
    assert hasattr(_module(module), name)


def test_run_py_engine_surface():
    from sigbasis.cli import ProblemSpec
    from sigbasis.engine import RunStats, Strategy

    for name in ("in_order", "min_lm", "f5", "f5_pruned", "f4"):
        assert callable(getattr(Strategy, name))
    for name in ("build_context", "build_generators"):
        assert callable(getattr(ProblemSpec, name))
    # the last counter, basis_size, is counted by the benchmark itself
    counters = _literal(RUN_PY, "COUNTERS")[:-1]
    assert set(counters) <= set(RunStats.__dataclass_fields__)


def test_tracer_installs_and_restores():
    sb = SimpleNamespace(package=sigbasis, **{m: _module(m) for m in SUBMODULES})
    modules = {m: dict(vars(getattr(sb, m))) for m in SUBMODULES}
    methods = [
        (owner, attr, owner.__dict__[attr])
        for owner, attr in (
            LAYERS._resolve(_module(m), p) for m, p, _ in LAYERS.SPANS + LAYERS.COUNTS
        )
    ]
    tracer = LAYERS.Tracer(lambda: 0.0)
    try:
        tracer.install(sb)
        assert sb.engine.run is not modules["engine"]["run"]
        assert sb.cli.json is not modules["cli"]["json"]
    finally:
        tracer.uninstall()
    for m in SUBMODULES:
        assert dict(vars(getattr(sb, m))) == modules[m]
    for owner, attr, original in methods:
        assert owner.__dict__[attr] is original
