import importlib
import os
import subprocess
import sys
import textwrap
import types
from pathlib import Path

import pytest

import oppwalk
from oppwalk import errors, graphs, latency, spectral, walker, wireless

MODULES = (errors, graphs, latency, spectral, walker, wireless)


def test_exports_are_exactly_the_module_apis():
    # every public function or class a module defines is in its __all__,
    # and the package exports the union of those lists and nothing else
    for module in MODULES:
        defined = {name for name, value in vars(module).items()
                   if not name.startswith("_")
                   and getattr(value, "__module__", None) == module.__name__}
        assert defined == set(module.__all__), module.__name__
    exported = {name for name, value in vars(oppwalk).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)}
    assert exported == {name for m in MODULES for name in m.__all__}
    for module in MODULES:
        for name in module.__all__:
            assert getattr(oppwalk, name) is getattr(module, name)


# One tiny command of each kind a run does: a lattice sweep with walks, a
# wireless ensemble, and walk-validate with its oracle column.
_RUNTIME_PROBE = textwrap.dedent("""
    import sys
    from oppwalk import cli
    for argv in (["cycle-sweep", "--n", "6", "--r", "1", "--trials", "20"],
                 ["epd-eta-sweep", "--etas", "2", "--n", "12", "--seeds", "1"],
                 ["walk-validate", "--graphs", "cycle:5:1,wireless:0",
                  "--trials", "20", "--oracle"]):
        assert cli.main(argv) == 0, argv
    print(" ".join(sorted(sys.modules)), file=sys.stderr)
""")


def test_runtime_imports_only_numpy():
    # the only runtime dependency is numpy; scipy, hypothesis and pytest
    # are test tools, and numpy.ma (which np.unique pulls in) stays out
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.environ.get("PYTHONPATH")
    env = {**os.environ,
           "PYTHONPATH": src + (os.pathsep + path if path else "")}
    proc = subprocess.run([sys.executable, "-c", _RUNTIME_PROBE],
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                          text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stderr.split())
    assert "oppwalk.cli" in loaded and "numpy" in loaded
    tools = {m for m in loaded
             if m.split(".")[0] in ("scipy", "hypothesis", "pytest")}
    assert tools == set()
    assert "numpy.ma" not in loaded


@pytest.mark.parametrize("name", sorted(
    path.stem for path in Path(__file__).parent.glob("test_*.py")))
def test_test_module_imports(name):
    # the suite runs with --continue-on-collection-errors, so a test module
    # that cannot be imported would lose its tests without a failure; this
    # names it as one
    importlib.import_module(name)
