import types

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
