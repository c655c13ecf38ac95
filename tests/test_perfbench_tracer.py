"""The benchmark's span tracer still binds every boundary it wraps.

``perfbench/tracer.py`` wraps named functions and methods of ``repro``
from the outside and refuses to install when a module-level function is
no longer bound where it expects it.  Installing and uninstalling it here
(imports only, no simulation) turns a deletion or rename that unbinds a
traced name into a test failure.
"""

import importlib.util
from pathlib import Path

import repro  # noqa: F401  (the tracer rebinds names in loaded modules only)

TRACER_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_on_every_target_and_uninstalls_cleanly():
    tracer_module = load_tracer()
    targets = tracer_module._targets()
    originals = [(owner, attr, vars(owner)[attr]) for owner, attr, _, _ in targets]

    tracer = tracer_module.Tracer().install()
    try:
        for attr, modules in tracer_module.REQUIRED_SITES.items():
            assert set(modules) <= set(tracer.sites[attr]), attr
        for owner, attr, original in originals:
            assert vars(owner)[attr] is not original, (owner, attr)
    finally:
        tracer.uninstall()

    for owner, attr, original in originals:
        assert vars(owner)[attr] is original, (owner, attr)
    functions = {attr: original for owner, attr, original in originals
                 if not isinstance(owner, type)}
    for attr, modules in tracer.sites.items():
        for module_name in modules:
            module = importlib.import_module(module_name)
            assert vars(module)[attr] is functions[attr], (module_name, attr)
