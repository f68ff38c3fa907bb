"""The benchmark tracer must find every distshap name it rebinds.

``bench/tracing.py`` rebinds names such as ``experiments.select_bandwidth``;
a renamed or removed name would otherwise surface only as a crash of a
traced benchmark run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_target_resolves_and_is_restored():
    tracing = _load_tracing()
    targets = []
    for _, attributes, _ in tracing.TARGETS:
        for attribute in attributes:
            module_name, attr = attribute.rsplit(".", 1)
            module = importlib.import_module("distshap." + module_name)
            assert hasattr(module, attr), f"distshap.{attribute} is missing"
            targets.append((module, attr, getattr(module, attr)))

    tracer = tracing.Tracer()
    try:
        tracer.install()
        for module, attr, original in targets:
            assert getattr(module, attr) is not original, f"{attr} was not wrapped"
    finally:
        tracer.uninstall()
    for module, attr, original in targets:
        assert getattr(module, attr) is original, f"{attr} was not restored"
