"""The benchmark's per-layer metrics name library functions; a rename must fail here.

``bench/tracer.py`` wraps each function listed in its ``LAYERS`` table and
reports a name it cannot find as absent, so without this check a renamed
function would quietly read 0 in its per-layer metric. A layer whose function
the library dropped on purpose is listed in ``RETIRED``, and must stay absent
until the benchmark's table drops it too.
"""

import dataclasses
import importlib
import importlib.util
import sys
import typing
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "bench" / "tracer.py"


def load_layers():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up while built
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.LAYERS


LAYERS = load_layers()

# the exact sensitivities made no perturbed copies, and the function went
RETIRED = {"sensitivity.perturb_money"}


@pytest.mark.parametrize("layer, module_name, names, work_attr", LAYERS,
                         ids=[layer[0] for layer in LAYERS])
def test_layer_is_defined(layer, module_name, names, work_attr):
    module = importlib.import_module(module_name)
    if layer in RETIRED:
        assert not any(hasattr(module, name) for name in names), f"{layer} is back"
        return
    for name in names:
        fn = getattr(module, name, None)
        assert callable(fn), f"{layer}: {module_name}.{name} is not defined"
        if work_attr is not None:
            result = typing.get_type_hints(fn)["return"]
            fields = {f.name for f in dataclasses.fields(result)}
            assert work_attr in fields, f"{layer}: {result.__name__} has no {work_attr!r}"


def test_counted_attributes_are_checked():
    assert {"rows_used", "iterations", "series_terms"} <= {layer[3] for layer in LAYERS}
