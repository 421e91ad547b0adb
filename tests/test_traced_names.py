"""The benchmark's tracer (perfbench/tracer.py) must find something to wrap in
every layer it times.

The tracer records a name the package no longer has as missing and leaves
its metrics out, so a rename passes every traced run with the layer's
metrics gone.  A layer is kept while at least one of its names resolves, as
`Tracer.install` resolves it.
"""

import importlib.util
import inspect
import os

import pytest

TRACER = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                      "perfbench", "tracer.py")


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = load_tracer()


def resolves(target, attr):
    try:
        owner = tracer._resolve(target)
    except (ImportError, AttributeError):
        return False
    return inspect.getattr_static(owner, attr, None) is not None


@pytest.mark.parametrize("layer", sorted({site[0] for site in tracer.SITES}))
def test_every_traced_layer_keeps_a_name(layer):
    sites = [(target, attr) for lay, target, attr, _ in tracer.SITES if lay == layer]
    assert any(resolves(*site) for site in sites), \
        "no name of layer %s resolves: %s" % (layer, sites)
