"""Every name the traced benchmark wraps exists on the live modules.

``bench/spans.py`` wraps the functions that one netsteglab module calls
from the layer below by their attribute name (``netsim.build_tcp_frame``,
``Interceptor.process`` and so on).  A wrapped name that is renamed or
deleted raises ``KeyError`` when a traced benchmark run installs its
wrappers, minutes into ``pytest bench``.  This test installs and removes
the same wrappers in-process, so such a change fails in seconds.  It only
reads ``bench/``.
"""

import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parents[1] / "bench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_boundary_the_bench_wraps_exists_and_is_restored():
    spans = load_spans()
    patches = spans.boundary_patches()
    tracer = spans.Tracer()
    try:
        tracer.install(patches)
        for owner, attr, *_ in patches:
            assert hasattr(getattr(owner, attr), "__wrapped__"), attr
    finally:
        tracer.uninstall()
    for owner, attr, *_ in patches:
        assert not hasattr(getattr(owner, attr), "__wrapped__"), attr
