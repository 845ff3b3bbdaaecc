"""The traced benchmark wraps package functions and methods by name
(``perfbench/spans.py``), so deleting or renaming one of them breaks the
traced run.  This loads the tracer by file path and installs it once."""

import importlib
import importlib.util
from pathlib import Path

from latentlab import Mask, locate

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_span_tracer_installs_and_restores(fig4):
    spans = load_spans()
    targets = [(locate, "locate_shared_info")] + [
        (getattr(importlib.import_module(f"latentlab.{layer}"), cls), method)
        for layer, cls, method, _ in spans.METHODS
    ]
    originals = [getattr(owner, name) for owner, name in targets]
    with spans.Tracer() as tracer:
        info = locate.locate_shared_info(fig4, Mask({"x1"}))
        fig4.topo_depth("z3")
    assert info.c == {"z3"}
    assert {"locate.locate_shared_info", "graph.topo_depth"} <= {span[1] for span in tracer.spans}
    assert [getattr(owner, name) for owner, name in targets] == originals
