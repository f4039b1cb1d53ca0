"""The traced benchmark wraps library functions by name; a rename in the
library must fail here rather than crash ``perfbench/run.py --trace 1``."""

import importlib
import importlib.util
import pathlib

TRACING = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_every_traced_target_resolves():
    tracing = _load_tracing()
    assert tracing.TARGETS
    missing = []
    for layer, attr, _ in tracing.TARGETS:
        mod = importlib.import_module("raagqi." + layer)
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(mod, cls_name, None)
            if cls is None or meth not in cls.__dict__:
                missing.append("%s.%s" % (layer, attr))
        elif not hasattr(mod, attr):
            missing.append("%s.%s" % (layer, attr))
    assert not missing, missing
