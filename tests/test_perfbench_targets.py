"""The benchmark's tracer wraps sthdg functions by name, unguarded: a target
that was renamed or deleted breaks every traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

_TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_targets() -> dict:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", _TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.TARGETS


def test_every_tracer_target_resolves():
    missing = []
    for layer, targets in _tracer_targets().items():
        for module, attr in targets:
            obj = importlib.import_module(f"sthdg.{module}")
            if "." in attr:
                # Tracer.install reads methods from the class's own __dict__
                cls_name, meth = attr.split(".")
                cls = getattr(obj, cls_name, None)
                ok = cls is not None and meth in vars(cls)
            else:
                ok = callable(getattr(obj, attr, None))
            if not ok:
                missing.append(f"{layer}: sthdg.{module}.{attr}")
    assert not missing, missing
