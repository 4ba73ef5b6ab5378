"""The benchmark's tracer wraps engine functions by name; every name it
lists must resolve, or only a traced benchmark run would find out."""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _spans():
    spec = importlib.util.spec_from_file_location("_perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module._SPANS


def test_every_traced_name_resolves_on_the_engine():
    spans = _spans()
    assert spans
    missing = []
    for mod_name, path, _, _ in spans:
        owner = importlib.import_module(f"quasihopf.{mod_name}")
        for part in path.split("."):
            owner = getattr(owner, part, None)
            if owner is None:
                missing.append(f"{mod_name}.{path}")
                break
        else:
            if not callable(owner):
                missing.append(f"{mod_name}.{path}")
    assert missing == []
