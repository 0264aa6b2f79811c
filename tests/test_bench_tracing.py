"""The benchmark's trace points name layers that exist in the package."""

import importlib
import importlib.util
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def test_traced_layers_resolve():
    # loads bench/tracing.py without installing its wrappers
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    missing = []
    for module, attr in tracing.TRACED:
        obj = importlib.import_module(f"piercedcodes.{module}")
        for name in attr.split("."):
            obj = getattr(obj, name, None)
        if not callable(obj):
            missing.append(f"{module}.{attr}")
    assert not missing, missing
