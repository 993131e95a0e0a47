"""The benchmark's tracer wraps functions by (module, attribute) name; each
of those names must exist, or a traced run fails when it installs."""

import importlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from tnbench.tracing import Tracer  # noqa: E402


def test_every_traced_name_resolves():
    missing = []
    for mod, attr, _, _ in Tracer._wrap_points():
        module = importlib.import_module(f"tngeom.{mod}")
        if not callable(getattr(module, attr, None)):
            missing.append(f"tngeom.{mod}.{attr}")
    assert not missing
