"""The benchmark's traced run looks riemplan functions up by module attribute.

``bench/layers.py`` wraps each ``(module, attribute)`` site in ``SPANS``;
a refactor that renames or deletes one of them breaks the traced run, so
the sites are checked here, where such a refactor is tested.
"""

from __future__ import annotations

import importlib
import importlib.util
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "bench" / "layers.py"


def test_every_traced_site_resolves():
    spec = importlib.util.spec_from_file_location("bench_layers", LAYERS)
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    sites = [site for group in layers.SPANS.values() for site in group]
    assert sites
    missing = [
        f"{mod}.{attr}" for mod, attr in sites if not callable(getattr(importlib.import_module(mod), attr, None))
    ]
    assert missing == []
