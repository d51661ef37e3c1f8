"""The benchmark's tracer must find every layer function it wraps.

``perfbench/tracer.py`` replaces layer functions at the modules that bind
them by name.  A binding that a refactor drops is skipped silently and that
layer's metrics then read zero, so every binding site is checked here.
"""

import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_tracer_binds_every_site():
    sys.path.insert(0, str(PERFBENCH))
    try:
        tracer = importlib.import_module("tracer")
    finally:
        sys.path.remove(str(PERFBENCH))
    originals = {
        (short, attr): getattr(importlib.import_module(f"teamcomp.{short}"), attr, None)
        for attr, modules in tracer.SITES.values()
        for short in modules
    }
    assert [site for site, fn in originals.items() if not callable(fn)] == []

    installed = tracer.Tracer()
    installed.install()
    try:
        assert installed.missing == []
    finally:
        installed.uninstall()
    for (short, attr), original in originals.items():
        assert getattr(importlib.import_module(f"teamcomp.{short}"), attr) is original
