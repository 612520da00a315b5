"""Public API bookkeeping: every exported name exists, the package runs on
numpy alone, and its cli module runs as a script without a warning."""

from __future__ import annotations

import importlib
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import partwarp

MODULES = ["geom", "registration", "shapemodel", "transfer", "synth", "evaluation", "cli"]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(f"partwarp.{name}")
    missing = [n for n in module.__all__ if not hasattr(module, n)]
    assert missing == []


def _run_python(*args: str) -> subprocess.CompletedProcess:
    src = str(Path(partwarp.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    return subprocess.run([sys.executable, *args], env=env,
                          capture_output=True, text=True, timeout=120)


def test_package_runs_without_scipy():
    # scipy is a test dependency only; a None entry in sys.modules makes any
    # import of it raise ImportError.
    script = textwrap.dedent("""
        import sys
        sys.modules["scipy"] = None
        import partwarp
        from partwarp.shapemodel import select_canonical
        from partwarp.synth import default_spec, generate
        from partwarp.transfer import label_parts

        obj, _, _ = generate(default_spec("mug", seed=3, points_per_part=400))
        labeled = label_parts(obj)
        assert labeled.parts["cup"].label_keys() == ("adj:handle", "z")
        clouds = [generate(default_spec("mug", seed=s, points_per_part=60))[0].parts["cup"]
                  for s in range(3)]
        assert 0 <= select_canonical(clouds) < 3
        assert not any(name.split(".")[0] == "scipy" for name, mod in sys.modules.items()
                       if mod is not None)
    """)
    proc = _run_python("-c", script)
    assert proc.returncode == 0, proc.stderr


def test_importing_every_module_loads_no_scipy():
    # The runtime dependency is numpy alone: no module may import scipy, even
    # where nothing would call it.
    script = textwrap.dedent("""
        import importlib, pkgutil, sys
        import partwarp
        names = sorted(m.name for m in pkgutil.iter_modules(partwarp.__path__))
        for name in names:
            importlib.import_module(f"partwarp.{name}")
        print(" ".join(names))
        assert "scipy" not in sys.modules, "scipy was imported"
    """)
    proc = _run_python("-c", script)
    assert proc.returncode == 0, proc.stderr
    assert set(proc.stdout.split()) >= set(MODULES)


def test_cli_module_runs_without_a_reimport_warning():
    # runpy warns when the module it is asked to run as __main__ was already
    # imported by its package's __init__.
    proc = _run_python("-W", "default", "-m", "partwarp.cli", "--help")
    assert proc.returncode == 0, proc.stderr
    assert "usage" in proc.stdout
    assert "RuntimeWarning" not in proc.stderr, proc.stderr
