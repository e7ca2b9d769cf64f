"""The benchmark wraps package functions by name (perfbench/run.py's
trace_targets); a rename in the package must not leave one unwrapped."""

import importlib
from pathlib import Path
from types import SimpleNamespace

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_name_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))  # run.py imports its siblings
    run = importlib.import_module("run")
    package = SimpleNamespace(**{
        name: importlib.import_module(f"cullen_lehmer.{name}") for name in run.LAYERS
    })
    targets = run.trace_targets(package)
    assert targets
    missing = [t.name for t in targets if not callable(getattr(t.owner, t.attr, None))]
    assert missing == []
