"""The benchmark tracer (bench/tracing.py) wraps fraclimit functions by name,
and installing it fails if one is missing."""

import importlib
from pathlib import Path

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _resolves(modname: str, qual: str) -> bool:
    owner = importlib.import_module(f"fraclimit.{modname}")
    for attr in qual.split("."):
        owner = getattr(owner, attr, None)
    return callable(owner)


def test_tracer_targets_resolve():
    tracing = {}  # run from source: nothing is written next to the file
    exec(compile(TRACING.read_text(encoding="utf-8"), str(TRACING), "exec"), tracing)
    missing = [f"{m}.{q}" for m, q, *_ in tracing["TARGETS"] if not _resolves(m, q)]
    assert missing == []
