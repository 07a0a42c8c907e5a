"""The entry points the benchmark in bench/ calls and wraps still exist."""

import importlib
from pathlib import Path

BENCH = Path(__file__).resolve().parents[1] / "bench"


def test_bench_builds_its_model_and_wraps_every_entry_point(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    phases = importlib.import_module("phases")
    spans = importlib.import_module("spans")
    cfg = phases.model_config()
    assert cfg.encoder.positional == "grid"
    # The bench reads the decoder's shape through these two aliases.
    assert (cfg.lm_layers, cfg.lm_heads) == (cfg.lm.layers, cfg.lm.heads)

    rec = spans.SpanRecorder()
    try:
        spans.instrument(rec)
        wrapped = list(rec._undo)
        assert wrapped
        for owner, attr, original in wrapped:
            assert getattr(owner, attr).__wrapped__ is original, attr
    finally:
        rec.restore()
    for owner, attr, original in wrapped:
        assert getattr(owner, attr) is original, attr
