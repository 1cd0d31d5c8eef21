"""Golden-file tests for CLI text output.

The exact text of ``repro cache info``, ``repro metrics``, ``repro
stream`` and the ``repro trace`` attribution table is part of the user
interface (people grep it, docs quote it), so it is pinned against
committed golden files in tests/golden/.  Volatile fragments are
normalised before comparison: the cache directory path (a tmp dir
here), the trace output path, and the ``repro stream`` throughput
numbers (wall-clock; the staleness table around them is
deterministic).

To regenerate after an intentional output change::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest tests/test_cli_golden.py
"""

from __future__ import annotations

import os
import re
from pathlib import Path

import pytest

from repro.arch.scheduler import IMBALANCE_MEMO
from repro.cli import main
from repro.perf.cache import temporary_run_cache

GOLDEN_DIR = Path(__file__).parent / "golden"


@pytest.fixture
def fresh_imbalance_memo():
    """A cold process-global imbalance memo.

    The memo outlives the hermetic run cache, so whether earlier tests
    warmed it would otherwise leak into cache-miss counters and the
    `estimate_imbalance` span count.
    """
    IMBALANCE_MEMO.clear()


def _normalize(text: str) -> str:
    text = re.sub(r"(?m)^directory:\s+\S.*$", "directory:      <CACHE_DIR>",
                  text)
    text = re.sub(r"\[trace written to .+? \((\d+) records\)\]",
                  r"[trace written to <TRACE_FILE> (\1 records)]", text)
    text = re.sub(r"[\d,]+ updates/s \([\d.]+x vs serial",
                  "<RATE> updates/s (<X>x vs serial", text)
    return text


def _check_golden(name: str, actual: str) -> None:
    path = GOLDEN_DIR / name
    actual = _normalize(actual)
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(actual)
        pytest.skip(f"regenerated {path}")
    assert path.exists(), (
        f"missing golden file {path}; run with REPRO_UPDATE_GOLDEN=1 "
        f"to create it"
    )
    expected = path.read_text()
    assert actual == expected, (
        f"{name} drifted from its golden file; if the change is "
        f"intentional, regenerate with REPRO_UPDATE_GOLDEN=1"
    )


@pytest.mark.golden
def test_cache_info_golden(tmp_path, capsys):
    with temporary_run_cache(tmp_path / "cache"):
        assert main(["cache", "info"]) == 0
    _check_golden("cache-info.txt", capsys.readouterr().out)


@pytest.mark.golden
def test_metrics_golden(capsys, fresh_imbalance_memo):
    with temporary_run_cache(""):
        assert main(["metrics", "--dataset", "YT", "--algorithm",
                     "pr"]) == 0
    _check_golden("metrics-pr-yt.txt", capsys.readouterr().out)


@pytest.mark.golden
def test_stream_golden(capsys):
    log = Path(__file__).parent / "data" / "tiny-updates.jsonl"
    assert main(["stream", "--log", str(log), "--k", "8"]) == 0
    _check_golden("stream-tiny.txt", capsys.readouterr().out)


@pytest.mark.golden
def test_trace_attribution_golden(tmp_path, capsys, fresh_imbalance_memo):
    with temporary_run_cache(""):
        assert main(["trace", "fig17", "--quiet", "--trace-out",
                     str(tmp_path / "trace.jsonl")]) == 0
    _check_golden("trace-fig17.txt", capsys.readouterr().out)
