"""Tests of the benchmark itself: generator, span arithmetic, result format.

    PYTHONPATH=src python -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import corpus  # noqa: E402
import run  # noqa: E402
from host import MIN_UNITS, REFERENCE_UNIT_S, Probe  # noqa: E402
from spans import Span, Tracer, self_times  # noqa: E402

from coref import DocumentInput, ResolveConfig, default_lexicon, run_pipeline  # noqa: E402
from coref.cli import gold_clustering  # noqa: E402

SPEC = json.loads(run.SPEC.read_text(encoding="utf-8"))


def _corpus(name: str, seed: int) -> list[corpus.GeneratedDoc]:
    workload = run.WORKLOADS[name]
    return corpus.generate(f"{name}:{seed}", workload.lengths, workload.gold)


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    first = [doc.data for doc in _corpus(name, 7)]
    assert first == [doc.data for doc in _corpus(name, 7)]
    assert first != [doc.data for doc in _corpus(name, 8)]


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_generated_documents_run_without_error(name):
    lex = default_lexicon()
    for doc in _corpus(name, 1):
        document = DocumentInput.from_dict(json.loads(json.dumps(doc.data)))
        result = run_pipeline(document, ResolveConfig(), lex)
        assert [(m.sentence_index, *m.span) for m in result.mentions] == doc.spans
        gold = gold_clustering(document, result.mentions)
        assert sorted(mid for entity in gold.entities for mid in entity) == \
            sorted(m.mention_id for m in result.mentions)


def test_self_time_on_hand_built_span_tree():
    # root [0, 10] has children a [1, 3] and b [2, 5] (overlapping) and
    # c [8, 12] (running past its parent); a has child d [1.5, 2.5].
    spans = [Span(0, "root", 0.0, 10.0, None, "x"),
             Span(1, "a", 1.0, 3.0, 0, "x"),
             Span(2, "b", 2.0, 5.0, 0, "x"),
             Span(3, "c", 8.0, 12.0, 0, "x"),
             Span(4, "d", 1.5, 2.5, 1, "x")]
    assert self_times(spans) == {0: 4.0, 1: 1.0, 2: 3.0, 3: 4.0, 4: 1.0}


def test_tracer_records_parents_and_document():
    tracer = Tracer()
    with tracer.span("doc", "d1"):
        with tracer.span("stage"):
            pass
    with tracer.span("load"):
        pass
    doc, stage, load = tracer.spans
    assert (doc.parent, stage.parent, load.parent) == (None, 0, None)
    assert (doc.doc, stage.doc, load.doc) == ("d1", "d1", None)
    assert doc.start <= stage.start <= stage.end <= doc.end <= load.start


@pytest.mark.parametrize("name", list(run.WORKLOADS))
def test_tail_percentile_has_ten_samples_beyond(name):
    workload = run.WORKLOADS[name]
    samples = len(workload.lengths) * workload.min_passes
    assert samples * (100 - workload.tail_pct) / 100 >= 10


def test_probe_scales_by_the_median_unit_time_around_a_step():
    probe = Probe(warm_units=0)
    # Units at 0.1 s intervals: 1 ms up to t = 5 s, 2 ms after.
    probe.at = [i / 10 for i in range(100)]
    probe.unit_s = [0.001 if t <= 5 else 0.002 for t in probe.at]
    assert probe.unit_time(1.0, 2.0) == 0.001
    assert probe.unit_time(7.0, 8.0) == 0.002
    assert probe.scale(1.0, 2.0) == REFERENCE_UNIT_S / 0.001
    # A step with few units near it falls back to the nearest MIN_UNITS.
    probe.at, probe.unit_s = probe.at[:3] + probe.at[-3:], probe.unit_s[:3] + probe.unit_s[-3:]
    assert len(probe.unit_s) < MIN_UNITS
    assert probe.unit_time(0.0, 0.1) == statistics.median(probe.unit_s)


def test_spec_names_the_workloads():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_result_line_carries_every_spec_metric(trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", "gold_eval",
         "--seed", "3", "--seconds", "1", "--trace", trace],
        capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    wanted = SPEC["per_layer" if trace == "1" else "end_to_end"]
    assert list(result["metrics"]) == [m["name"] for m in wanted]
    for entry in wanted:
        assert result["metrics"][entry["name"]]["unit"] == entry["unit"]


def test_fails_without_the_program(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(run.SPEC, tmp_path / "BENCHMARK.json")
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "news_corpus", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
        env={"PATH": "/usr/bin:/bin"})
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
