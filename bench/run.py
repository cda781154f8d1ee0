#!/usr/bin/env python3
"""Seeded end-to-end and per-layer benchmark for the coref pipeline.

    python3 bench/run.py --workload news_corpus --seed 1 --seconds 20 --trace 0
    python3 bench/run.py            # every workload, untraced then traced

One process, one client, no threads: documents are run one after another in
a closed loop, in whole passes over the generated corpus, until the time is
up. The last line of standard output is the JSON result; the lines before it
give each metric with its unit and sample count. Metric names, units and
workloads are defined in BENCHMARK.json at the repository root; see
bench/README.md for what each one means.
"""

from __future__ import annotations

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
SPEC = ROOT / "BENCHMARK.json"

sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import corpus  # noqa: E402
from host import Probe  # noqa: E402
from spans import NullTracer, Tracer, self_times  # noqa: E402

try:
    import coref  # noqa: E402
    from coref import cli  # noqa: E402
except ImportError:
    coref = None

#: A run stops starting passes after this long even if it has fewer than
#: ``Workload.min_passes``, so that a much slower program still ends in time.
MAX_MEASURE_SECONDS = 120.0
SETUP_REPEATS = 15
SETUP_PROBE_UNITS = 10
TRACED_MIN_PASSES = 2

#: Span names whose self time is reported as ``<name>_s``, by layer.
LAYER_SPANS = {
    "cli": ("cli.load", "cli.report"),
    "treebank": ("treebank.read_ptb", "treebank.link"),
    "mention": ("mention.extract", "mention.profile"),
    "resolve": ("resolve.resolve",),
    "cluster": ("cluster.closure", "cluster.gold"),
    "score": ("score.pairwise", "score.b3"),
}
STAGES = tuple(name for names in LAYER_SPANS.values() for name in names)


@dataclass(frozen=True)
class Workload:
    """Corpus shape and how the documents are run.

    ``gold`` workloads carry gold mentions and run the way
    ``coref score --gold --json`` and ``coref trace --gold`` run them; the
    others run the way ``coref resolve`` runs them.

    A run makes at least ``min_passes`` passes, which leaves at least ten
    document runs beyond ``tail_pct``. ``doc_ms_tail`` is the median, over
    groups of ``tail_group`` consecutive passes (0: one group of every
    pass), of each group's ``tail_pct`` percentile.
    """
    lengths: tuple[int, ...]  # sentences per document
    gold: bool
    tail_pct: int
    min_passes: int
    tail_group: int = 0


WORKLOADS = {
    # Many short documents: parsing, linking and mention work dominate.
    # Their p99 is made of the few runs that a burst of host noise hit, so it
    # is taken per group of 4 passes, where one burst moves one group.
    "news_corpus": Workload(tuple(2 + i % 11 for i in range(300)), False, 99, 4, 4),
    # Few long documents: antecedent search dominates and its growth shows.
    # Five lengths, one document each, so that p50 and p70 fall at the middle
    # of one document's runs, not at the edge between two documents, where
    # run-to-run noise decides them. (p75, the highest percentile with ten
    # runs beyond it at 8 passes, lies three quarters into the 280-sentence
    # document's runs and moved 13% between runs of the same code.)
    "long_doc": Workload((100, 140, 200, 280, 400), False, 70, 8),
    # Gold mentions and clusters: the evaluation path (cluster/score/trace).
    "gold_eval": Workload(tuple(20 + 5 * (i % 9) for i in range(45)), True, 95, 5),
}


class CheckFailed(Exception):
    """An output or consistency check failed; the run is not correct."""


# ---------------------------------------------------------------------------
# Set-up time
# ---------------------------------------------------------------------------

_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import coref
t1 = time.perf_counter()
coref.default_lexicon()
t2 = time.perf_counter()
print(coref.__file__, t1 - t0, t2 - t1)
"""


@dataclass
class Setup:
    seconds: float  # median wall time of a fresh interpreter, spawn to exit
    import_s: float
    lexicon_s: float
    samples: int
    raw_seconds: float  # the same, not scaled to the reference host speed


def measure_setup(repeats: int, probe: Probe) -> Setup:
    """Start fresh interpreters that import coref and load the default
    lexicon; the first start is discarded (it may compile bytecode). Each
    time is scaled to the reference host speed; the probe runs between
    starts, while no child is running."""
    command = [sys.executable, "-I", "-c", _SETUP_CHILD, str(SRC)]
    runs = []
    for attempt in range(repeats + 1):
        probe.run(SETUP_PROBE_UNITS)
        start = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True,
                              timeout=60, cwd=ROOT)
        end = time.perf_counter()
        if proc.returncode != 0:
            raise CheckFailed(f"set-up child failed: {proc.stderr.strip()[-500:]}")
        origin, import_s, lexicon_s = proc.stdout.split()
        if not Path(origin).resolve().is_relative_to(SRC):
            raise CheckFailed(f"set-up child imported coref from {origin}")
        if attempt:
            runs.append((start, end, float(import_s), float(lexicon_s)))
    probe.run(SETUP_PROBE_UNITS)
    scales = [probe.scale(start, end) for start, end, _, _ in runs]
    walls = [end - start for start, end, _, _ in runs]
    return Setup(
        seconds=statistics.median(wall * k for wall, k in zip(walls, scales)),
        import_s=statistics.median(run[2] * k for run, k in zip(runs, scales)),
        lexicon_s=statistics.median(run[3] * k for run, k in zip(runs, scales)),
        samples=repeats,
        raw_seconds=statistics.median(walls))


# ---------------------------------------------------------------------------
# One pass over the corpus
# ---------------------------------------------------------------------------

Interval = tuple[float, float]  # perf_counter start and end of a timed step


@dataclass
class PassResult:
    seconds: float  # load + every document + corpus-level report
    load_at: Interval
    report_at: Interval  # corpus-level report only
    doc_at: dict[str, Interval]  # pipeline plus that document's output
    mentions: int
    attempted: int
    failed: dict[str, str]
    digest: str
    span_range: range = range(0)
    counts: Counter = field(default_factory=Counter)


class Runner:
    """Runs one workload's corpus file through the coref public functions."""

    def __init__(self, workload: Workload, path: Path,
                 docs: list[corpus.GeneratedDoc]):
        self.workload = workload
        self.path = path
        self.expected = {doc.data["id"]: doc.spans for doc in docs}
        self.sentences = {doc.data["id"]: len(doc.data["sentences"]) for doc in docs}
        self.cfg = coref.ResolveConfig()
        self.lex = coref.default_lexicon()

    def staged_pipeline(self, document, tracer: Tracer,
                        candidate_log: dict) -> "coref.PipelineResult":
        """``run_pipeline`` one public call at a time, each in a span.

        Leaves out run_pipeline's annotation range check, which only rejects
        malformed input; the output check against the CLI covers the rest.
        """
        trees = []
        for i, sentence in enumerate(document.sentences):
            with tracer.span("treebank.read_ptb"):
                parsed = coref.read_ptb(sentence)
            if len(parsed) != 1:
                raise coref.DocumentError(document.doc_id, f"sentence {i}: "
                                          f"{len(parsed)} trees")
            trees.append(parsed[0])
        with tracer.span("treebank.link"):
            tree = coref.link_document(trees)
        with tracer.span("mention.extract"):
            if document.gold_mentions is not None:
                mentions = coref.map_gold_mentions(tree, document.gold_mentions)
            else:
                mentions = coref.extract_mentions(tree)
        with tracer.span("mention.profile"):
            coref.attach_profiles(mentions, coref.annotation_index(document.annotations),
                                  self.lex, use_word_lists=self.cfg.use_word_lists)
        with tracer.span("resolve.resolve"):
            decisions = coref.resolve_document(tree, mentions, self.lex, self.cfg,
                                               candidate_log)
        with tracer.span("cluster.closure"):
            clustering = coref.transitive_closure(decisions,
                                                  [m.mention_id for m in mentions])
        return coref.PipelineResult(input=document, tree=tree, mentions=mentions,
                                    decisions=decisions, clustering=clustering)

    def run_pass(self, tracer: Optional[Tracer], probe: Probe) -> PassResult:
        """Untraced passes call ``run_pipeline`` as the CLI does; traced
        passes call its stages one by one inside spans. The probe runs
        between timed steps."""
        trace = tracer or NullTracer()
        first_span = len(tracer.spans) if tracer else 0
        gold = self.workload.gold
        clock = time.perf_counter
        lines: list[str] = []
        doc_at: dict[str, Interval] = {}
        failed: dict[str, str] = {}
        counts: Counter = Counter()
        doc_scores: list = []
        report = cli.TraceReport(has_gold=gold)
        mentions = 0

        probe.tick()
        start = clock()
        with trace.span("cli.load"):
            documents = cli.load_documents([str(self.path)])
        load_at = (start, clock())
        busy = load_at[1] - start
        for document in documents:
            candidate_log: dict = {}
            probe.tick()
            start = clock()
            try:
                with trace.span("doc", document.doc_id):
                    if tracer is None:
                        result = coref.run_pipeline(document, self.cfg, self.lex)
                    else:
                        result = self.staged_pipeline(document, tracer, candidate_log)
                    if gold:
                        report = self._score_and_trace(document, result, trace,
                                                       doc_scores, report)
                    else:
                        with trace.span("cli.report"):
                            self._resolve_rows(document, result, lines)
            except Exception as err:  # one bad document must not stop the run
                busy += clock() - start
                failed[document.doc_id] = f"{type(err).__name__}: {err}"
                continue
            doc_at[document.doc_id] = (start, clock())
            busy += doc_at[document.doc_id][1] - start
            mentions += len(result.mentions)
            spans = [(m.sentence_index, *m.span) for m in result.mentions]
            if spans != self.expected.get(document.doc_id):
                failed[document.doc_id] = "mention universe differs from the generator's"
            if tracer is not None:
                _count(counts, result, candidate_log)
        probe.tick()
        start = clock()
        with trace.span("cli.report"):
            if gold:
                lines.append(json.dumps(cli.score_corpus(doc_scores), sort_keys=True))
                lines.append(report.to_text(1))
        report_at = (start, clock())
        busy += report_at[1] - start
        probe.tick()
        text = "".join(line + "\n" for line in lines)
        return PassResult(
            seconds=busy, load_at=load_at, report_at=report_at,
            doc_at=doc_at, mentions=mentions,
            attempted=len(documents), failed=failed,
            digest=hashlib.sha256(text.encode("utf-8")).hexdigest(),
            span_range=range(first_span, len(tracer.spans) if tracer else 0),
            counts=counts)

    @staticmethod
    def _resolve_rows(document, result, lines: list[str]) -> None:
        # Same rows as ``coref resolve`` prints.
        for m in result.mentions:
            label = result.clustering.label_of(m.mention_id)
            lines.append(f"{document.doc_id}\t{m.sentence_index}\t{m.span[0]}"
                         f"\t{m.span[1]}\t{label}")

    @staticmethod
    def _score_and_trace(document, result, trace, doc_scores, report):
        # The per-document work of ``coref score --gold`` and ``coref trace --gold``.
        with trace.span("cluster.gold"):
            gold = cli.gold_clustering(document, result.mentions)
        if gold is None:
            raise coref.DocumentError(document.doc_id, "no gold clusters in input")
        with trace.span("score.pairwise"):
            counts = coref.pairwise_counts(result.clustering, gold)
        with trace.span("score.b3"):
            b3 = coref.b_cubed_doc(result.clustering, gold) if result.mentions else None
        doc_scores.append((document.doc_id, counts, b3))
        with trace.span("cli.report"):
            return report + cli.trace_report(result.decisions, result.mentions, gold)


def _count(counts: Counter, result, candidate_log: dict) -> None:
    """Per-layer work counts for one document (traced passes only)."""
    counts["cli.docs"] += 1
    counts["treebank.nodes"] += len(result.tree.nodes)
    depth = max((node.depth for node in result.tree.nodes), default=0)
    counts["treebank.max_depth"] = max(counts["treebank.max_depth"], depth)
    counts["mention.mentions"] += len(result.mentions)
    counts["mention.pronouns"] += sum(m.kind is coref.MentionKind.PRONOUN
                                      for m in result.mentions)
    position = {m.mention_id: i for i, m in enumerate(result.mentions)}
    counts["resolve.pool_pairs"] += sum(position[mid] for mid in candidate_log)
    counts["resolve.candidates_kept"] += sum(map(len, candidate_log.values()))
    for decision in result.decisions:
        counts[f"resolve.rule.{decision.rule.value}"] += 1
    counts["cluster.entities"] += len(result.clustering)


# ---------------------------------------------------------------------------
# Reference output from the CLI, and quality against the generator's gold
# ---------------------------------------------------------------------------

def cli_output(argv: list[str]) -> str:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        status = cli.main(argv)
    if status != 0:
        raise CheckFailed(f"coref {' '.join(argv)} exited {status}: "
                          f"{err.getvalue().strip()[-500:]}")
    return out.getvalue()


def reference_run(workload: Workload, path: Path,
                  docs: list[corpus.GeneratedDoc]) -> tuple[str, float, float]:
    """CLI output for the corpus, plus pairwise and B-cubed F1 against the
    generator's gold clusters."""
    if workload.gold:
        score_text = cli_output(["score", "--gold", "--json", str(path)])
        text = score_text + cli_output(["trace", "--gold", str(path)])
        report = json.loads(score_text)
        return text, report["pairwise"]["f"], report["b3"]["f"]
    text = cli_output(["resolve", str(path)])
    rows: dict[str, list[tuple[int, int, int, int]]] = defaultdict(list)
    for line in text.splitlines():
        doc_id, s, start, end, label = line.split("\t")
        rows[doc_id].append((int(s), int(start), int(end), int(label)))
    counts, b3 = [], []
    for doc in docs:
        got = rows.get(doc.data["id"], [])
        if [row[:3] for row in got] != doc.spans:
            raise CheckFailed(f"{doc.data['id']}: CLI mentions differ from the generator's")
        universe = range(len(got))
        entities: dict[int, list[int]] = defaultdict(list)
        for i, row in enumerate(got):
            entities[row[3]].append(i)
        system = coref.Clustering(universe, entities.values())
        gold = coref.Clustering(universe, doc.data["gold_clusters"])
        counts.append(coref.pairwise_counts(system, gold))
        b3.append(coref.b_cubed_doc(system, gold))
    return text, coref.pairwise_micro(counts).f1, coref.b_cubed_macro(b3).f1


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def percentile(values: list[float], pct: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def slope(xs: list[float], ys: list[float]) -> float:
    """Least-squares slope of ys against xs."""
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    sxx = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / sxx


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Runs
# ---------------------------------------------------------------------------

def measure(runner: Runner, seconds: float, traced: bool, probe: Probe
            ) -> tuple[list[PassResult], list[PassResult], Optional[Tracer], float]:
    """Whole passes until ``seconds`` have gone and there are enough passes.

    Untraced runs make only untraced passes; traced runs alternate untraced
    and traced passes so that both see the same machine state. Also returns
    the peak resident memory in MB once the least number of passes is done:
    later passes leave only the benchmark's own timing records behind.
    """
    tracer = Tracer() if traced else None
    plain: list[PassResult] = []
    with_spans: list[PassResult] = []
    need = TRACED_MIN_PASSES if traced else runner.workload.min_passes
    start = time.perf_counter()
    while True:
        plain.append(runner.run_pass(None, probe))
        if traced:
            with_spans.append(runner.run_pass(tracer, probe))
        if len(plain) == need:
            peak_rss = peak_rss_mb()
        elapsed = time.perf_counter() - start
        if elapsed >= MAX_MEASURE_SECONDS or (elapsed >= seconds and len(plain) >= need):
            return plain, with_spans, tracer, peak_rss if len(plain) >= need else peak_rss_mb()


def scaled(probe: Probe, at: Interval) -> float:
    """Seconds the step took, at the reference host speed."""
    return (at[1] - at[0]) * probe.scale(*at)


def pass_scale(probe: Probe, p: PassResult) -> float:
    return probe.scale(p.load_at[0], p.report_at[1])


def end_to_end(workload: Workload, runner: Runner, passes: list[PassResult],
               setup: Setup, f1: tuple[float, float], probe: Probe,
               peak_rss: float) -> tuple[dict, dict]:
    """Each step of a pass (loading, every document, the corpus report) is
    timed at the median of all its runs, each scaled to the reference host
    speed; throughput is the corpus over the sum of those step times.

    The tail is the median over groups of ``tail_group`` passes of each
    group's ``tail_pct`` percentile. (A run cut short by
    ``MAX_MEASURE_SECONDS`` may have one smaller group.)
    """
    def typical(runs: list[Interval]) -> tuple[float, float]:
        return (statistics.median(scaled(probe, at) for at in runs),
                statistics.median(at[1] - at[0] for at in runs))

    runs: dict[str, list[Interval]] = defaultdict(list)
    for p in passes:
        for doc_id, at in p.doc_at.items():
            runs[doc_id].append(at)
    samples = [scaled(probe, at) for times in runs.values() for at in times]
    n = workload.tail_group or len(passes)
    groups = [[scaled(probe, at) for p in passes[i:i + n] for at in p.doc_at.values()]
              for i in range(0, max(1, len(passes) - n + 1), n)]
    doc_time = {doc_id: typical(times) for doc_id, times in runs.items()}
    load, report = typical([p.load_at for p in passes]), typical([p.report_at for p in passes])
    pass_time, raw_pass_time = (load[i] + sum(t[i] for t in doc_time.values()) + report[i]
                                for i in (0, 1))
    mentions = sum(len(runner.expected[doc_id]) for doc_id in doc_time)
    xs = [math.log(len(runner.expected[doc_id])) for doc_id in doc_time]
    ys = [math.log(t[0]) for t in doc_time.values()]
    metrics = {
        "setup_s": setup.seconds,
        "docs_per_s": len(doc_time) / pass_time,
        "mentions_per_s": mentions / pass_time,
        "doc_ms_p50": statistics.median(samples) * 1e3,
        "doc_ms_tail": statistics.median(percentile(group, workload.tail_pct)
                                         for group in groups) * 1e3,
        "scaling_exp": slope(xs, ys),
        "peak_rss_mb": peak_rss,
        "pair_f1": f1[0],
        "b3_f1": f1[1],
    }
    beyond = len(groups[0]) * (100 - workload.tail_pct) / 100
    notes = {
        "setup_s": f"median of {setup.samples} fresh interpreters (import "
                   f"{setup.import_s:.4f} s, lexicon {setup.lexicon_s:.4f} s; "
                   f"{setup.raw_seconds:.4f} s unscaled)",
        "docs_per_s": f"{len(doc_time)} docs / {pass_time:.4f} s pass, median of "
                      f"{len(passes)} runs per step ({len(doc_time) / raw_pass_time:.6g} "
                      f"unscaled)",
        "mentions_per_s": f"{mentions} mentions / {pass_time:.4f} s pass "
                          f"({mentions / raw_pass_time:.6g} unscaled)",
        "doc_ms_p50": f"p50 of {len(samples)} document runs",
        "doc_ms_tail": (f"median over {len(groups)} groups of {n} passes of "
                        if workload.tail_group else "")
                       + f"p{workload.tail_pct} of {len(groups[0])} document runs, "
                       f"{beyond:.1f} beyond it",
        "scaling_exp": f"log-log slope over {len(xs)} documents, median of each one's runs",
        "peak_rss_mb": f"ru_maxrss of the run's process after its first "
                       f"{workload.min_passes} passes",
        "pair_f1": "micro pairwise F1 vs the generator's gold, from CLI output",
        "b3_f1": "macro B-cubed F1 vs the generator's gold, from CLI output",
    }
    return metrics, notes


def per_layer(runner: Runner, plain: list[PassResult], traced: list[PassResult],
              tracer: Tracer, setup: Setup, probe: Probe) -> tuple[dict, dict, dict]:
    """Per-pass self time of each stage (median over traced passes, scaled to
    the reference host speed), its share of the pass, work counts, and the
    per-length stage breakdown."""
    stage_s: dict[str, list[float]] = defaultdict(list)
    stage_share: dict[str, list[float]] = defaultdict(list)
    by_length: dict[int, dict[str, list[float]]] = defaultdict(lambda: defaultdict(list))
    for p in traced:
        chunk = [tracer.spans[i] for i in p.span_range]
        own = self_times(chunk)
        totals: Counter = Counter()
        per_doc: dict[str, Counter] = defaultdict(Counter)
        for span in chunk:
            if span.name in STAGES:
                totals[span.name] += own[span.sid]
                if span.doc is not None:
                    per_doc[span.doc][span.name] += own[span.sid]
        k = pass_scale(probe, p)
        for name in STAGES:
            stage_s[name].append(totals[name] * k)
            stage_share[name].append(totals[name] / p.seconds)
        for doc_id, stages in per_doc.items():
            row = by_length[runner.sentences[doc_id]]
            at = p.doc_at.get(doc_id, (0.0, 0.0))
            doc_k = probe.scale(*at)
            row["doc"].append((at[1] - at[0]) * doc_k)
            row["mentions"].append(len(runner.expected[doc_id]))
            for name in STAGES:
                row[name].append(stages[name] * doc_k)

    counts = traced[0].counts
    metrics: dict[str, float] = {}
    for layer, names in LAYER_SPANS.items():
        for name in names:
            metrics[f"{name}_s"] = statistics.median(stage_s[name])
            metrics[f"{name}_s.share"] = statistics.median(stage_share[name])
        metrics[f"{layer}.share"] = sum(metrics[f"{name}_s.share"] for name in names)
    for key in ("cli.docs", "treebank.nodes", "treebank.max_depth", "mention.mentions",
                "mention.pronouns", "resolve.pool_pairs", "resolve.candidates_kept",
                "cluster.entities"):
        metrics[key] = counts[key]
    for rule in coref.Rule:
        metrics[f"resolve.rule.{rule.value}"] = counts[f"resolve.rule.{rule.value}"]
    metrics["lexicon.load_s"] = setup.lexicon_s
    metrics["resolve.us_per_mention"] = (metrics["resolve.resolve_s"]
                                         / counts["mention.mentions"] * 1e6)
    metrics["resolve.kept_ratio"] = counts["resolve.candidates_kept"] / counts["resolve.pool_pairs"]
    untraced, with_spans = (
        statistics.median(len(p.doc_at) / (p.seconds * pass_scale(probe, p)) for p in ps)
        for ps in (plain, traced))
    metrics["trace.overhead_ratio"] = (untraced - with_spans) / untraced

    notes = {f"{name}_s": f"median of {len(traced)} traced passes, per pass"
             for name in STAGES}
    notes["lexicon.load_s"] = f"median of {setup.samples} fresh interpreters"
    notes["trace.overhead_ratio"] = (f"untraced {untraced:.2f} vs traced "
                                     f"{with_spans:.2f} docs/s, {len(plain)}+{len(traced)} passes")
    breakdown = {
        length: {name: statistics.median(values) for name, values in row.items()}
        for length, row in sorted(by_length.items())
    }
    return metrics, notes, breakdown


def print_breakdown(breakdown: dict) -> None:
    """Median per-document seconds of each stage, by document length."""
    stages = [name for name in STAGES
              if any(row[name] for row in breakdown.values())]
    print("per-length breakdown (median ms per document):")
    print("  sentences mentions " + " ".join(f"{name.split('.')[-1]:>9}"
                                             for name in stages) + "       doc")
    for length, row in breakdown.items():
        cells = " ".join(f"{row[name] * 1e3:9.3f}" for name in stages)
        print(f"  {length:9d} {row['mentions']:8.0f} {cells} {row['doc'] * 1e3:9.3f}")


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------

def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    workload = WORKLOADS[name]
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    wanted = spec["per_layer" if traced else "end_to_end"]
    docs = corpus.generate(f"{name}:{seed}", workload.lengths, workload.gold)
    OUT.mkdir(exist_ok=True)
    path = OUT / f"corpus-{name}-{seed}-{os.getpid()}.jsonl"
    problems: list[str] = []
    try:
        with open(path, "w", encoding="utf-8") as handle:
            for doc in docs:
                handle.write(json.dumps(doc.data) + "\n")
        probe = Probe()
        setup = measure_setup(SETUP_REPEATS, probe)
        try:
            reference, *f1 = reference_run(workload, path, docs)
        except CheckFailed as err:
            problems.append(str(err))
            reference, f1 = "", [0.0, 0.0]
        runner = Runner(workload, path, docs)
        plain, with_spans, tracer, peak_rss = measure(runner, seconds, traced, probe)
    finally:
        path.unlink(missing_ok=True)

    passes = plain + with_spans
    digests = {p.digest for p in passes}
    reference_digest = hashlib.sha256(reference.encode("utf-8")).hexdigest()
    if len(digests) != 1:
        problems.append(f"output differs between passes: {sorted(digests)}")
    elif reference_digest not in digests:
        problems.append("output differs from the CLI's output")
    if any(p.counts != with_spans[0].counts for p in with_spans):
        problems.append("work counts differ between traced passes")
    attempted = sum(p.attempted for p in passes)
    failed = sum(len(p.failed) for p in passes)
    errors: dict[str, str] = {}
    for p in passes:
        for doc_id, error in p.failed.items():
            errors.setdefault(doc_id, error)
    problems.extend(f"{doc_id}: {error}" for doc_id, error in sorted(errors.items()))
    if traced:
        metrics, notes, breakdown = per_layer(runner, plain, with_spans, tracer, setup, probe)
    else:
        metrics, notes = end_to_end(workload, runner, plain, setup, f1, probe, peak_rss)
        breakdown = {}

    sentences = sum(len(doc.data["sentences"]) for doc in docs)
    mentions = sum(len(doc.spans) for doc in docs)
    print(f"workload {name} seed {seed} trace {int(traced)}: {len(docs)} docs, "
          f"{sentences} sentences, {mentions} mentions")
    print(f"output sha256 {reference_digest} (CLI), {len(passes)} passes "
          f"{'identical' if len(digests) == 1 else 'DIFFER'}")
    print(f"docs_failed_share {failed / attempted:.6f} ({failed} of {attempted} document runs)")
    print(f"host speed: {probe}")
    for problem in problems[:10]:
        print(f"problem: {problem}")
    for entry in wanted:
        value = metrics[entry["name"]]
        print(f"  {entry['name']:<32} {value:>14.6g} {entry['unit']:<6} "
              f"{notes.get(entry['name'], '')}")
    if breakdown:
        print_breakdown(breakdown)

    stem = f"{name}-seed{seed}-trace{int(traced)}"
    summary = {"workload": name, "seed": seed, "trace": int(traced),
               "docs": len(docs), "sentences": sentences, "mentions": mentions,
               "python": sys.version.split()[0], "output_sha256": reference_digest,
               "attempted": attempted, "failed": failed, "problems": problems,
               "pass_seconds": [p.seconds for p in plain],
               "metrics": metrics, "notes": notes, "host": str(probe),
               "per_length_ms": {n: {k: v * 1e3 if k != "mentions" else v
                                     for k, v in row.items()}
                                 for n, row in breakdown.items()}}
    (OUT / f"{stem}.json").write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    if tracer is not None:
        with gzip.open(OUT / f"{name}-seed{seed}-spans.jsonl.gz", "wt",
                       encoding="utf-8") as handle:
            tracer.write(handle)

    correct = not problems and failed == 0
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {entry["name"]: {"value": metrics[entry["name"]], "unit": entry["unit"]}
                    for entry in wanted},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: float) -> int:
    """Every workload, untraced then traced, each in its own process."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, timeout=600)
            status = status or proc.returncode
    return status


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"], default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per run (default: run_seconds "
                             "in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: per-layer metrics from a traced run")
    args = parser.parse_args(argv)
    if coref is None or not Path(coref.__file__).resolve().is_relative_to(SRC):
        print(f"error: the coref package was not found under {SRC}", file=sys.stderr)
        return 2
    seconds = args.seconds or json.loads(SPEC.read_text(encoding="utf-8"))["run_seconds"]
    if args.workload == "all":
        return run_all(args.seed, seconds)
    return run_workload(args.workload, args.seed, seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
