"""Regenerate ``digests.json``: the sha256 of each CLI output that
``test_cli_output_matches_digests_under_every_single_flag`` checks.

Run from the repository root, only when a change means to alter output:

    PYTHONPATH=src python tests/golden/make_digests.py

The ``bench_*.jsonl`` corpora are fixed inputs, made once by the benchmark's
generator and checked in so that a change in ``random`` across Python
versions cannot change them. Each is ``corpus.generate(seed, lengths,
gold_mentions)`` from ``bench/corpus.py``, written one ``json.dumps(doc.data)``
per line:

    bench_news.jsonl       "news_corpus:1", [2 + i % 11 for i in range(33)], False
    bench_long_doc.jsonl   "long_doc:1",    [140],                           False
    bench_gold.jsonl       "gold_eval:1",   [20, 30, 40, 50],                True

``coord.jsonl`` is written by hand for the same-sentence antecedent search:
one sentence of 100 coordinated "JohnK" NPs and a mixed coordination of
names and pronouns, nested same-sentence NPs ("of" chains, appositives and
coordinations inside one another), and gold mentions with duplicated spans
and spans on unary NP chains.

``filters.jsonl`` is written by hand so that each filter and rule that
only some flag switches shows in the digests: "I left." / "You stayed."
(grammatical person and the second-person switch), "John will be the
winner." (a modal before the copula), "Mary has been the leader." (a chain
of VPs with no modal), and "Mary waited for Bill." / "To call John, he
left." (a sentence-initial non-finite adjunct: John is nearer to "he" by
tree path than Bill, so only the adjunct rule sends "he" to Bill).

``gold_spans.jsonl`` holds three documents of gold spans for the mapping
onto the parse: one sentence whose tree is 302 edges deep (100 nested "X said
that ..." clauses) with spans on subjects at many depths, on verb phrases
and clauses that no NP covers, on "that" leaves and across two levels;
``(NP (PRP it))``, ``(NP (NP (PRP it)))``, ``(NP (NP (PRP$ its) (NN
end)))`` and ``(NP (PRP (NP (PRP They))))`` same-span chains; and spans on
unary chains (``(S (VP (VB Go)))``, ``(NP (NP (NP (NN dog))))``, ``(NP (S
(VP (VBG running))))``) and spans only a clause covers.

``surrogate.jsonl`` is written by hand for documents that cannot be
written out: good documents a and b around s (a lone ``"\\ud800"`` escape in
a token), t (one in the id) and r (an id holding a tab). Each of the three
is reported and skipped, so its digests pin the failing-document path
between two documents that run.
"""

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from helpers import GOLDEN, cli_digests  # noqa: E402

if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        table = cli_digests(Path(tmp))
    (GOLDEN / "digests.json").write_text(json.dumps(table, indent=1, sort_keys=True) + "\n",
                                         encoding="utf-8")
    print(f"wrote {len(table)} digests to {GOLDEN / 'digests.json'}")
