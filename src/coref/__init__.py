"""Deterministic rule-based noun phrase coreference over constituency parses.

The pipeline reads Penn Treebank bracketed parses, finds mentions (largest NP
per head word), resolves each mention to an antecedent through syntactic and
semantic constraint rules plus tree path distance, groups the decisions into
entities (each antecedent is an earlier mention), and scores output against
gold clusterings with pairwise F1 and B-cubed.
"""

from .cluster import Clustering, transitive_closure
from .lexicon import (Gender, GrammaticalPerson, Lexicon, LexiconError,
                      Number, Personhood, PronounEntry, default_lexicon,
                      load_lexicon)
from .mention import (Mention, MentionKind, TokenAnnotation, TypeProfile,
                      annotation_index, attach_profiles, extract_mentions,
                      map_gold_mentions)
from .pipeline import (DocumentError, DocumentInput, PipelineResult,
                       gold_clustering, run_pipeline)
from .report import TraceReport, render_brackets, score_corpus, trace_report
from .resolve import Decision, ResolveConfig, Rule, resolve_document
from .score import (PairCounts, Score, b_cubed_doc, b_cubed_macro,
                    pairwise_counts, pairwise_micro)
from .treebank import (DocumentTree, PtbParseError, SyntaxNode, link_document,
                       path_distance, read_document, read_ptb)

__all__ = [
    "Clustering", "transitive_closure",
    "Gender", "GrammaticalPerson", "Lexicon", "LexiconError", "Number",
    "Personhood", "PronounEntry", "default_lexicon", "load_lexicon",
    "Mention", "MentionKind", "TokenAnnotation", "TypeProfile",
    "annotation_index", "attach_profiles", "extract_mentions",
    "map_gold_mentions",
    "DocumentError", "DocumentInput", "PipelineResult", "gold_clustering",
    "run_pipeline",
    "TraceReport", "render_brackets", "score_corpus", "trace_report",
    "Decision", "ResolveConfig", "Rule", "resolve_document",
    "PairCounts", "Score", "b_cubed_doc", "b_cubed_macro", "pairwise_counts",
    "pairwise_micro",
    "DocumentTree", "PtbParseError", "SyntaxNode", "link_document",
    "path_distance", "read_document", "read_ptb",
]

__version__ = "0.1.0"
