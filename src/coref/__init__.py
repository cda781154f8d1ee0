"""Deterministic rule-based noun phrase coreference over constituency parses.

The pipeline reads Penn Treebank bracketed parses, finds mentions (largest NP
per head word), resolves each mention to an antecedent through syntactic and
semantic constraint rules plus tree path distance, clusters decisions by
transitive closure, and scores output against gold clusterings with pairwise
F1 and B-cubed.
"""

from .cluster import Clustering, transitive_closure
from .lexicon import (Gender, GrammaticalPerson, Lexicon, LexiconError,
                      Number, Personhood, PronounEntry, default_lexicon,
                      load_lexicon, pronoun_lookup)
from .mention import (Mention, MentionKind, TokenAnnotation, TypeProfile,
                      annotation_index, attach_profiles, build_profile,
                      extract_mentions, map_gold_mentions)
from .pipeline import (DocumentError, DocumentInput, PipelineResult,
                       gold_clustering, run_pipeline)
from .report import TraceReport, render_brackets, score_corpus, trace_report
from .resolve import (Decision, MentionIndex, ResolveConfig, Rule,
                      candidate_pool, detect_appositive, detect_pred_nom,
                      detect_role_appositive, filter_nominal, filter_pronoun,
                      initial_adjuncts, reflexive_subject, resolve_document,
                      select_antecedent, type_compatible)
from .score import (PairCounts, Score, b_cubed_doc, b_cubed_macro,
                    pairwise_counts, pairwise_micro)
from .treebank import (DOCLINK, DocumentTree, PtbParseError, SyntaxNode,
                       collins_head_child, dominates, head_leaf, link_document,
                       path_distance, read_ptb, to_ptb)

__version__ = "0.1.0"
