"""Memory bound on the cosine stages: corpus, fit and scoring.

The stages hold arrays, not one Python object per string or per pair,
and the join's products are chunked.  On the fixed input below the
traced peak above the starting level measured 2.44 MiB (Python 3.11,
numpy 2.4); the bound adds 25% headroom.  Holding the corpus as a list
of (owner, tokens) tuples, the owners as per-row lists and dicts, and
joining in chunks of 2^15 products peaked at 6.61 MiB on the same input.
"""

import tracemalloc

from termbridge.core import Domain
from termbridge.ingest import load_concepts, load_ontology_dump
from termbridge.lexical import Lemmatize, TokenizerConfig
from termbridge.similarity import build_corpus, fit, score_concept_pairs

from test_acceptance import _write_scale_fixture

PEAK_BOUND_MIB = 2.44 * 1.25


def test_cosine_stages_peak_stays_bounded(tmp_path):
    root = _write_scale_fixture(tmp_path, n_concepts=1_000, n_classes=5_000, vocab=3_000)
    concepts = load_concepts(root / "concepts.tsv", Domain.CONDITION).concepts
    classes = load_ontology_dump(root / "ontology.jsonl")
    cfg = TokenizerConfig(lemmatize=Lemmatize.SUFFIX_RULES)

    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        model = fit(build_corpus(concepts.values(), classes.values(), cfg))
        pairs = score_concept_pairs(model, score_floor=0.25)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()

    assert len(pairs) == 52_643
    peak_mib = (peak - start) / 2**20
    assert peak_mib < PEAK_BOUND_MIB, f"cosine stages peaked at {peak_mib:.2f} MiB above the start"
