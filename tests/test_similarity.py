"""Vector-space model against a dense brute-force reimplementation."""

import math
import random

import numpy as np
import pytest

from termbridge.errors import DataError
from termbridge.similarity import (
    PairTable,
    RowMeta,
    ScoredPair,
    Side,
    SimilarityConfig,
    best_per_concept,
    build_corpus,
    filter_pairs,
    fit,
    score_concept_pairs,
)
from termbridge.lexical import TokenizerConfig

from test_align import concept, klass
from termbridge.core import CodeRef, curie_ontology


def doc(owner, side, text, tokens=None):
    tokens = tuple(text.split()) if tokens is None else tuple(tokens)
    return (RowMeta(owner, side), tokens)


def pair_table(pairs):
    """A PairTable holding ``pairs`` (ScoredPair objects) in the given order."""
    concept_ids = sorted({p.concept_id for p in pairs})
    curies = sorted({p.curie for p in pairs})
    ontologies = sorted({curie_ontology(c) for c in curies})
    return PairTable(
        concept_ids=np.array(concept_ids, dtype=np.int64),
        curies=tuple(curies),
        class_ontology=np.array([ontologies.index(curie_ontology(c)) for c in curies], dtype=np.int64),
        ontologies=tuple(ontologies),
        concept=np.array([concept_ids.index(p.concept_id) for p in pairs], dtype=np.int64),
        cls=np.array([curies.index(p.curie) for p in pairs], dtype=np.int64),
        score=np.array([p.score for p in pairs], dtype=np.float64),
    )


def table_pairs(table):
    """The rows of a PairTable as ScoredPair objects, in table order."""
    return [
        ScoredPair(int(table.concept_ids[c]), table.curies[k], float(s))
        for c, k, s in zip(table.concept.tolist(), table.cls.tolist(), table.score.tolist())
    ]


def score_pair_strings(model, row_a: int, row_b: int) -> float:
    """Cosine of two model rows (exact dot product of normalized rows)."""
    return float(model.matrix.getrow(row_a).multiply(model.matrix.getrow(row_b)).sum())


# --- dense oracle ------------------------------------------------------------


def dense_model(token_docs):
    """Plain-python/numpy TF-IDF with the same pinned formula."""
    n = len(token_docs)
    vocab = sorted({t for tokens in token_docs for t in tokens})
    index = {t: i for i, t in enumerate(vocab)}
    df = {t: sum(1 for tokens in token_docs if t in set(tokens)) for t in vocab}
    rows = np.zeros((n, len(vocab)))
    for i, tokens in enumerate(token_docs):
        for t in tokens:
            rows[i, index[t]] += 1.0
        for t in set(tokens):
            rows[i, index[t]] *= math.log((1 + n) / (1 + df[t])) + 1.0
        norm = np.linalg.norm(rows[i])
        if norm > 0:
            rows[i] /= norm
    return rows


def dense_best_scores(docs):
    """Max cosine per (clinical owner, ontology owner) over all row pairs."""
    rows = dense_model([tokens for _, tokens in docs])
    best = {}
    for i, (meta_i, _) in enumerate(docs):
        if meta_i.side is not Side.CLINICAL:
            continue
        for j, (meta_j, _) in enumerate(docs):
            if meta_j.side is not Side.ONTOLOGY:
                continue
            score = float(np.dot(rows[i], rows[j]))
            key = (meta_i.owner, meta_j.owner)
            if score > best.get(key, -1.0):
                best[key] = score
    return best


# --- fit ---------------------------------------------------------------------


class TestFit:
    def test_single_document_equal_weights(self):
        model = fit([doc(1, Side.CLINICAL, "throat pain")])
        row = model.matrix.toarray()[0]
        assert row == pytest.approx([1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_identical_documents_identical_rows(self):
        model = fit([doc(1, Side.CLINICAL, "a b c"), doc(2, Side.CLINICAL, "a b c")])
        dense = model.matrix.toarray()
        assert np.array_equal(dense[0], dense[1])

    def test_three_document_hand_oracle(self):
        model = fit(
            [
                doc(1, Side.CLINICAL, "a b"),
                doc(2, Side.CLINICAL, "a c"),
                doc(3, Side.CLINICAL, "a"),
            ]
        )
        # N=3; df(a)=3 -> idf 1; df(b)=df(c)=1 -> idf ln(2)+1
        k = math.log(2.0) + 1.0
        h = math.hypot(1.0, k)
        expected = np.array(
            [
                [1.0 / h, k / h, 0.0],
                [1.0 / h, 0.0, k / h],
                [1.0, 0.0, 0.0],
            ]
        )
        assert model.vocabulary == {"a": 0, "b": 1, "c": 2}
        assert np.abs(model.matrix.toarray() - expected).max() < 1e-12

    def test_empty_corpus(self):
        with pytest.raises(DataError) as err:
            fit([])
        assert err.value.code == "EMPTY_CORPUS"

    def test_zero_token_document_is_zero_row(self):
        model = fit([doc(1, Side.CLINICAL, "", tokens=()), doc(2, Side.CLINICAL, "a")])
        dense = model.matrix.toarray()
        assert np.all(dense[0] == 0)

    def test_row_norms(self):
        rng = random.Random(11)
        docs = [
            doc(i, Side.CLINICAL, "", tokens=[f"t{rng.randint(0, 30)}" for _ in range(rng.randint(1, 6))])
            for i in range(150)
        ]
        model = fit(docs)
        norms = np.sqrt(np.asarray(model.matrix.multiply(model.matrix).sum(axis=1)).ravel())
        assert np.all(np.abs(norms - 1.0) < 1e-9)


# --- scoring -----------------------------------------------------------------


def _two_sided_docs():
    return [
        doc(1, Side.CLINICAL, "sore throat symptom"),
        doc(2, Side.CLINICAL, "apple banana"),
        doc("HP:0000001", Side.ONTOLOGY, "throat pain"),
        doc("HP:0000002", Side.ONTOLOGY, "sore throat symptom"),
        doc("MONDO:0000003", Side.ONTOLOGY, "cherry"),
    ]


def _owners(docs):
    concepts = [concept(m.owner, CodeRef("SNOMED", str(m.owner)), "x")
                for m, _ in docs if m.side is Side.CLINICAL]
    classes = [klass(m.owner, "x") for m, _ in docs if m.side is Side.ONTOLOGY]
    return concepts, classes


class TestScoreConceptPairs:
    def test_identical_strings_score_one(self):
        docs = _two_sided_docs()
        concepts, classes = _owners(docs)
        table = score_concept_pairs(fit(docs), concepts, classes)
        pairs = {(p.concept_id, p.curie): p for p in table_pairs(table)}
        assert pairs[(1, "HP:0000002")].score == pytest.approx(1.0, abs=1e-12)

    def test_token_disjoint_pairs_absent(self):
        docs = _two_sided_docs()
        concepts, classes = _owners(docs)
        table = score_concept_pairs(fit(docs), concepts, classes)
        keys = {(p.concept_id, p.curie) for p in table_pairs(table)}
        assert (2, "HP:0000001") not in keys  # no shared token -> cosine 0
        assert (1, "MONDO:0000003") not in keys

    def test_cosine_zero_for_disjoint_rows(self):
        docs = _two_sided_docs()
        model = fit(docs)
        assert score_pair_strings(model, 1, 2) == 0.0

    def test_matches_dense_oracle(self):
        docs = _two_sided_docs()
        concepts, classes = _owners(docs)
        table = score_concept_pairs(fit(docs), concepts, classes)
        got = {(p.concept_id, p.curie): p.score for p in table_pairs(table)}
        oracle = dense_best_scores(docs)
        for key, score in got.items():
            assert score == pytest.approx(oracle[key], abs=1e-9)
        for key, score in oracle.items():
            if key not in got:
                assert score == pytest.approx(0.0, abs=1e-12)

    def test_routing_excludes_pairs(self):
        docs = _two_sided_docs()
        concepts, classes = _owners(docs)
        routing = {1: frozenset({"MONDO"}), 2: frozenset({"MONDO"})}
        keys = {
            (p.concept_id, p.curie)
            for p in table_pairs(score_concept_pairs(fit(docs), concepts, classes, routing))
        }
        assert all(curie.startswith("MONDO") for _, curie in keys)

    def test_scorer_ignores_alignment_results(self):
        """Embeddings exist for every concept: scoring is routing-driven only."""
        docs = _two_sided_docs()
        concepts, classes = _owners(docs)
        model = fit(docs)
        full = table_pairs(score_concept_pairs(model, concepts, classes))
        again = table_pairs(score_concept_pairs(model, concepts, classes))
        assert full == again

    def test_random_corpus_matches_oracle(self):
        rng = random.Random(99)
        docs = []
        for i in range(1, 41):
            docs.append(
                doc(i, Side.CLINICAL, "", tokens=[f"t{rng.randint(0, 25)}" for _ in range(rng.randint(1, 5))])
            )
        for i in range(60):
            curie = f"HP:{i:07d}"
            docs.append(
                doc(curie, Side.ONTOLOGY, "", tokens=[f"t{rng.randint(0, 25)}" for _ in range(rng.randint(1, 5))])
            )
        concepts, classes = _owners(docs)
        table = score_concept_pairs(fit(docs), concepts, classes)
        got = {(p.concept_id, p.curie): p.score for p in table_pairs(table)}
        oracle = dense_best_scores(docs)
        for key, score in oracle.items():
            if score > 0:
                assert got[key] == pytest.approx(score, abs=1e-9)
            else:
                assert key not in got


class TestCosineSymmetry:
    def test_symmetry_on_random_rows(self):
        rng = random.Random(4)
        docs = [
            doc(i, Side.CLINICAL, "", tokens=[f"t{rng.randint(0, 12)}" for _ in range(rng.randint(1, 5))])
            for i in range(40)
        ]
        model = fit(docs)
        for _ in range(200):
            i, j = rng.randrange(40), rng.randrange(40)
            assert score_pair_strings(model, i, j) == pytest.approx(
                score_pair_strings(model, j, i), abs=1e-12
            )


# --- filtering and argmax ----------------------------------------------------


def _pair(cid, curie, score):
    return ScoredPair(cid, curie, score)


class TestFilterPairs:
    def test_worked_example(self):
        pairs = [_pair(1, "HP:1", 0.9), _pair(2, "HP:2", 0.5), _pair(3, "HP:3", 0.3), _pair(4, "HP:4", 0.2)]
        kept = table_pairs(filter_pairs(pair_table(pairs), SimilarityConfig(0.25, 0.75)))
        assert [p.score for p in kept] == [0.9, 0.5, 0.3]

    def test_all_below_floor(self):
        pairs = [_pair(1, "HP:1", 0.1), _pair(2, "HP:2", 0.2)]
        assert table_pairs(filter_pairs(pair_table(pairs), SimilarityConfig(0.25, 0.75))) == []

    def test_keep_fraction_one_is_identity_on_survivors(self):
        pairs = [_pair(1, "HP:1", 0.9), _pair(2, "HP:2", 0.1), _pair(3, "HP:3", 0.5)]
        kept = table_pairs(filter_pairs(pair_table(pairs), SimilarityConfig(0.25, 1.0)))
        assert [p.score for p in kept] == [0.9, 0.5]

    def test_size_formula_randomized(self):
        rng = random.Random(12)
        cfgs = [SimilarityConfig(0.25, 0.75), SimilarityConfig(0.1, 0.5), SimilarityConfig(0.0, 1.0)]
        for trial in range(1000):
            cfg = cfgs[trial % len(cfgs)]
            pairs = [
                _pair(i, f"HP:{i:07d}", round(rng.random(), 6)) for i in range(rng.randint(0, 50))
            ]
            kept = table_pairs(filter_pairs(pair_table(pairs), cfg))
            survivors = [p for p in pairs if p.score >= cfg.score_floor]
            assert len(kept) == math.ceil(cfg.keep_fraction * len(survivors))
            assert set(kept) <= set(pairs)
            assert all(kept[i].score >= kept[i + 1].score for i in range(len(kept) - 1))

    def test_cut_is_per_ontology(self):
        pairs = [
            _pair(1, "HP:1", 0.9), _pair(2, "HP:2", 0.8), _pair(3, "HP:3", 0.7), _pair(4, "HP:4", 0.6),
            _pair(1, "MONDO:1", 0.3),
        ]
        kept = table_pairs(filter_pairs(pair_table(pairs), SimilarityConfig(0.25, 0.75)))
        assert [(p.curie, p.score) for p in kept] == [
            ("HP:1", 0.9), ("HP:2", 0.8), ("HP:3", 0.7), ("MONDO:1", 0.3)
        ]

    def test_bad_config(self):
        with pytest.raises(ValueError):
            SimilarityConfig(score_floor=1.5)
        with pytest.raises(ValueError):
            SimilarityConfig(keep_fraction=0.0)


class TestBestPerConcept:
    def test_single_pair(self):
        only = _pair(1, "HP:0000001", 0.7)
        assert best_per_concept(pair_table([only])) == {(1, "HP"): only}

    def test_tie_breaks_to_smallest_curie(self):
        a = _pair(1, "HP:0000002", 0.7)
        b = _pair(1, "HP:0000001", 0.7)
        assert best_per_concept(pair_table([a, b]))[(1, "HP")] == b

    def test_separate_ontologies_kept_apart(self):
        a = _pair(1, "HP:0000001", 0.7)
        b = _pair(1, "MONDO:0000001", 0.4)
        best = best_per_concept(pair_table([a, b]))
        assert best[(1, "HP")] == a and best[(1, "MONDO")] == b

    def test_matches_argmax_oracle(self):
        rng = random.Random(8)
        pairs = [
            _pair(cid, f"HP:{k:07d}", round(rng.random(), 6))
            for cid in range(1, 6)
            for k in range(4)
        ]
        best = best_per_concept(pair_table(pairs))
        for cid in range(1, 6):
            mine = best[(cid, "HP")]
            group = [p for p in pairs if p.concept_id == cid]
            top = max(p.score for p in group)
            expected = min(p.curie for p in group if p.score == top)
            assert mine.score == top and mine.curie == expected


class TestCorpusAndDump:
    def test_build_corpus_covers_both_sides(self):
        c = concept(1, CodeRef("SNOMED", "1"), "Sore Throat", synonyms=["Pharyngitis pain"])
        k = klass("HP:0000001", "Throat pain")
        docs = build_corpus([c], [k], TokenizerConfig())
        assert [(m.owner, m.side) for m, _ in docs] == [
            (1, Side.CLINICAL),
            (1, Side.CLINICAL),
            ("HP:0000001", Side.ONTOLOGY),
        ]
        # the label's row comes before the synonym's
        assert [tokens for _, tokens in docs] == [
            ("sore", "throat"),
            ("pharyngitis", "pain"),
            ("throat", "pain"),
        ]

    def test_deprecated_classes_skipped(self):
        k = klass("HP:0000001", "Throat pain", deprecated=True)
        assert build_corpus([], [k], TokenizerConfig()) == []
