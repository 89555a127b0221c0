"""Vector-space model against a dense brute-force reimplementation."""

import math
import random
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import sparse

from termbridge.similarity import (
    Corpus,
    ScoredPair,
    best_pairs,
    best_per_concept,
    build_corpus,
    filter_pairs,
    fit,
    join_rows,
    score_concept_pairs,
)
from termbridge.pipeline import live_classes

from reference_cosine import cosine_winners, kept_pairs, row_owners, winner_dict
from test_align import concept, klass
from termbridge.core import CodeRef, curie_ontology


class Pair(NamedTuple):
    """One scored (concept, class) pair, as the reference cut ranks them."""

    concept_id: int
    curie: str
    score: float


def doc(owner, text, tokens=None):
    """One document: a concept's (int owner) or a class's (CURIE owner) string."""
    tokens = tuple(text.split()) if tokens is None else tuple(tokens)
    return (owner, tokens)


def corpus_of(docs):
    """A ``Corpus`` of (owner, tokens) documents, laid out as ``build_corpus``
    lays out its own: concept rows by id, then class rows by CURIE, each
    owner's rows in the order given."""
    concept_docs = sorted((d for d in docs if isinstance(d[0], int)), key=lambda d: d[0])
    class_docs = sorted((d for d in docs if isinstance(d[0], str)), key=lambda d: d[0])
    concept_ids = sorted({owner for owner, _ in concept_docs})
    curies = sorted({owner for owner, _ in class_docs})
    ordered = concept_docs + class_docs
    ids = {}
    token_ids = [ids.setdefault(t, len(ids)) for _, tokens in ordered for t in tokens]
    return Corpus(
        tokens=tuple(ids),
        token_ids=np.array(token_ids, dtype=np.int32),
        lengths=np.array([len(tokens) for _, tokens in ordered], dtype=np.int64),
        concept_ids=np.array(concept_ids, dtype=np.int64),
        curies=tuple(curies),
        concept_owner=np.array([concept_ids.index(o) for o, _ in concept_docs], dtype=np.int32),
        class_owner=np.array([curies.index(o) for o, _ in class_docs], dtype=np.int32),
    )


def documents(corpus):
    """A ``Corpus``'s (owner, tokens) documents, in corpus order."""
    ends = np.cumsum(corpus.lengths).tolist()
    starts = [end - n for end, n in zip(ends, corpus.lengths.tolist())]
    owners = [int(corpus.concept_ids[i]) for i in corpus.concept_owner.tolist()]
    owners += [corpus.curies[i] for i in corpus.class_owner.tolist()]
    return [
        (owner, tuple(corpus.tokens[t] for t in corpus.token_ids[a:b].tolist()))
        for owner, a, b in zip(owners, starts, ends)
    ]


def best_pairs_of(pairs, score_floor=0.0, chunk_concepts=1):
    """``best_pairs`` over ``pairs`` (``Pair`` tuples, one per (concept,
    CURIE)), fed to it in chunks of ``chunk_concepts`` concepts."""
    concept_ids = sorted({p.concept_id for p in pairs})
    curies = sorted({p.curie for p in pairs})
    ontologies = sorted({curie_ontology(c) for c in curies})
    class_ontology = np.array([ontologies.index(curie_ontology(c)) for c in curies], dtype=np.int32)
    rows = sorted((concept_ids.index(p.concept_id), curies.index(p.curie), p.score) for p in pairs)
    chunks = []
    for first in range(0, len(concept_ids), chunk_concepts):
        part = [row for row in rows if first <= row[0] < first + chunk_concepts]
        concept, cls, score = zip(*part)
        chunks.append(
            (np.array(concept, dtype=np.int32), np.array(cls, dtype=np.int32), np.array(score))
        )
    return best_pairs(
        chunks, np.array(concept_ids, dtype=np.int64), tuple(curies), class_ontology,
        tuple(ontologies), score_floor,
    )


def winners_of(best):
    """``best_per_concept``'s result in ``cosine_winners``' form."""
    return {key: (p.curie, p.score) for key, p in winner_dict(best).items()}


def fused_cut(pairs, score_floor, keep_fraction, chunk_concepts=1):
    """The reference cut's kept table (``Pair`` tuples, in rank order),
    after checking the fused ``filter_pairs`` against it: it stands for as
    many pairs, and its winners are the kept pairs' argmax."""
    scores = {(p.concept_id, p.curie): p.score for p in pairs}
    kept = [Pair(*row) for row in kept_pairs(scores, score_floor, keep_fraction)]
    filtered = filter_pairs(best_pairs_of(pairs, chunk_concepts=chunk_concepts), score_floor, keep_fraction)
    assert len(filtered) == len(kept)
    kept_scores = {(p.concept_id, p.curie): p.score for p in kept}
    assert winners_of(best_per_concept(filtered)) == cosine_winners(kept_scores, 0.0, 1.0)
    return kept


def pair_scores(model, routing=None):
    """{(concept_id, curie): clamped best score} for every routed pair of
    owners sharing a token, from ``join_rows``' string pairs."""
    owners = row_owners(model)
    n_left = len(model.concept_owner)
    scores = {}
    for left, right, dot in join_rows(model.matrix, model.concept_owner, 1 << 15):
        for a, b, score in zip(left.tolist(), right.tolist(), dot.tolist()):
            key = (owners[a], owners[n_left + b])
            if routing is None or curie_ontology(key[1]) in routing[key[0]]:
                scores[key] = min(max(scores.get(key, 0.0), score), 1.0)
    return scores


def scored_like(model, scores, routing=None):
    """Check that ``score_concept_pairs`` counts the pairs of ``scores``
    and that its winners are their argmax; return ``scores``."""
    scored = score_concept_pairs(model, None if routing is None else routing.__getitem__)
    assert len(scored) == len(scores)
    assert winners_of(best_per_concept(scored)) == cosine_winners(scores, 0.0, 1.0)
    return scores


def scipy_matrix(model):
    """``model.matrix`` as a scipy CSR matrix, for its array API."""
    m = model.matrix
    return sparse.csr_matrix((m.data, m.indices, m.indptr), shape=m.shape)


def score_pair_strings(model, row_a: int, row_b: int) -> float:
    """Cosine of two model rows (exact dot product of normalized rows)."""
    matrix = scipy_matrix(model)
    return float(matrix.getrow(row_a).multiply(matrix.getrow(row_b)).sum())


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
    for i, (owner_i, _) in enumerate(docs):
        if not isinstance(owner_i, int):
            continue
        for j, (owner_j, _) in enumerate(docs):
            if not isinstance(owner_j, str):
                continue
            score = float(np.dot(rows[i], rows[j]))
            key = (owner_i, owner_j)
            if score > best.get(key, -1.0):
                best[key] = score
    return best


# --- fit ---------------------------------------------------------------------


class TestFit:
    def test_single_document_equal_weights(self):
        model = fit(corpus_of([doc(1, "throat pain")]))
        row = scipy_matrix(model).toarray()[0]
        assert row == pytest.approx([1 / math.sqrt(2), 1 / math.sqrt(2)])

    def test_identical_documents_identical_rows(self):
        model = fit(corpus_of([doc(1, "a b c"), doc(2, "a b c")]))
        dense = scipy_matrix(model).toarray()
        assert np.array_equal(dense[0], dense[1])

    def test_three_document_hand_oracle(self):
        model = fit(
            corpus_of(
                [
                    doc(1, "a b"),
                    doc(2, "a c"),
                    doc(3, "a"),
                ]
            )
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
        assert np.abs(scipy_matrix(model).toarray() - expected).max() < 1e-12

    def test_empty_corpus(self):
        # map fits only when a concept is loaded, and each concept brings its
        # label's row; an empty corpus fits an empty model.
        model = fit(corpus_of([]))
        assert model.vocabulary == {} and model.matrix.nnz == 0

    def test_zero_token_document_is_zero_row(self):
        model = fit(corpus_of([doc(1, "", tokens=()), doc(2, "a")]))
        dense = scipy_matrix(model).toarray()
        assert np.all(dense[0] == 0)

    def test_row_norms(self):
        rng = random.Random(11)
        docs = [
            doc(i, "", tokens=[f"t{rng.randint(0, 30)}" for _ in range(rng.randint(1, 6))])
            for i in range(150)
        ]
        model = fit(corpus_of(docs))
        matrix = scipy_matrix(model)
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
        assert np.all(np.abs(norms - 1.0) < 1e-9)


# --- scoring -----------------------------------------------------------------


def _two_sided_docs():
    return [
        doc(1, "sore throat symptom"),
        doc(2, "apple banana"),
        doc("HP:0000001", "throat pain"),
        doc("HP:0000002", "sore throat symptom"),
        doc("MONDO:0000003", "cherry"),
    ]


class TestScoreConceptPairs:
    def test_identical_strings_score_one(self):
        docs = _two_sided_docs()
        model = fit(corpus_of(docs))
        pairs = scored_like(model, pair_scores(model))
        assert pairs[(1, "HP:0000002")] == pytest.approx(1.0, abs=1e-12)

    def test_token_disjoint_pairs_absent(self):
        docs = _two_sided_docs()
        model = fit(corpus_of(docs))
        keys = set(scored_like(model, pair_scores(model)))
        assert (2, "HP:0000001") not in keys  # no shared token -> cosine 0
        assert (1, "MONDO:0000003") not in keys

    def test_cosine_zero_for_disjoint_rows(self):
        docs = _two_sided_docs()
        model = fit(corpus_of(docs))
        assert score_pair_strings(model, 1, 2) == 0.0

    def test_matches_dense_oracle(self):
        docs = _two_sided_docs()
        model = fit(corpus_of(docs))
        got = scored_like(model, pair_scores(model))
        oracle = dense_best_scores(docs)
        for key, score in got.items():
            assert score == pytest.approx(oracle[key], abs=1e-9)
        for key, score in oracle.items():
            if key not in got:
                assert score == pytest.approx(0.0, abs=1e-12)

    def test_routing_excludes_pairs(self):
        docs = _two_sided_docs()
        routing = {1: frozenset({"MONDO"}), 2: frozenset({"MONDO"})}
        model = fit(corpus_of(docs))
        keys = set(scored_like(model, pair_scores(model, routing), routing))
        assert all(curie.startswith("MONDO") for _, curie in keys)

    def test_scorer_ignores_alignment_results(self):
        """Embeddings exist for every concept: scoring is routing-driven only."""
        docs = _two_sided_docs()
        model = fit(corpus_of(docs))
        full = score_concept_pairs(model)
        again = score_concept_pairs(model)
        assert len(full) == len(again)
        assert winner_dict(best_per_concept(full)) == winner_dict(best_per_concept(again))

    def test_random_corpus_matches_oracle(self):
        rng = random.Random(99)
        docs = []
        for i in range(1, 41):
            docs.append(
                doc(i, "", tokens=[f"t{rng.randint(0, 25)}" for _ in range(rng.randint(1, 5))])
            )
        for i in range(60):
            curie = f"HP:{i:07d}"
            docs.append(
                doc(curie, "", tokens=[f"t{rng.randint(0, 25)}" for _ in range(rng.randint(1, 5))])
            )
        model = fit(corpus_of(docs))
        got = scored_like(model, pair_scores(model))
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
            doc(i, "", tokens=[f"t{rng.randint(0, 12)}" for _ in range(rng.randint(1, 5))])
            for i in range(40)
        ]
        model = fit(corpus_of(docs))
        for _ in range(200):
            i, j = rng.randrange(40), rng.randrange(40)
            assert score_pair_strings(model, i, j) == pytest.approx(
                score_pair_strings(model, j, i), abs=1e-12
            )


# --- the join ----------------------------------------------------------------


@st.composite
def join_inputs(draw):
    """Dense rows over a 3-8 token vocabulary, some with no tokens, and a
    product budget.  Half the time the budget ends the first chunk inside
    a concept with several strings."""
    vocab = [f"t{i}" for i in range(draw(st.integers(3, 8)))]
    row = st.lists(st.sampled_from(vocab), max_size=8)
    concepts = draw(st.lists(st.lists(row, min_size=1, max_size=4), min_size=1, max_size=10))
    classes = draw(st.lists(row, min_size=1, max_size=25))
    budget = draw(st.one_of(st.integers(1, 12), st.integers(13, 4096)))
    several = [i for i, strings in enumerate(concepts) if len(strings) > 1]
    if several and draw(st.booleans()):
        # Products of a row: the class rows holding each of its tokens.
        holders = {t: sum(t in tokens for tokens in classes) for t in vocab}
        products = [sum(holders[t] for t in set(tokens)) for strings in concepts for tokens in strings]
        edge = draw(st.sampled_from(several))
        first_row = sum(len(strings) for strings in concepts[:edge])
        budget = max(1, sum(products[: first_row + 1]))
    return concepts, classes, budget


def checked_join(concepts, classes, budget):
    """The join's chunks over fitted rows, and each clinical row's owner,
    after checking the chunks against scipy's product bit for bit."""
    docs = [doc(i, "", tokens) for i, strings in enumerate(concepts) for tokens in strings]
    docs += [doc(f"HP:{k:07d}", "", tokens) for k, tokens in enumerate(classes)]
    model = fit(corpus_of(docs))
    left_owner = model.concept_owner
    left_rows = np.arange(len(left_owner), dtype=np.int64)
    right_rows = np.arange(len(left_owner), len(docs), dtype=np.int64)
    chunks = list(join_rows(model.matrix, left_owner, budget))

    matrix = scipy_matrix(model)
    product = (matrix[left_rows] @ matrix[right_rows].T.tocsc()).tocsr()
    product.sort_indices()
    coo = product.tocoo()
    nonzero = coo.data != 0.0
    left, right, dot = (np.concatenate(c) for c in zip(*chunks))
    assert left.tolist() == coo.row[nonzero].tolist()
    assert right.tolist() == coo.col[nonzero].tolist()
    assert dot.dtype == np.float64
    assert dot.tobytes() == coo.data[nonzero].tobytes()
    return chunks, left_owner


class TestNumpyJoin:
    @settings(
        derandomize=True,
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(join_inputs())
    def test_matches_scipy_product_bit_for_bit(self, inputs):
        chunks, left_owner = checked_join(*inputs)
        owners = [set(left_owner[left].tolist()) for left, _, _ in chunks]
        assert all(a.isdisjoint(b) for i, a in enumerate(owners) for b in owners[i + 1:])

    def test_concept_on_chunk_edge_stays_whole(self):
        concepts = [[["a", "b"]], [["a"], ["b", "c"], ["a", "c"]], [["c"]]]
        classes = [["a"], ["b"], ["c"], ["a", "b", "c"]]
        # Rows 0 and 1 have 4 and 2 products: a budget of 6 ends the first
        # chunk after row 1, inside concept 1, so the chunk takes all of it.
        chunks, _ = checked_join(concepts, classes, 6)
        assert [sorted(set(left.tolist())) for left, _, _ in chunks] == [[0, 1, 2, 3], [4]]


# --- filtering and argmax ----------------------------------------------------


def _won(pair):
    """The ``ScoredPair`` that ``Winners.for_concept`` gives for ``pair``."""
    return ScoredPair(pair.curie, pair.score)


class TestFilterPairs:
    def test_worked_example(self):
        pairs = [Pair(1, "HP:1", 0.9), Pair(2, "HP:2", 0.5), Pair(3, "HP:3", 0.3), Pair(4, "HP:4", 0.2)]
        kept = fused_cut(pairs, 0.25, 0.75)
        assert [p.score for p in kept] == [0.9, 0.5, 0.3]

    def test_all_below_floor(self):
        pairs = [Pair(1, "HP:1", 0.1), Pair(2, "HP:2", 0.2)]
        assert fused_cut(pairs, 0.25, 0.75) == []

    def test_keep_fraction_one_is_identity_on_survivors(self):
        pairs = [Pair(1, "HP:1", 0.9), Pair(2, "HP:2", 0.1), Pair(3, "HP:3", 0.5)]
        kept = fused_cut(pairs, 0.25, 1.0)
        assert [p.score for p in kept] == [0.9, 0.5]

    def test_size_formula_randomized(self):
        rng = random.Random(12)
        cuts = [(0.25, 0.75), (0.1, 0.5), (0.0, 1.0)]
        for trial in range(1000):
            score_floor, keep_fraction = cuts[trial % len(cuts)]
            pairs = [
                Pair(i, f"HP:{i:07d}", round(rng.random(), 6)) for i in range(rng.randint(0, 50))
            ]
            kept = fused_cut(pairs, score_floor, keep_fraction, chunk_concepts=trial % 4 + 1)
            survivors = [p for p in pairs if p.score >= score_floor]
            assert len(kept) == math.ceil(keep_fraction * len(survivors))
            assert set(kept) <= set(pairs)
            assert all(kept[i].score >= kept[i + 1].score for i in range(len(kept) - 1))

    def test_cut_is_per_ontology(self):
        pairs = [
            Pair(1, "HP:1", 0.9), Pair(2, "HP:2", 0.8), Pair(3, "HP:3", 0.7), Pair(4, "HP:4", 0.6),
            Pair(1, "MONDO:1", 0.3),
        ]
        kept = fused_cut(pairs, 0.25, 0.75)
        assert [(p.curie, p.score) for p in kept] == [
            ("HP:1", 0.9), ("HP:2", 0.8), ("HP:3", 0.7), ("MONDO:1", 0.3)
        ]


class TestBestPerConcept:
    def test_single_pair(self):
        only = Pair(1, "HP:0000001", 0.7)
        best = best_per_concept(best_pairs_of([only]))
        assert best.for_concept(1) == {"HP": _won(only)} and len(best) == 1

    def test_tie_breaks_to_smallest_curie(self):
        a = Pair(1, "HP:0000002", 0.7)
        b = Pair(1, "HP:0000001", 0.7)
        assert best_per_concept(best_pairs_of([a, b])).for_concept(1) == {"HP": _won(b)}

    def test_separate_ontologies_kept_apart(self):
        a = Pair(1, "HP:0000001", 0.7)
        b = Pair(1, "MONDO:0000001", 0.4)
        best = best_per_concept(best_pairs_of([a, b]))
        assert best.for_concept(1) == {"HP": _won(a), "MONDO": _won(b)}

    def test_matches_argmax_oracle(self):
        rng = random.Random(8)
        pairs = [
            Pair(cid, f"HP:{k:07d}", round(rng.random(), 6))
            for cid in range(1, 6)
            for k in range(4)
        ]
        best = best_per_concept(best_pairs_of(pairs))
        for cid in range(1, 6):
            mine = best.for_concept(cid)["HP"]
            group = [p for p in pairs if p.concept_id == cid]
            top = max(p.score for p in group)
            expected = min(p.curie for p in group if p.score == top)
            assert mine.score == top and mine.curie == expected


@st.composite
def cut_inputs(draw):
    """Scores of 1-2 decimals over 1-3 ontologies, so ties at each
    ontology's threshold are common, with the pairs split over chunks of
    1-3 concepts and a filter floor at or above the scoring floor."""
    ontologies = draw(st.lists(st.sampled_from(("HP", "MONDO", "UBERON")), min_size=1, max_size=3, unique=True))
    curies = [f"{o}:{k:07d}" for o in ontologies for k in range(draw(st.integers(1, 4)))]
    concept_ids = sorted(draw(st.sets(st.integers(1, 60), min_size=1, max_size=10)))
    scale = 10 ** draw(st.integers(1, 2))
    scores = draw(
        st.dictionaries(
            st.tuples(st.sampled_from(concept_ids), st.sampled_from(curies)),
            st.integers(1, scale).map(lambda n: n / scale),
            max_size=60,
        )
    )
    score_floor = draw(st.sampled_from([0.0, 0.1, 0.25, 0.5]))
    filter_floor = draw(st.sampled_from([f for f in (0.0, 0.1, 0.25, 0.5, 0.7) if f >= score_floor]))
    keep_fraction = draw(st.sampled_from([0.1, 0.25, 0.3, 0.5, 0.75, 1.0]))
    return scores, score_floor, (filter_floor, keep_fraction), draw(st.integers(1, 3))


class TestFusedCut:
    @settings(
        derandomize=True,
        max_examples=400,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(cut_inputs())
    def test_matches_reference(self, inputs):
        scores, score_floor, (filter_floor, keep_fraction), chunk_concepts = inputs
        pairs = [Pair(cid, curie, score) for (cid, curie), score in scores.items()]
        scored = best_pairs_of(pairs, score_floor, chunk_concepts)
        assert len(scored) == len(scores)
        filtered = filter_pairs(scored, filter_floor, keep_fraction)
        assert len(filtered) == len(kept_pairs(scores, filter_floor, keep_fraction))
        best = best_per_concept(filtered)
        winners = cosine_winners(scores, filter_floor, keep_fraction)
        assert winners_of(best) == winners
        assert len(best) == len(winners)

    def test_filter_floor_under_scoring_floor(self):
        scored = best_pairs_of([Pair(1, "HP:1", 0.3)], score_floor=0.25)
        with pytest.raises(ValueError):
            filter_pairs(scored, 0.1, 0.75)


class TestCorpusAndDump:
    def test_build_corpus_covers_both_sides(self):
        c = concept(1, CodeRef("SNOMED", "1"), "Sore Throat", synonyms=["Pharyngitis pain"])
        k = klass("HP:0000001", "Throat pain")
        docs = documents(build_corpus([c], [k], frozenset()))
        assert [owner for owner, _ in docs] == [1, 1, "HP:0000001"]
        # the label's row comes before the synonym's
        assert [tokens for _, tokens in docs] == [
            ("sore", "throat"),
            ("pharyngitis", "pain"),
            ("throat", "pain"),
        ]

    def test_deprecated_classes_skipped(self):
        k = klass("HP:0000001", "Throat pain", deprecated=True)
        corpus = build_corpus([], live_classes([k]), frozenset())
        assert len(corpus) == 0 and documents(corpus) == []
