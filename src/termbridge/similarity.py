"""Bag-of-words TF-IDF vector space model and cosine scoring on arrays.

One matrix row per input string (concept and class labels/synonyms from
both sides).  Weighting is pinned to tf(t,d) = raw count and
idf(t) = ln((1 + N) / (1 + df(t))) + 1 with L2-normalized rows; the
variant (``IDF_VARIANT``) is recorded in summary.json for reproducibility.

The cosine stages keep pairs as parallel numpy arrays, never as one
object per pair:

* scoring multiplies concept rows by class rows with scipy's sparse
  product, so only string pairs sharing at least one token are ever
  evaluated; orthogonal pairs score zero and are never candidates.  Each
  (concept, class) keeps the best score over its string pairs, found by
  a ``lexsort`` on ``concept * n_classes + class``.  Concept rows are
  multiplied in chunks that never split a concept, so each chunk's maxima
  are final.  Routing is a concepts x ontologies boolean mask;
* the result is a ``PairTable`` whose concept and class columns index the
  sorted concept ids and sorted CURIEs, so index order is id order and
  CURIE order;
* the floor, the per-ontology keep-fraction cut and the argmax each take
  one ``lexsort`` ordered on (-score, concept id, CURIE rank), which gives
  the same tie-breaks as sorting objects on those keys.  ``ScoredPair``
  objects are built only for the winners.

Embeddings are built for every concept whether or not exact alignment
already succeeded: the scorer never consults alignment results.

numpy and scipy are imported inside the functions that use them, so the
commands that never score (``coverage``, ``phers``, ``export-sssom``)
do not pay for loading them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import chain

from .core import curie_ontology
from .errors import DataError
from .lexical import TokenizerConfig, normalize_string, tokenize

IDF_VARIANT = "ln((1+N)/(1+df))+1, tf=count, l2"


class Side(Enum):
    CLINICAL = "CLINICAL"
    ONTOLOGY = "ONTOLOGY"


@dataclass(frozen=True)
class RowMeta:
    """Provenance of one document row: who owns the string, on which side."""

    owner: int | str
    side: Side


@dataclass(frozen=True)
class SimilarityConfig:
    score_floor: float = 0.25
    keep_fraction: float = 0.75

    def __post_init__(self):
        if not (0.0 <= self.score_floor <= 1.0):
            raise ValueError(f"score_floor out of range: {self.score_floor}")
        if not (0.0 < self.keep_fraction <= 1.0):
            raise ValueError(f"keep_fraction out of range: {self.keep_fraction}")


@dataclass(frozen=True)
class ScoredPair:
    concept_id: int
    curie: str
    score: float


@dataclass
class SimilarityModel:
    vocabulary: dict[str, int]
    matrix: sparse.csr_matrix
    rows: tuple[RowMeta, ...]


@dataclass(frozen=True, eq=False)
class PairTable:
    """Scored (concept, class) pairs as parallel arrays, one entry per pair.

    ``concept`` indexes ``concept_ids`` and ``cls`` indexes ``curies``;
    both lists are sorted.  ``class_ontology`` gives each class's index
    into the sorted ``ontologies``.
    """

    concept_ids: np.ndarray
    curies: tuple[str, ...]
    class_ontology: np.ndarray
    ontologies: tuple[str, ...]
    concept: np.ndarray
    cls: np.ndarray
    score: np.ndarray

    def __len__(self) -> int:
        return len(self.score)

    def take(self, index) -> "PairTable":
        """The pairs at ``index``, in that order."""
        return replace(
            self, concept=self.concept[index], cls=self.cls[index], score=self.score[index]
        )


class _WordTokens(dict):
    """word -> its tokens, computed on first use."""

    def __init__(self, cfg: TokenizerConfig):
        super().__init__()
        self.cfg = cfg

    def __missing__(self, word: str) -> tuple[str, ...]:
        tokens = self[word] = tuple(tokenize(word, self.cfg))
        return tokens


def build_corpus(concepts, classes, cfg: TokenizerConfig):
    """Tokenized documents for every label and synonym string on both sides.

    Order is deterministic: concepts sorted by id then label-first,
    classes sorted by CURIE likewise.  Tokens are memoized per word: a
    normalized string is single-space separated and no token spans a
    space, so a string's tokens are its words' tokens in order.
    """
    words = _WordTokens(cfg)

    def tokens_of(norm: str) -> tuple[str, ...]:
        return tuple(chain.from_iterable(map(words.__getitem__, norm.split(" "))))

    docs = []
    for concept in sorted(concepts, key=lambda c: c.concept_id):
        meta = RowMeta(concept.concept_id, Side.CLINICAL)
        for text in (concept.label, *concept.synonyms):
            docs.append((meta, tokens_of(normalize_string(text))))
    for cls in sorted(classes, key=lambda k: k.curie):
        if cls.deprecated:
            continue
        meta = RowMeta(cls.curie, Side.ONTOLOGY)
        for text in (cls.label, *(s.text for s in cls.synonyms)):
            docs.append((meta, tokens_of(normalize_string(text))))
    return docs


def fit(docs) -> SimilarityModel:
    """Learn the TF-IDF model over tokenized documents.

    Rows for strings that produced no tokens stay as zero vectors; every
    other row has unit Euclidean norm.
    """
    import numpy as np
    from scipy import sparse

    if not docs:
        raise DataError("EMPTY_CORPUS", "no documents to fit")
    n_docs = len(docs)
    lengths = np.fromiter((len(tokens) for _, tokens in docs), dtype=np.int64, count=n_docs)
    first_seen: dict[str, int] = {}
    token_ids = np.fromiter(
        (first_seen.setdefault(t, len(first_seen)) for _, tokens in docs for t in tokens),
        dtype=np.int64,
        count=int(lengths.sum()),
    )
    vocabulary = {token: i for i, token in enumerate(sorted(first_seen))}
    n_vocab = len(vocabulary)
    column_of = np.fromiter((vocabulary[t] for t in first_seen), dtype=np.int64, count=n_vocab)

    # One cell per (document, column), in row-major order; its count is the tf.
    doc_of = np.repeat(np.arange(n_docs, dtype=np.int64), lengths)
    cells, counts = np.unique(doc_of * n_vocab + column_of[token_ids], return_counts=True)
    cell_doc, indices = np.divmod(cells, n_vocab)
    df = np.bincount(indices, minlength=n_vocab)
    idf = np.array([math.log((1.0 + n_docs) / (1.0 + d)) + 1.0 for d in df.tolist()])
    data = counts * idf[indices]

    indptr = np.zeros(n_docs + 1, dtype=np.int64)
    np.cumsum(np.bincount(cell_doc, minlength=n_docs), out=indptr[1:])
    # Each norm is np.dot over its own row: summing squares any other way
    # (a bincount, say) rounds differently in the last bit for some rows.
    bounds = indptr.tolist()
    norms = np.array(
        [math.sqrt(float(np.dot(row := data[a:b], row))) for a, b in zip(bounds, bounds[1:])]
    )
    data /= np.repeat(norms, np.diff(indptr))

    matrix = sparse.csr_matrix((data, indices, indptr), shape=(n_docs, n_vocab))
    return SimilarityModel(
        vocabulary=vocabulary, matrix=matrix, rows=tuple(meta for meta, _ in docs)
    )


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in ``keys``."""
    import numpy as np

    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


def score_concept_pairs(
    model: SimilarityModel,
    concepts,
    classes,
    routing=None,
    chunk_rows: int = 4096,
) -> PairTable:
    """Best cosine per (concept, class) pair over all their string rows.

    ``routing`` maps concept_id -> allowed ontology keys; pairs outside it
    are skipped.  Only pairs sharing at least one token appear (all other
    scores are exactly zero).  Scores are clamped to 1.0, and the table is
    sorted by (concept_id, curie).
    """
    import numpy as np

    concept_ids = sorted({c.concept_id for c in concepts})
    ontology_of = {k.curie: curie_ontology(k.curie) for k in classes if not k.deprecated}
    curies = sorted(ontology_of)
    ontologies = sorted(set(ontology_of.values()))
    concept_index = {cid: i for i, cid in enumerate(concept_ids)}
    class_index = {curie: i for i, curie in enumerate(curies)}
    ontology_index = {o: i for i, o in enumerate(ontologies)}
    class_ontology = np.array([ontology_index[ontology_of[c]] for c in curies], dtype=np.int64)

    clin_rows, clin_owner, onto_rows, onto_owner = [], [], [], []
    for i, meta in enumerate(model.rows):
        if meta.side is Side.CLINICAL:
            owner = concept_index.get(meta.owner)
            if owner is not None:
                clin_rows.append(i)
                clin_owner.append(owner)
        elif meta.side is Side.ONTOLOGY:
            owner = class_index.get(meta.owner)
            if owner is not None:
                onto_rows.append(i)
                onto_owner.append(owner)

    allowed = None
    if routing is not None:
        allowed = np.zeros((len(concept_ids), len(ontologies)), dtype=bool)
        for cid, keys in routing.items():
            i = concept_index.get(cid)
            if i is not None:
                for key in keys:
                    if key in ontology_index:
                        allowed[i, ontology_index[key]] = True

    empty = np.zeros(0, dtype=np.int64)
    columns = [(empty, empty, np.zeros(0))]
    if clin_rows and onto_rows:
        # Group each concept's rows together; within a concept, row order stays.
        order = np.argsort(np.array(clin_owner, dtype=np.int64), kind="stable")
        clin_rows = np.array(clin_rows, dtype=np.int64)[order]
        clin_owner = np.array(clin_owner, dtype=np.int64)[order]
        onto_rows = np.array(onto_rows, dtype=np.int64)
        onto_owner = np.array(onto_owner, dtype=np.int64)
        onto_matrix = model.matrix[onto_rows].T.tocsc()
        n_classes = len(curies)

        start = 0
        while start < len(clin_rows):
            last = clin_owner[min(start + chunk_rows, len(clin_rows)) - 1]
            end = int(np.searchsorted(clin_owner, last, side="right"))
            product = (model.matrix[clin_rows[start:end]] @ onto_matrix).tocsr()
            product.sort_indices()
            coo = product.tocoo()
            concept = clin_owner[start:end][coo.row]
            cls = onto_owner[coo.col]
            keep = coo.data != 0.0
            if allowed is not None:
                keep &= allowed[concept, class_ontology[cls]]
            concept, cls, score = concept[keep], cls[keep], coo.data[keep]

            key = concept * n_classes + cls
            order = np.lexsort((-score, key))
            best = order[_first_of_runs(key[order])]
            columns.append((concept[best], cls[best], score[best]))
            start = end

    concept, cls, score = (np.concatenate(c) for c in zip(*columns))
    return PairTable(
        concept_ids=np.array(concept_ids, dtype=np.int64),
        curies=tuple(curies),
        class_ontology=class_ontology,
        ontologies=tuple(ontologies),
        concept=concept,
        cls=cls,
        score=np.minimum(score, 1.0),
    )


def filter_pairs(pairs: PairTable, cfg: SimilarityConfig) -> PairTable:
    """Drop below-floor scores, then keep the top fraction of each ontology.

    An ontology's k survivors are sorted by score descending (ties:
    concept_id, curie ascending) and the first ceil(keep_fraction * k)
    are kept.  The result lists the kept pairs in that order, ontology by
    ontology.
    """
    import numpy as np

    index = np.flatnonzero(pairs.score >= cfg.score_floor)
    ontology = pairs.class_ontology[pairs.cls[index]]
    pair_key = pairs.concept[index] * len(pairs.curies) + pairs.cls[index]
    order = np.lexsort((pair_key, -pairs.score[index], ontology))
    index, ontology = index[order], ontology[order]
    size = np.bincount(ontology, minlength=len(pairs.ontologies))
    rank = np.arange(len(index)) - (np.cumsum(size) - size)[ontology]
    keep = np.ceil(cfg.keep_fraction * size)
    return pairs.take(index[rank < keep[ontology]])


def best_per_concept(pairs: PairTable) -> dict[tuple[int, str], ScoredPair]:
    """Argmax score per (concept, ontology); score ties take the smallest CURIE."""
    import numpy as np

    ontology = pairs.class_ontology[pairs.cls]
    group = pairs.concept * len(pairs.ontologies) + ontology
    order = np.lexsort((pairs.cls, -pairs.score, group))
    win = order[_first_of_runs(group[order])]
    cids = pairs.concept_ids[pairs.concept[win]].tolist()
    curies = [pairs.curies[i] for i in pairs.cls[win].tolist()]
    keys = [pairs.ontologies[i] for i in ontology[win].tolist()]
    return {
        (cid, key): ScoredPair(cid, curie, score)
        for cid, key, curie, score in zip(cids, keys, curies, pairs.score[win].tolist())
    }

