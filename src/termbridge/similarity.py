"""Bag-of-words TF-IDF vector space model and cosine scoring on arrays.

One matrix row per input string (concept and class labels/synonyms from
both sides).  Weighting is pinned to tf(t,d) = raw count and
idf(t) = ln((1 + N) / (1 + df(t))) + 1 with L2-normalized rows; the
variant (``IDF_VARIANT``) is recorded in summary.json for reproducibility.

The cosine stages hold arrays, never one Python object per string or
per pair:

* ``build_corpus`` tokenizes every string straight into a ``Corpus``:
  token ids in first-seen order, one length per string, and each
  string's owner as an int32 index.  Concept rows come first, in concept
  id order, owned by indexes into the sorted concept ids; class rows
  follow in CURIE order, owned by indexes into the sorted non-deprecated
  CURIEs.  ``fit`` turns it into a CSR matrix, and the ``SimilarityModel``
  keeps the two owner arrays beside it;
* scoring joins the concept rows to the class rows over token postings
  (``join_rows``), so only string pairs sharing at least one token are
  ever evaluated; orthogonal pairs score zero and are never candidates.
  Each dot product adds its terms in ascending token order, as a CSR
  product does.  Each (concept, class) keeps the best score over its
  string pairs, found by a ``lexsort`` on ``concept * n_classes + class``.
  Concept rows are joined in chunks of a bounded number of products that
  never split a concept, so each chunk's maxima are final.  Routing is a
  concepts x ontologies boolean mask;
* each chunk is reduced as it comes (``best_pairs``): pairs under the
  floor are counted and dropped, each (concept, ontology) keeps its best
  pair, and the other pairs leave only their scores, per ontology in
  concept order.  Concepts and classes are int32 indexes into the sorted
  concept ids and CURIEs, so index order is id order and CURIE order;
* the per-ontology keep-fraction cut finds each ontology's threshold
  score with ``np.partition`` and settles ties at it by concept order,
  which keeps the winners that ranking every pair on (-score, concept
  id, CURIE) would keep (``filter_pairs``);
* the winners stay arrays, sorted by (concept, ontology)
  (``best_per_concept``).  ``ScoredPair`` objects are built for one
  concept at a time, when the per-concept loop reaches it.

Embeddings are built for every concept whether or not exact alignment
already succeeded: the scorer never consults alignment results.

numpy is imported inside the functions that use it, so the commands
that never score (``coverage``, ``phers``, ``export-sssom``) do not pay
for loading it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, replace
from itertools import chain, pairwise

from .core import curie_ontology
from .errors import DataError
from .lexical import TokenizerConfig, normalize_string, tokenize

IDF_VARIANT = "ln((1+N)/(1+df))+1, tf=count, l2"


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


@dataclass(frozen=True, eq=False)
class CsrMatrix:
    """A sparse matrix in compressed sparse row form.

    Row i's columns are ``indices[indptr[i]:indptr[i + 1]]``, ascending,
    and its values are the same slice of ``data``.
    """

    data: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    @property
    def nnz(self) -> int:
        return len(self.data)


@dataclass(frozen=True, eq=False)
class Corpus:
    """Every label and synonym string of both sides, tokenized into arrays.

    String d's tokens are the next ``lengths[d]`` entries of
    ``token_ids``; a token id indexes ``tokens``, which lists each token
    once, in first-seen order.  The first ``len(concept_owner)`` strings
    are concept rows and ``concept_owner`` gives each one's index into
    ``concept_ids``; the class rows follow and ``class_owner`` gives each
    one's index into ``curies``.  Both owner arrays are ascending.  The
    length is the number of strings.
    """

    tokens: tuple[str, ...]
    token_ids: np.ndarray
    lengths: np.ndarray
    concept_ids: np.ndarray
    curies: tuple[str, ...]
    concept_owner: np.ndarray
    class_owner: np.ndarray

    def __len__(self) -> int:
        return len(self.lengths)


@dataclass(frozen=True, eq=False)
class SimilarityModel:
    """The fitted TF-IDF matrix, one row per corpus string in corpus order,
    with the corpus's owners: the first ``len(concept_owner)`` rows are
    concept rows, the rest class rows (see ``Corpus``)."""

    vocabulary: dict[str, int]
    matrix: CsrMatrix
    concept_ids: np.ndarray
    curies: tuple[str, ...]
    concept_owner: np.ndarray
    class_owner: np.ndarray


@dataclass(frozen=True, eq=False)
class BestPairs:
    """Each (concept, ontology)'s best above-floor pair, and what the cut needs of the rest.

    ``concept``, ``cls``, ``ontology``, ``score`` and ``offset`` hold one
    entry per (concept, ontology): its best pair, the smallest CURIE
    winning a score tie.  ``concept`` indexes ``concept_ids``, ``cls``
    indexes ``curies`` and ``ontology`` indexes ``ontologies``; all three
    are sorted.  ``offset`` counts the above-floor pairs of the winner's
    ontology that belong to lower concepts.  ``scores[o]`` holds every
    above-floor score of ontology o, concept by concept, so a concept's
    scores there start at its winner's offset.  ``pairs`` is the length:
    the routed pairs with a non-zero score or, after ``filter_pairs``, the
    pairs the cut keeps.
    """

    concept_ids: np.ndarray
    curies: tuple[str, ...]
    ontologies: tuple[str, ...]
    score_floor: float
    concept: np.ndarray
    cls: np.ndarray
    ontology: np.ndarray
    score: np.ndarray
    offset: np.ndarray
    scores: tuple[np.ndarray, ...]
    pairs: int

    def __len__(self) -> int:
        return self.pairs


class _WordTokens(dict):
    """word -> its token ids, tokenized on first use.  ``ids`` numbers each
    token the first time a word yields it."""

    def __init__(self, cfg: TokenizerConfig):
        super().__init__()
        self.cfg = cfg
        self.ids: dict[str, int] = {}

    def __missing__(self, word: str) -> tuple[int, ...]:
        ids = self.ids
        token_ids = self[word] = tuple(
            ids.setdefault(token, len(ids)) for token in tokenize(word, self.cfg)
        )
        return token_ids


def build_corpus(concepts, classes, cfg: TokenizerConfig) -> Corpus:
    """Every label and synonym string on both sides, tokenized into a ``Corpus``.

    Concepts are taken in id order, then the non-deprecated classes in
    CURIE order; each owner's label comes before its synonyms.  Tokens
    are memoized per word: a normalized string is single-space separated
    and no token spans a space, so a string's tokens are its words'
    tokens in order.
    """
    import numpy as np

    words = _WordTokens(cfg)
    token_ids = array("i")
    lengths = array("i")

    def add(owners: array, owner: int, texts) -> None:
        for text in texts:
            before = len(token_ids)
            text_words = normalize_string(text).split(" ")
            token_ids.extend(chain.from_iterable(map(words.__getitem__, text_words)))
            lengths.append(len(token_ids) - before)
            owners.append(owner)

    concept_ids, concept_owner = [], array("i")
    for i, concept in enumerate(sorted(concepts, key=lambda c: c.concept_id)):
        concept_ids.append(concept.concept_id)
        add(concept_owner, i, (concept.label, *concept.synonyms))
    curies, class_owner = [], array("i")
    for i, cls in enumerate(sorted((k for k in classes if not k.deprecated), key=lambda k: k.curie)):
        curies.append(cls.curie)
        add(class_owner, i, (cls.label, *cls.synonyms))

    return Corpus(
        tokens=tuple(words.ids),
        token_ids=np.array(token_ids, dtype=np.int32),
        lengths=np.array(lengths, dtype=np.int64),
        concept_ids=np.array(concept_ids, dtype=np.int64),
        curies=tuple(curies),
        concept_owner=np.array(concept_owner, dtype=np.int32),
        class_owner=np.array(class_owner, dtype=np.int32),
    )


def fit(corpus: Corpus) -> SimilarityModel:
    """Learn the TF-IDF model over a tokenized corpus.

    Rows for strings that produced no tokens stay as zero vectors; every
    other row has unit Euclidean norm.
    """
    import numpy as np

    n_docs = len(corpus)
    if not n_docs:
        raise DataError("EMPTY_CORPUS", "no documents to fit")
    vocabulary = {token: i for i, token in enumerate(sorted(corpus.tokens))}
    n_vocab = len(vocabulary)
    column_of = np.fromiter((vocabulary[t] for t in corpus.tokens), dtype=np.int64, count=n_vocab)

    # One cell per (document, column), in row-major order; its count is the
    # tf.  The cells are sorted in place, where np.unique would copy them.
    cells = np.repeat(np.arange(n_docs, dtype=np.int64) * n_vocab, corpus.lengths)
    cells += column_of[corpus.token_ids]
    cells.sort()
    first = np.flatnonzero(_first_of_runs(cells))
    counts = np.diff(first, append=len(cells))
    cells = cells[first]
    del first
    indices = (cells % n_vocab).astype(np.int32)
    indptr = np.searchsorted(cells, np.arange(n_docs + 1, dtype=np.int64) * n_vocab)
    del cells
    df = np.bincount(indices, minlength=n_vocab)
    idf = np.array([math.log((1.0 + n_docs) / (1.0 + d)) + 1.0 for d in df.tolist()])
    data = counts * idf[indices]
    del counts

    # Each norm is np.dot over its own row: summing squares any other way
    # (a bincount, say) rounds differently in the last bit for some rows.
    # The row bounds are read through a memoryview, so no list of them is made.
    norms = np.fromiter(
        (math.sqrt(float(np.dot(row := data[a:b], row))) for a, b in pairwise(memoryview(indptr))),
        dtype=np.float64,
        count=n_docs,
    )
    data /= np.repeat(norms, np.diff(indptr))

    return SimilarityModel(
        vocabulary=vocabulary,
        matrix=CsrMatrix(data, indices, indptr, (n_docs, n_vocab)),
        concept_ids=corpus.concept_ids,
        curies=corpus.curies,
        concept_owner=corpus.concept_owner,
        class_owner=corpus.class_owner,
    )


def _first_of_runs(keys: np.ndarray) -> np.ndarray:
    """Mask of the first element of each run of equal values in ``keys``."""
    import numpy as np

    first = np.ones(len(keys), dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    return first


def _ranges(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """``arange(s, s + c)`` for each start s and count c, concatenated."""
    import numpy as np

    ends = np.cumsum(counts)
    total = int(ends[-1]) if len(ends) else 0
    return np.repeat(starts - ends + counts, counts) + np.arange(total)


def join_rows(matrix: CsrMatrix, left_owner, chunk_products: int):
    """Dot products of the left rows with the right rows that share a token.

    The left rows are the matrix's first ``len(left_owner)`` rows and the
    right rows are the rest.  Yields one ``(left, right, dot)`` triple of
    arrays per chunk of left rows: ``left`` and ``right`` count from the
    first left and the first right row, pairs come in (left, right) order
    and zero dot products are left out.  ``left_owner`` (ascending) gives
    each left row's owner; a chunk never splits an owner's rows and holds
    about ``chunk_products`` products unless one owner needs more.

    Each dot product adds its products one at a time in ascending token
    order, starting from 0.0, as a CSR by CSR product does.  The right
    rows' non-zeros are stable-sorted by token into postings; each left
    non-zero, in row then token order, is expanded over its token's
    posting; a stable argsort on (left, right) keeps that order within
    each pair, and ``bincount`` adds its weights in input order.
    """
    import numpy as np

    indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
    n_left = len(left_owner)
    n_right = matrix.shape[0] - n_left
    split = int(indptr[n_left])

    tokens = indices[split:]
    by_token = np.argsort(tokens, kind="stable")
    posting_right = np.repeat(np.arange(n_right, dtype=np.int32), np.diff(indptr[n_left:]))[by_token]
    posting_value = data[split:][by_token]
    del by_token
    posting_start = np.zeros(matrix.shape[1] + 1, dtype=np.int64)
    np.cumsum(np.bincount(tokens, minlength=matrix.shape[1]), out=posting_start[1:])

    tokens, values = indices[:split], data[:split]
    row_start = indptr[:n_left + 1]
    counts = np.diff(row_start)
    fanout = posting_start[tokens + 1] - posting_start[tokens]
    products_before = np.zeros(split + 1, dtype=np.int64)
    np.cumsum(fanout, out=products_before[1:])
    products_before = products_before[row_start]

    start = 0
    while start < n_left:
        budget = products_before[start] + chunk_products
        stop = max(start + 1, int(np.searchsorted(products_before, budget, side="right")) - 1)
        end = int(np.searchsorted(left_owner, left_owner[stop - 1], side="right"))
        a, b = row_start[start], row_start[end]
        key_type = np.int32 if (end - start) * n_right < 2**31 else np.int64
        base = np.repeat(np.arange(end - start, dtype=key_type) * key_type(n_right), counts[start:end])
        at = _ranges(posting_start[tokens[a:b]], fanout[a:b])
        key = np.repeat(base, fanout[a:b]) + posting_right[at]
        product = np.repeat(values[a:b], fanout[a:b]) * posting_value[at]
        del base, at
        order = np.argsort(key, kind="stable")
        key = key[order]
        first = _first_of_runs(key)
        # astype: the bincount of no values is an empty integer array.
        dot = np.bincount(np.cumsum(first) - 1, weights=product[order]).astype(np.float64, copy=False)
        del order, product
        key = key[first]
        nonzero = dot != 0.0
        left, right = np.divmod(key[nonzero], key_type(n_right))
        yield left + start, right, dot[nonzero]
        start = end


def score_concept_pairs(
    model: SimilarityModel,
    routing=None,
    score_floor: float = 0.0,
    chunk_products: int = 1 << 13,
) -> BestPairs:
    """Best cosine per (concept, class) pair over all their string rows,
    reduced chunk by chunk to each (concept, ontology)'s best pair.

    ``routing``, when given, is called once per concept id and returns
    the ontology keys that concept may target; pairs outside them are
    skipped.  Only pairs sharing at least one token are candidates (all
    other scores are exactly zero).  Scores are clamped to 1.0, and
    candidates under ``score_floor`` are counted but not kept (see
    ``best_pairs``).  ``chunk_products`` bounds the string products held
    at once (see ``join_rows``).
    """
    import numpy as np

    concept_ids, curies = model.concept_ids, model.curies
    class_key = [curie_ontology(curie) for curie in curies]
    ontologies = sorted(set(class_key))
    ontology_index = {o: i for i, o in enumerate(ontologies)}
    class_ontology = np.fromiter(
        map(ontology_index.__getitem__, class_key), dtype=np.int32, count=len(curies)
    )
    del class_key

    allowed = None
    if routing is not None:
        allowed = np.zeros((len(concept_ids), len(ontologies)), dtype=bool)
        for i, concept_id in enumerate(map(int, concept_ids)):
            for key in routing(concept_id):
                if key in ontology_index:
                    allowed[i, ontology_index[key]] = True

    def maxima():
        """Each chunk's (concept, class) maxima, in (concept, class) order."""
        left_owner, right_owner = model.concept_owner, model.class_owner
        for left, right, score in join_rows(model.matrix, left_owner, chunk_products):
            concept, cls = left_owner[left], right_owner[right]
            if allowed is not None:
                keep = allowed[concept, class_ontology[cls]]
                concept, cls, score = concept[keep], cls[keep], score[keep]
            key = concept.astype(np.int64) * len(curies) + cls
            order = np.lexsort((-score, key))
            best = order[_first_of_runs(key[order])]
            yield concept[best], cls[best], np.minimum(score[best], 1.0)

    return best_pairs(
        maxima() if len(model.concept_owner) and len(model.class_owner) else (),
        concept_ids, curies, class_ontology, tuple(ontologies), score_floor,
    )


def best_pairs(chunks, concept_ids, curies, class_ontology, ontologies, score_floor) -> BestPairs:
    """Reduce scored (concept, class) pairs to each (concept, ontology)'s best.

    ``chunks`` yields ``(concept, cls, score)`` arrays indexing the sorted
    ``concept_ids`` and ``curies``, one entry per pair.  Each chunk holds
    whole concepts, chunks come in concept order and a chunk's pairs come
    in (concept, class) order.  ``class_ontology`` gives each class's index
    into the sorted ``ontologies``.  Pairs under ``score_floor`` are
    counted, then dropped; the rest leave only their scores and each
    (concept, ontology)'s best pair behind.
    """
    import numpy as np

    n_ontologies = len(ontologies)
    empty = np.zeros(0, dtype=np.int32)
    winners = [(empty, empty, empty, np.zeros(0), np.zeros(0, dtype=np.int64))]
    # Each ontology's scores grow in one buffer, so no list of chunk pieces
    # is concatenated, and held twice, at the end.
    scores = [array("d") for _ in range(n_ontologies)]
    above_before = np.zeros(n_ontologies, dtype=np.int64)
    pairs = 0
    for concept, cls, score in chunks:
        pairs += len(score)
        above = score >= score_floor
        concept, cls, score = concept[above], cls[above], score[above]
        ontology = class_ontology[cls]
        # By ontology, then concept, then score descending.  lexsort is
        # stable and pairs come in class order, so the smallest CURIE leads
        # each score tie and each (concept, ontology)'s first pair is its best.
        order = np.lexsort((-score, concept, ontology))
        concept, cls, ontology, score = concept[order], cls[order], ontology[order], score[order]
        count = np.bincount(ontology, minlength=n_ontologies)
        start = np.cumsum(count) - count
        first = np.ones(len(score), dtype=bool)
        first[1:] = (concept[1:] != concept[:-1]) | (ontology[1:] != ontology[:-1])
        at = np.flatnonzero(first)
        won = ontology[at]
        winners.append(
            (concept[at], cls[at], won, score[at], above_before[won] + at - start[won])
        )
        for o in np.flatnonzero(count).tolist():
            scores[o].frombytes(score[start[o]:start[o] + count[o]].tobytes())
        above_before += count

    concept, cls, ontology, score, offset = (np.concatenate(c) for c in zip(*winners))
    return BestPairs(
        concept_ids=concept_ids,
        curies=curies,
        ontologies=ontologies,
        score_floor=score_floor,
        concept=concept,
        cls=cls,
        ontology=ontology,
        score=score,
        offset=offset,
        scores=tuple(np.frombuffer(s, dtype=np.float64) for s in scores),
        pairs=pairs,
    )


def filter_pairs(pairs: BestPairs, cfg: SimilarityConfig) -> BestPairs:
    """Keep the winners that survive the floor and their ontology's cut.

    An ontology's k above-floor pairs rank by score descending, then
    concept id, then CURIE, and the first m = ceil(keep_fraction * k) are
    kept; t is the m-th best score.  A winner scoring above t is kept.
    One scoring t is kept when the pairs above t plus the t-scored pairs
    of lower concepts number fewer than m: no pair of its own concept
    ranks ahead of it, as it has that concept's smallest best CURIE.  A
    concept's other pairs rank after its winner, so the winners kept are
    exactly the argmax of the kept pairs.  The result's length is the sum
    of the m.
    """
    import numpy as np

    if cfg.score_floor < pairs.score_floor:
        raise ValueError(
            f"score floor {cfg.score_floor} is under the {pairs.score_floor} pairs were scored at"
        )
    keep = np.zeros(len(pairs.score), dtype=bool)
    kept = 0
    for o, scores in enumerate(pairs.scores):
        above = scores[scores >= cfg.score_floor]
        k = len(above)
        m = math.ceil(cfg.keep_fraction * k)
        kept += m
        if m == 0:
            continue
        above.partition(k - m)
        t = above[k - m]
        greater = int(np.count_nonzero(above[k - m + 1:] > t))
        mine = np.flatnonzero(pairs.ontology == o)
        score = pairs.score[mine]
        ties_before = np.searchsorted(np.flatnonzero(scores == t), pairs.offset[mine])
        keep[mine] = (score > t) | ((score == t) & (greater + ties_before < m))
    return replace(
        pairs,
        concept=pairs.concept[keep],
        cls=pairs.cls[keep],
        ontology=pairs.ontology[keep],
        score=pairs.score[keep],
        offset=pairs.offset[keep],
        scores=(),
        pairs=kept,
    )


@dataclass(frozen=True, eq=False)
class Winners:
    """The winners the cut keeps, as arrays sorted by (concept, ontology).

    ``cls``, ``ontology`` and ``score`` hold one entry per winning
    (concept, ontology) pair and index ``curies`` and ``ontologies`` as in
    ``BestPairs``.  The winners of ``concept_ids[i]`` are the entries
    ``start[i]:start[i + 1]``.  ``ScoredPair`` objects are built one
    concept at a time, by ``for_concept``.  The length is the number of
    winners.
    """

    concept_ids: np.ndarray
    curies: tuple[str, ...]
    ontologies: tuple[str, ...]
    cls: np.ndarray
    ontology: np.ndarray
    score: np.ndarray
    start: np.ndarray

    def __len__(self) -> int:
        return len(self.score)

    def for_concept(self, concept_id: int) -> dict[str, ScoredPair]:
        """Ontology key -> ``concept_id``'s winning pair there."""
        i = int(self.concept_ids.searchsorted(concept_id))
        if i == len(self.concept_ids) or self.concept_ids[i] != concept_id:
            return {}
        a, b = self.start[i:i + 2].tolist()
        return {
            self.ontologies[o]: ScoredPair(concept_id, self.curies[c], score)
            for o, c, score in zip(
                self.ontology[a:b].tolist(), self.cls[a:b].tolist(), self.score[a:b].tolist()
            )
        }


def best_per_concept(pairs: BestPairs) -> Winners:
    """The winners sorted by (concept id, ontology), one concept's pairs
    found by ``Winners.for_concept``."""
    import numpy as np

    order = np.lexsort((pairs.ontology, pairs.concept))
    concept = pairs.concept[order]
    return Winners(
        concept_ids=pairs.concept_ids,
        curies=pairs.curies,
        ontologies=pairs.ontologies,
        cls=pairs.cls[order],
        ontology=pairs.ontology[order],
        score=pairs.score[order],
        start=np.searchsorted(concept, np.arange(len(pairs.concept_ids) + 1)),
    )
