"""Plain nested-loop reference for the cosine stages of ``map``.

It starts from ``fit``'s matrix, which criterion 4 checks against a dense
model.  For every routed (concept, class) pair it takes the largest dot
product over the two owners' string rows.  Each dot product starts from
0.0 and adds the shared tokens' products one at a time in ascending
column (token) order, so scores agree with ``map``'s bit for bit.
Then it clamps to 1.0, drops scores under the floor, keeps the top
``ceil(keep_fraction * k)`` of each ontology's k survivors (ranked by score
descending, then concept id, then CURIE) and takes the argmax per
(concept, ontology), the smallest CURIE winning a tie.
"""

from __future__ import annotations

import math
from collections import defaultdict

from termbridge.core import curie_ontology


def _row(model, i):
    start, end = model.matrix.indptr[i], model.matrix.indptr[i + 1]
    return dict(zip(model.matrix.indices[start:end].tolist(), model.matrix.data[start:end].tolist()))


def _dot(a, b):
    total = 0.0
    for col in sorted(a):
        if col in b:
            total += a[col] * b[col]
    return total


def row_owners(model):
    """Each model row's owner: a concept id (int) for the concept rows,
    which come first, then a CURIE (str) for the class rows."""
    return [int(model.concept_ids[i]) for i in model.concept_owner.tolist()] + [
        model.curies[i] for i in model.class_owner.tolist()
    ]


def cosine_scores(model, allowed):
    """{(concept_id, curie): clamped best score} for routed pairs sharing a token.

    ``allowed`` maps concept_id -> the ontology keys it may target.
    """
    rows = defaultdict(list)
    for i, owner in enumerate(row_owners(model)):
        rows[owner].append(_row(model, i))
    # A concept row's owner is its id (int); a class row's is its CURIE (str).
    concept_ids = sorted(owner for owner in rows if isinstance(owner, int))
    curies = sorted(owner for owner in rows if isinstance(owner, str))
    scores = {}
    for concept_id in concept_ids:
        for curie in curies:
            if curie_ontology(curie) not in allowed[concept_id]:
                continue
            best = 0.0
            for a in rows[concept_id]:
                for b in rows[curie]:
                    best = max(best, _dot(a, b))
            if best > 0.0:
                scores[(concept_id, curie)] = min(best, 1.0)
    return scores


def kept_pairs(scores, score_floor, keep_fraction):
    """[(concept_id, curie, score)] the floor and the per-ontology cut keep.

    Each ontology's k survivors rank by score descending, then concept id,
    then CURIE, and the first ``ceil(keep_fraction * k)`` are kept; the
    list goes ontology by ontology, each in rank order.
    """
    by_ontology = defaultdict(list)
    for (concept_id, curie), score in scores.items():
        if score >= score_floor:
            by_ontology[curie_ontology(curie)].append((-score, concept_id, curie))
    kept = []
    for _, survivors in sorted(by_ontology.items()):
        survivors.sort()
        kept += [
            (concept_id, curie, -neg_score)
            for neg_score, concept_id, curie in survivors[: math.ceil(keep_fraction * len(survivors))]
        ]
    return kept


def cosine_winners(scores, score_floor, keep_fraction):
    """{(concept_id, ontology): (curie, score)} after the floor, cut and argmax."""
    winners = {}
    for concept_id, curie, score in kept_pairs(scores, score_floor, keep_fraction):
        key = (concept_id, curie_ontology(curie))
        current = winners.get(key)
        if current is None or score > current[1] or (score == current[1] and curie < current[0]):
            winners[key] = (curie, score)
    return winners


def winner_dict(winners):
    """{(concept_id, ontology): ScoredPair} of ``best_per_concept``'s winners,
    read through ``Winners.for_concept`` one concept at a time, in ascending id."""
    return {
        (concept_id, ontology): pair
        for concept_id in winners.concept_ids.tolist()
        for ontology, pair in winners.for_concept(concept_id).items()
    }
