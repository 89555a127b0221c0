"""``Winners.for_concept`` against the dict ``best_per_concept`` used to build.

The reference below builds every winner's ``ScoredPair`` at once, keyed
(concept_id, ontology), as the whole-table version did.  Reading the
arrays one concept at a time, in ascending id, must give exactly that
dict's entries for each concept, and ``len()`` must count the winners.
"""

from hypothesis import HealthCheck, given, settings

from termbridge.similarity import ScoredPair, best_per_concept, filter_pairs

from test_similarity import Pair, best_pairs_of, cut_inputs


def winner_table(pairs):
    """{(concept_id, ontology): ScoredPair} for every winner of ``pairs``."""
    cids = pairs.concept_ids[pairs.concept].tolist()
    curies = [pairs.curies[i] for i in pairs.cls.tolist()]
    keys = [pairs.ontologies[i] for i in pairs.ontology.tolist()]
    return {
        (cid, key): ScoredPair(curie, score)
        for cid, key, curie, score in zip(cids, keys, curies, pairs.score.tolist())
    }


@settings(
    derandomize=True,
    max_examples=300,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(cut_inputs())
def test_cursor_gives_each_concepts_winners(inputs):
    scores, score_floor, (filter_floor, keep_fraction), chunk_concepts = inputs
    pairs = [Pair(cid, curie, score) for (cid, curie), score in scores.items()]
    filtered = filter_pairs(best_pairs_of(pairs, score_floor, chunk_concepts), filter_floor, keep_fraction)
    table = winner_table(filtered)
    winners = best_per_concept(filtered)
    assert len(winners) == len(table)
    ids = winners.concept_ids.tolist()
    # Ids between and around the scored ones have no winners.
    for concept_id in sorted(set(ids) | {i + 1 for i in ids} | {0}):
        expected = {key: pair for (cid, key), pair in table.items() if cid == concept_id}
        got = winners.for_concept(concept_id)
        assert got == expected, concept_id
        assert list(got) == sorted(got)
