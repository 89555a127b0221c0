"""``map``'s cosine winners against the nested-loop reference, on generated inputs.

Inputs are drawn so that ties are common: alphabets of 3-8 words (one a
plural that lemmatizes onto another), strings of 1-4 words that may be
stopwords only, 1-3 ontologies with deprecated classes, and semantic-type
routing with ALLOW and EXCLUDE rules.  Class strings join their words
with hyphens and end in a full stop, so no class string equals a concept
string and no (concept, ontology) is settled by exact match: every
output row is either the cosine winner or unmapped.
"""

import json
import tempfile
from pathlib import Path

from termbridge import pipeline

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from termbridge.core import Domain
from termbridge.ingest import load_code_dictionary, load_concepts, load_ontology_dump
from termbridge.pipeline import RunConfig, live_classes, run_map
from termbridge.similarity import (
    best_per_concept,
    build_corpus,
    filter_pairs,
    fit,
    score_concept_pairs,
)

from reference_cosine import cosine_scores, cosine_winners, kept_pairs, winner_dict

WORDS = ("pain", "pains", "fever", "cough", "rash", "ache", "nausea", "joint")
STOPWORDS = ("the", "of")
ONTOLOGIES = ("HP", "MONDO", "UBERON")
SEMANTIC_TYPES = ("Finding", "Disease or Syndrome", "Sign or Symptom")


@st.composite
def map_inputs(draw):
    alphabet = draw(st.lists(st.sampled_from(WORDS), min_size=3, max_size=8, unique=True))
    phrase = st.lists(st.sampled_from(alphabet + list(STOPWORDS)), min_size=1, max_size=4)
    ontologies = draw(st.lists(st.sampled_from(ONTOLOGIES), min_size=1, max_size=3, unique=True))
    concepts = [
        (
            concept_id,
            draw(phrase),
            draw(st.lists(phrase, max_size=2)),
            draw(st.sampled_from(SEMANTIC_TYPES)),
        )
        for concept_id in range(1, draw(st.integers(1, 8)) + 1)
    ]
    classes = [
        (
            f"{ontology}:{k:07d}",
            draw(phrase),
            draw(st.lists(phrase, max_size=2)),
            draw(st.sampled_from([False, False, False, True])),
        )
        for k, ontology in enumerate(
            draw(st.lists(st.sampled_from(ontologies), min_size=1, max_size=12))
        )
    ]
    rules = {
        sty: draw(
            st.one_of(
                st.none(),
                st.just("EXCLUDE"),
                st.lists(st.sampled_from(ONTOLOGIES), min_size=1, max_size=3, unique=True),
            )
        )
        for sty in SEMANTIC_TYPES
    }
    tau = draw(st.sampled_from([0.0, 0.25, 0.5]))
    rho = draw(st.sampled_from([0.25, 0.5, 0.75, 1.0]))
    return concepts, classes, rules, tau, rho


def _write_inputs(root: Path, concepts, classes, rules):
    lines = ["concept_id\tvocabulary\tconcept_code\tlabel\tsynonyms\tdomain\tused_in_practice\trecord_count"]
    for concept_id, label, synonyms, _ in concepts:
        lines.append(
            f"{concept_id}\tSNOMED\tc{concept_id}\t{' '.join(label)}\t"
            f"{'|'.join(' '.join(s) for s in synonyms)}\tCONDITION\t1\t5"
        )
    (root / "concepts.tsv").write_text("\n".join(lines) + "\n")

    def class_text(words):
        return "-".join(words) + "."

    (root / "ontology.jsonl").write_text(
        "".join(
            json.dumps(
                {
                    "curie": curie,
                    "ontology": curie.split(":")[0],
                    "label": class_text(label),
                    "synonyms": [{"text": class_text(s), "kind": "EXACT"} for s in synonyms],
                    "xrefs": [],
                    "deprecated": deprecated,
                }
            )
            + "\n"
            for curie, label, synonyms, deprecated in classes
        )
    )
    (root / "MRCONSO.RRF").write_text(
        "".join(
            f"C{concept_id:07d}|ENG||||||||||SNOMEDCT_US|PT|c{concept_id}|x||||\n"
            for concept_id, *_ in concepts
        )
    )
    (root / "MRSTY.RRF").write_text(
        "".join(
            f"C{concept_id:07d}|T000|A1.2|{sty}|AT000|256|\n" for concept_id, _, _, sty in concepts
        )
    )
    routing = ["semantic_type\taction\tvalue"]
    for sty, rule in rules.items():
        if rule == "EXCLUDE":
            routing.append(f"{sty}\tEXCLUDE\tINJURY")
        elif rule is not None:
            routing.append(f"{sty}\tALLOW\t{'|'.join(rule)}")
    (root / "routing_policy.tsv").write_text("\n".join(routing) + "\n")
    (root / "stopwords.txt").write_text("\n".join(STOPWORDS) + "\n")


def _allowed(concepts, classes, rules):
    configured = {curie.split(":")[0] for curie, *_ in classes}
    allowed = {}
    for concept_id, _, _, sty in concepts:
        rule = rules[sty]
        if rule == "EXCLUDE":
            allowed[concept_id] = frozenset()
        elif rule is None:
            allowed[concept_id] = frozenset(configured)
        else:
            allowed[concept_id] = frozenset(rule) & configured
    return allowed


def _model(root: Path):
    """The inputs' concepts and classes, and the model ``map`` fits on them."""
    dictionary = load_code_dictionary()
    concepts = load_concepts(root / "concepts.tsv", dictionary, Domain.CONDITION).concepts
    classes = load_ontology_dump(root / "ontology.jsonl", dictionary)
    return concepts, classes, fit(build_corpus(concepts.values(), live_classes(classes.values()), frozenset(STOPWORDS)))


def _reference(root: Path, allowed, tau, rho):
    return cosine_winners(cosine_scores(_model(root)[2], allowed), tau, rho)


def _run_map(root: Path, tau, rho):
    run_map(
        RunConfig(
            out_dir=str(root / "out"),
            concepts=str(root / "concepts.tsv"),
            ontology_dumps=(str(root / "ontology.jsonl"),),
            umls_mrconso=str(root / "MRCONSO.RRF"),
            umls_mrsty=str(root / "MRSTY.RRF"),
            stopwords=str(root / "stopwords.txt"),
            routing=str(root / "routing_policy.tsv"),
            domain=Domain.CONDITION,
            tau=tau,
            rho=rho,
            jobs=1,
        )
    )


@settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(map_inputs())
def test_map_cosine_winners_match_reference(case):
    concepts, classes, rules, tau, rho = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_inputs(root, concepts, classes, rules)
        _run_map(root, tau, rho)
        lines = (root / "out" / "mappings.tsv").read_text().splitlines()
        header = lines[0].split("\t")
        rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
        allowed = _allowed(concepts, classes, rules)
        winners = _reference(root, allowed, tau, rho)

    configured = sorted({curie.split(":")[0] for curie, *_ in classes})
    assert sorted((int(r["concept_id"]), r["ontology"]) for r in rows) == [
        (concept_id, ontology) for concept_id, *_ in concepts for ontology in configured
    ]
    for row in rows:
        winner = winners.get((int(row["concept_id"]), row["ontology"]))
        if winner is None:
            assert row["category"] == "Unmapped", row
        else:
            curie, score = winner
            assert row["category"] == "Cosine Similarity One-to-One Concept", row
            assert row["targets"] == curie, (row, winner)
            assert row["score"] == f"{score:.12g}", (row, winner)


@settings(
    derandomize=True,
    max_examples=120,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(map_inputs(), st.sampled_from([1, 2, 4, 16, 1 << 15]))
def test_scoring_in_small_chunks_matches_reference(case, chunk_products):
    """The three cosine stages, with the join split into chunks of a few products."""
    concepts, classes, rules, tau, rho = case
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        _write_inputs(root, concepts, classes, rules)
        model = _model(root)[2]
    allowed = _allowed(concepts, classes, rules)
    scores = cosine_scores(model, allowed)
    scored = score_concept_pairs(
        model,
        routing=allowed.__getitem__,
        score_floor=tau,
        chunk_products=chunk_products,
    )
    assert len(scored) == len(scores)
    filtered = filter_pairs(scored, tau, rho)
    assert len(filtered) == len(kept_pairs(scores, tau, rho))
    best = best_per_concept(filtered)
    assert {key: (p.curie, p.score) for key, p in winner_dict(best).items()} == cosine_winners(scores, tau, rho)


def test_pipeline_stage_lengths_match_reference(tmp_path, monkeypatch):
    """``run_map`` calls the three cosine stages under ``termbridge.pipeline``'s
    names, and their lengths are the candidate pairs, the pairs the cut
    keeps and the winners."""
    concepts = [
        (1, ["pain", "fever"], [["joint", "pain"]], "Finding"),
        (2, ["cough"], [["rash", "cough"]], "Finding"),
        (3, ["joint", "rash"], [], "Sign or Symptom"),
        (4, ["fever", "cough", "pain"], [], "Finding"),
    ]
    classes = [
        ("HP:0000001", ["pain"], [["fever"]], False),
        ("HP:0000002", ["cough", "fever"], [], False),
        ("HP:0000003", ["joint"], [["rash"]], False),
        ("HP:0000004", ["pain", "cough"], [], True),
        ("MONDO:0000005", ["rash", "pain"], [], False),
        ("MONDO:0000006", ["fever", "joint", "cough"], [], False),
    ]
    rules = {"Finding": None, "Disease or Syndrome": None, "Sign or Symptom": ["HP"]}
    tau, rho = 0.25, 0.5
    _write_inputs(tmp_path, concepts, classes, rules)
    lengths = {}
    for name in ("score_concept_pairs", "filter_pairs", "best_per_concept"):

        def measured(*args, _stage=getattr(pipeline, name), _name=name, **kwargs):
            result = _stage(*args, **kwargs)
            lengths[_name] = len(result)
            return result

        monkeypatch.setattr(pipeline, name, measured)
    _run_map(tmp_path, tau, rho)

    scores = cosine_scores(_model(tmp_path)[2], _allowed(concepts, classes, rules))
    assert lengths == {
        "score_concept_pairs": len(scores),
        "filter_pairs": len(kept_pairs(scores, tau, rho)),
        "best_per_concept": len(cosine_winners(scores, tau, rho)),
    }
