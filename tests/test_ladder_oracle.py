"""Every row of ``map`` against the nested-loop ladder reference, on generated inputs.

Inputs are drawn so that every rung of the ladder is busy: alphabets of
3-8 words with strings of 1-3 words, so exact string hits and cosine ties
are common; concept codes and two shared CUIs that class xrefs point at;
ancestor chains, with an ancestor that is not loaded; 2-3 ontologies with
deprecated classes; ALLOW and EXCLUDE routing rules; curation rows with
targets or a reason; and, for the measurement domain, scale rows, result
rows and auxiliary targets.  The cosine winners are the run's own
(``test_cosine_oracle`` checks them), read from ``best_per_concept`` as
``map`` calls it.
"""

import json
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from termbridge import pipeline
from termbridge.core import Domain
from termbridge.pipeline import RunConfig, run_map

from reference_cosine import winner_dict
from reference_ladder import Case, Concept, CurationRow, Klass, reference_rows

WORDS = ("pain", "fever", "cough", "rash", "ache", "nausea", "joint", "swelling")
ONTOLOGIES = ("HP", "MONDO", "UBERON")
SEMANTIC_TYPES = ("Finding", "Disease or Syndrome", "Sign or Symptom")
SHARED_CUIS = ("C9000001", "C9000002")
DANGLING = 99  # an ancestor id no concept row carries
# (scale, reference range kind) -> the outcomes a result row may carry
SCALES = {
    ("QUANTITATIVE", "NONE"): ("HIGH", "LOW", "NORMAL"),
    ("QUANTITATIVE", "NUMERIC"): ("HIGH", "LOW", "NORMAL"),
    ("ORDINAL", "NONE"): ("POSITIVE", "NEGATIVE"),
    ("NOMINAL", "POS_NEG"): ("POSITIVE", "NEGATIVE"),
    ("NARRATIVE", "NONE"): (),
}


@st.composite
def ladder_inputs(draw):
    alphabet = draw(st.lists(st.sampled_from(WORDS), min_size=3, max_size=8, unique=True))
    phrase = st.lists(st.sampled_from(alphabet), min_size=1, max_size=2).map(" ".join)
    long_phrase = st.lists(st.sampled_from(alphabet), min_size=2, max_size=3).map(" ".join)
    domain = draw(st.sampled_from(["CONDITION", "CONDITION", "MEASUREMENT"]))
    n = draw(st.integers(1, 8))
    concepts = []
    for cid in range(1, n + 1):
        ancestors = sorted(draw(st.lists(st.sampled_from([*range(1, cid), DANGLING]), max_size=3, unique=True)))
        # A concept with ancestors has a longer label and no shared CUI, so
        # that its ancestors often decide.
        shared = [] if ancestors else draw(st.lists(st.sampled_from(SHARED_CUIS), max_size=1))
        concepts.append(
            Concept(
                concept_id=cid,
                label=draw(long_phrase if ancestors else phrase),
                synonyms=draw(st.lists(phrase, max_size=2)),
                used=draw(st.booleans()),
                semantic_type=draw(st.sampled_from(SEMANTIC_TYPES)),
                cuis=sorted({f"C{cid:07d}", *shared}),
                ancestors=ancestors,
            )
        )
    # Xrefs name the shared CUIs and the first concepts' codes and CUIs,
    # the ancestors most often, so that two ancestors often hit one class.
    codes = [f"c{cid}" for cid in range(1, min(n, 3) + 1)]
    cuis = st.sampled_from([*SHARED_CUIS, *(f"C{cid:07d}" for cid in range(1, min(n, 3) + 1))])
    ontologies = draw(st.lists(st.sampled_from(ONTOLOGIES), min_size=2, max_size=3, unique=True))
    classes = [
        Klass(
            curie=f"{ontology}:{k:07d}",
            label=draw(st.sampled_from([str, str.title, str.upper]))(draw(phrase)),
            synonyms=draw(st.lists(phrase, max_size=2)),
            definition=draw(st.one_of(st.none(), phrase)),
            codes=draw(st.lists(st.sampled_from(codes), max_size=2, unique=True)),
            cuis=draw(st.lists(cuis, max_size=2, unique=True)),
            deprecated=draw(st.sampled_from([False, False, False, True])),
        )
        for k, ontology in enumerate(draw(st.lists(st.sampled_from(ontologies), min_size=1, max_size=12)))
    ]
    configured = sorted({k.ontology for k in classes})
    rules = {
        sty: draw(
            st.one_of(
                st.none(),
                st.tuples(st.just("EXCLUDE"), st.sampled_from(["INJURY", "COMPLICATION"])),
                st.lists(st.sampled_from(ONTOLOGIES), min_size=1, max_size=2, unique=True),
            )
        )
        for sty in SEMANTIC_TYPES
    }
    reasons = ["CARRIER_STATUS", "NOT_YET_MAPPED"]
    if domain == "MEASUREMENT":
        reasons.append("UNSPECIFIED_SAMPLE")
    curation = []
    keys = st.tuples(st.integers(1, n), st.sampled_from(configured))
    for cid, ontology in draw(st.lists(keys, max_size=3, unique=True)):
        own = [k.curie for k in classes if k.ontology == ontology] + [f"{ontology}:9999999"]
        reason = draw(st.one_of(st.none(), st.sampled_from(reasons)))
        targets = [] if reason else draw(st.lists(st.sampled_from(own), min_size=1, max_size=2, unique=True))
        curation.append(CurationRow(cid, ontology, targets, reason, draw(st.sampled_from(["", "PMID:1", " "]))))
    case = Case(domain, concepts, classes, rules, curation)
    if domain == "MEASUREMENT":
        result_curies = st.sampled_from([k.curie for k in classes] + ["UBERON:0000999"])
        for concept in concepts:
            scale = draw(st.sampled_from([None, *sorted(SCALES)]))
            if scale is not None:
                case.scales[concept.concept_id] = scale
                outcomes = SCALES[scale]
                if outcomes:
                    chosen = draw(st.lists(st.sampled_from(outcomes), min_size=1, unique=True))
                    case.results[concept.concept_id] = [(o, draw(result_curies)) for o in chosen]
                    # A measurement of unknown result type takes no row: ``map`` rejects one.
                    aux = st.tuples(st.sampled_from(ONTOLOGIES), st.integers(1, 3))
                    case.aux[concept.concept_id] = [
                        (key, f"{key}:000000{i}") for key, i in draw(st.lists(aux, max_size=2))
                    ]
    return case


def _write_inputs(root: Path, case: Case) -> RunConfig:
    concepts = ["concept_id\tvocabulary\tconcept_code\tlabel\tsynonyms\tdomain\tused_in_practice\trecord_count"]
    concepts += [
        f"{c.concept_id}\tSNOMED\t{c.code}\t{c.label}\t{'|'.join(c.synonyms)}\t{case.domain}\t"
        f"{int(c.used)}\t{5 if c.used else 0}"
        for c in case.concepts
    ]
    (root / "concepts.tsv").write_text("\n".join(concepts) + "\n")
    ancestors = ["concept_id\tancestor_concept_id"]
    ancestors += [f"{c.concept_id}\t{a}" for c in case.concepts for a in c.ancestors]
    (root / "concept_ancestors.tsv").write_text("\n".join(ancestors) + "\n")
    (root / "ontology.jsonl").write_text(
        "".join(
            json.dumps(
                {
                    "curie": k.curie,
                    "ontology": k.ontology,
                    "label": k.label,
                    "definition": k.definition,
                    "synonyms": [{"text": s, "kind": "EXACT"} for s in k.synonyms],
                    "xrefs": [f"SNOMEDCT_US:{code}" for code in k.codes] + [f"UMLS:{cui}" for cui in k.cuis],
                    "deprecated": k.deprecated,
                }
            )
            + "\n"
            for k in case.classes
        )
    )
    (root / "MRCONSO.RRF").write_text(
        "".join(
            f"{cui}|ENG||||||||||SNOMEDCT_US|PT|{c.code}|x||||\n" for c in case.concepts for cui in c.cuis
        )
    )
    (root / "MRSTY.RRF").write_text(
        "".join(f"C{c.concept_id:07d}|T000|A1.2|{c.semantic_type}|AT000|256|\n" for c in case.concepts)
    )
    routing = ["semantic_type\taction\tvalue"]
    for sty, rule in case.rules.items():
        if isinstance(rule, tuple):
            routing.append(f"{sty}\tEXCLUDE\t{rule[1]}")
        elif rule is not None:
            routing.append(f"{sty}\tALLOW\t{'|'.join(rule)}")
    (root / "routing_policy.tsv").write_text("\n".join(routing) + "\n")
    curation = ["concept_id\tontology\tlogic\ttargets\tevidence\tunmapped_reason"]
    curation += [
        f"{row.concept_id}\t{row.ontology}\t\t{'|'.join(row.targets)}\t{row.evidence}\t{row.reason or ''}"
        for row in case.curation
    ]
    (root / "curation.tsv").write_text("\n".join(curation) + "\n")
    cfg = RunConfig(
        out_dir=str(root / "out"),
        concepts=str(root / "concepts.tsv"),
        ancestors=str(root / "concept_ancestors.tsv"),
        ontology_dumps=(str(root / "ontology.jsonl"),),
        umls_mrconso=str(root / "MRCONSO.RRF"),
        umls_mrsty=str(root / "MRSTY.RRF"),
        routing=str(root / "routing_policy.tsv"),
        curation=str(root / "curation.tsv"),
        domain=Domain(case.domain),
        jobs=1,
    )
    if case.domain == "MEASUREMENT":
        scales = ["concept_id\tscale\treference_range_kind"]
        scales += [f"{cid}\t{scale}\t{kind}" for cid, (scale, kind) in case.scales.items()]
        (root / "measurement_scales.tsv").write_text("\n".join(scales) + "\n")
        targets = ["concept_id\toutcome\tcurie\tnegated"]
        targets += [
            f"{cid}\t{outcome}\t{curie}\t{int(outcome in ('NORMAL', 'NEGATIVE'))}"
            for cid, rows in case.results.items()
            for outcome, curie in rows
        ]
        targets += [f"{cid}\t{key}\t{curie}\t0" for cid, rows in case.aux.items() for key, curie in rows]
        (root / "measurement_targets.tsv").write_text("\n".join(targets) + "\n")
        cfg.measurement_scales = str(root / "measurement_scales.tsv")
        cfg.measurement_targets = str(root / "measurement_targets.tsv")
    return cfg


def _run(case: Case):
    """``map``'s rows, in file order, and its cosine winners."""
    stage = pipeline.best_per_concept
    captured = []

    def recorded(*args, **kwargs):
        captured.append(stage(*args, **kwargs))
        return captured[-1]

    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(pipeline, "best_per_concept", recorded):
        root = Path(tmp)
        run_map(_write_inputs(root, case))
        lines = (root / "out" / "mappings.tsv").read_text().splitlines()
    header = lines[0].split("\t")
    rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
    winners = {key: (pair.curie, pair.score) for key, pair in winner_dict(captured[0]).items()}
    return rows, winners


@settings(
    derandomize=True,
    max_examples=200,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(ladder_inputs())
def test_map_rows_match_reference_ladder(case):
    rows, winners = _run(case)
    expected = reference_rows(case, winners)
    got = {(int(row["concept_id"]), row["ontology"], row["outcome"]): row for row in rows}
    assert len(got) == len(rows), "two rows for one (concept, ontology, outcome)"
    assert sorted(got) == sorted(expected)
    for key, want in expected.items():
        assert {name: got[key][name] for name in want} == want, key
