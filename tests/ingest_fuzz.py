"""Generated inputs for every declared TSV, built from its column declaration.

``text(loader, rnd, columns)`` returns a file for one loader: its header
and rows follow the file's ``*_COLUMNS`` declaration in
``termbridge.ingest``, each field drawn from valid values of its column,
with corrupted fields, rows and headers mixed in.  ``read(loader, path,
workdir)`` calls the loader on it, and ``verdict`` says what the call
ends in: (exception type, code, line, message).  ``tests/test_fuzz.py``
and ``scripts/ingest_differential.py`` share them.  ``read`` and
``verdict`` use only loader names that every version of
``termbridge.ingest`` has, so they also run against another source tree."""

from __future__ import annotations

# Loader -> (its declaration in termbridge.ingest, whether the header is optional).
DECLARATIONS = {
    "concepts": ("CONCEPT_COLUMNS", False),
    "ancestors": ("ANCESTOR_COLUMNS", True),
    "routing": ("ROUTING_COLUMNS", False),
    "curation": ("CURATION_COLUMNS", False),
    "scales": ("SCALE_COLUMNS", False),
    "targets": ("TARGET_COLUMNS", False),
    "mappings": ("MAPPING_COLUMNS", False),
    "prevalence": ("PREVALENCE_COLUMNS", False),
    "weights": ("WEIGHT_COLUMNS", False),
    "patients": ("PATIENT_COLUMNS", False),
    "cohort": ("COHORT_COLUMNS", False),
}

# Valid values of each declared column, by name.  Small pools, so rows
# repeat keys and the checks across rows are met too.
VALID = {
    "concept_id": ["1", "2", "3", "3000001", " 4 "],
    "vocabulary": ["SNOMED", "LOINC", "snomedct_us"],
    "concept_code": ["11", "12", " 13 "],
    "label": ["Anemia", "Low iron", "Hemoglobin"],
    "synonyms": ["", "iron|anaemia", "a||b"],
    "domain": ["CONDITION", "DRUG", "MEASUREMENT"],
    "used_in_practice": ["0", "1"],
    "record_count": ["0", "3", "100", "544618"],
    "ancestor_concept_id": ["1", "2", "3"],
    "semantic_type": ["T047", "T033"],
    "action": ["ALLOW", "exclude", "Allow"],
    "value": ["HP", "HP|UBERON", "INJURY", "Carrier Status"],
    "ontology": ["HP", "uberon", "CHEBI"],
    "logic": ["", "AND(0,1)", "OR(0,1)"],
    "targets": ["", "HP:0003154", "HP:0003154|HP:0002920"],
    "evidence": ["", "PMID:1"],
    "unmapped_reason": ["", "INJURY", "not mapped test type", "UNSPECIFIED_SAMPLE"],
    "scale": ["ORDINAL", "quantitative", "NARRATIVE"],
    "reference_range_kind": ["NUMERIC", "pos_neg", "NONE"],
    "outcome": ["HIGH", "low", "NORMAL", "POSITIVE", "NEGATIVE", "UBERON", "CHEBI"],
    "curie": ["HP:0003154", "HP:0002920", "UBERON:0001969"],
    "negated": ["0", "1", ""],
    "category": ["Unmapped", "Automatic One-to-One Concept", "Manual One-to-Many Concept"],
    "level": ["CONCEPT", "NONE"],
    "target_labels": ["", "a|b"],
    "score": ["", "0.5"],
    "site_id": ["a", "b", "c"],
    "hpo_curie": ["HP:1", "HP:2", "HP:3"],
    "weight": ["1.5", "0", "2", "1e3"],
    "patient_id": ["p1", "p2", "p3", "p4"],
    "group": ["CASE", "control", " Case "],
}

CORRUPT = ["", " ", "x", "-1", "1.5", "nan", "inf", "0", "é", "1 2", "HP:", ":1", "NONE", "|"]


def _field(rnd, name: str, rate: float) -> str:
    if rnd.random() < rate:
        return rnd.choice(CORRUPT)
    return rnd.choice(VALID[name])


def text(loader: str, rnd, columns) -> str:
    """One file for ``loader`` from its declaration ``columns``."""
    names = [name for name, _ in columns]
    optional = DECLARATIONS[loader][1]
    rate = rnd.choice([0.0, 0.03, 0.15])  # the share of corrupted fields
    lines = []
    roll = rnd.random()
    if roll < 0.02:
        return ""
    if roll < 0.05:
        header = names[:]
        rnd.choice([lambda h: h.pop(), lambda h: h.append("extra"), lambda h: h.reverse()])(header)
        lines.append("\t".join(header))
    elif not optional or roll < 0.5:
        lines.append("\t".join(names))
    for _ in range(rnd.randint(0, 6)):
        fields = [_field(rnd, name, rate) for name in names]
        roll = rnd.random() / (rate or 1)
        if roll < 0.01:
            fields.pop()
        elif roll < 0.02:
            fields.append(rnd.choice(CORRUPT))
        elif roll < 0.03:
            fields = []
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"


CHILDREN = (
    "concept_id\tvocabulary\tconcept_code\tlabel\tsynonyms\tdomain\tused_in_practice\trecord_count\n"
    "1\tSNOMED\t11\tA\t\tCONDITION\t1\t3\n"
    "2\tRXNORM\t12\tB\t\tDRUG\t1\t3\n"
)


def read(loader: str, path, workdir):
    """Call ``loader`` on ``path``; ``workdir`` holds any second file it needs."""
    from termbridge import ingest
    from termbridge.core import Domain

    if loader == "concepts":
        return ingest.load_concepts(path, Domain.CONDITION)
    if loader == "ancestors":
        children = workdir / "children.tsv"
        children.write_text(CHILDREN)
        return ingest.load_concepts(children, Domain.CONDITION, path)
    if loader == "routing":
        return ingest.load_routing_policy(path, ["HP"])
    if loader == "curation":
        return ingest.load_curation(path, {"HP", "CHEBI"}, {"HP:0003154"})
    if loader == "scales":
        return ingest.load_measurement_scales(path)
    if loader == "targets":
        return ingest.load_measurement_targets(path)
    if loader == "mappings":
        return list(ingest.load_mappings(path))
    if loader == "prevalence":
        return ingest.load_prevalence(path)
    if loader == "weights":
        return ingest.load_weights(path)
    if loader == "patients":
        return list(ingest.load_patient_phenotypes(path))
    if loader == "cohort":
        return ingest.load_cohort(path)
    raise KeyError(loader)


def verdict(loader: str, path, workdir):
    """(exception type, code, line, message) of reading ``path``; ("ok",
    None, None, "") when it loads.  An exception other than the package's
    is returned by its type name, so a caller can tell it from a coded
    error."""
    from termbridge.errors import DataError, ParseError

    try:
        read(loader, path, workdir)
    except (ParseError, DataError) as exc:
        return type(exc).__name__, exc.code, getattr(exc, "line", None), exc.message
    except Exception as exc:  # noqa: BLE001 - reported, not hidden
        return type(exc).__name__, None, None, str(exc)
    return "ok", None, None, ""
