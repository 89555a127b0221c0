"""Generated inputs for every declared TSV, built from its column declaration.

``text(loader, rnd, columns)`` returns a file for one loader: its header
and rows follow the file's ``*_COLUMNS`` declaration in
``termbridge.ingest``, each field drawn from valid values of its column,
with corrupted fields, rows and headers mixed in, and some files
starting with a byte-order mark.  ``read(loader, path, workdir)`` calls
the loader on it, and ``verdict`` says what the call ends in: (exception
type, code, line, message).  ``umls_files(rnd, directory)`` writes an
MRCONSO.RRF and MRSTY.RRF pair the same way, which ``read("umls", ...)``
hands to ``load_umls``; its verdict on success holds the tables loaded.
``tests/test_fuzz.py`` and ``scripts/ingest_differential.py`` share them.
``read`` and ``verdict`` call the loaders in a way that every version of
``termbridge.ingest`` accepts (the prefix dictionary by keyword, read
from the vendored file by path), so they also run against another
source tree."""

from __future__ import annotations

import json

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

# Whole valid rows of the files whose columns constrain each other, one
# field per column; a row is drawn from these as often as not.
VALID_ROWS = {
    "mappings": [
        "1\tCONDITION\tHP\tUnmapped\tNONE\t\t\t\t\tEXCLUSION_REASON:None\tNone\t",
        "2\tCONDITION\tHP\tAutomatic One-to-One Concept\tCONCEPT\t\tHP:0003154\ta\t\tXREF_MATCH:SNOMED:1\t\t",
        "3\tMEASUREMENT\tHP\tManual One-to-Many Concept\tCONCEPT\tAND(0,NOT(1))\tHP:0003154|HP:0002920\ta|"
        "\t\tMANUAL_SOURCE:PMID:1\t\tNORMAL",
        "3000001\tCONDITION\tMONDO\tCosine Similarity One-to-One Concept\tCONCEPT\t\tMONDO:1\tb\t0.5"
        "\tCOSINE_SCORE:0.5000\t\t",
    ],
}

CORRUPT = ["", " ", "x", "-1", "1.5", "nan", "inf", "0", "é", "1 2", "HP:", ":1", "NONE", "|", "HP:1|HP:2"]


def _field(rnd, name: str, rate: float) -> str:
    if rnd.random() < rate:
        return rnd.choice(CORRUPT)
    return rnd.choice(VALID[name])


def text(loader: str, rnd, columns) -> str:
    """One file for ``loader`` from its declaration ``columns``."""
    names = [column[0] for column in columns]
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
        if loader in VALID_ROWS and rnd.random() < 0.5:
            valid = rnd.choice(VALID_ROWS[loader]).split("\t")
            fields = [rnd.choice(CORRUPT) if rnd.random() < rate else field for field in valid]
        roll = rnd.random() / (rate or 1)
        if roll < 0.01:
            fields.pop()
        elif roll < 0.02:
            fields.append(rnd.choice(CORRUPT))
        elif roll < 0.03:
            fields = []
        lines.append("\t".join(fields))
    return _bom(rnd) + "\n".join(lines) + "\n"


def _bom(rnd) -> str:
    """A byte-order mark, as spreadsheet tools write one, for one file in twenty."""
    return "\ufeff" if rnd.random() < 0.05 else ""


# The RRF fields ``load_umls`` reads, by index: MRCONSO's CUI, SAB and
# CODE, and MRSTY's CUI and STY; the other fields are filler.  The codes
# are the loaded concepts' (canonical prefix, code) pairs.
RRF_FIELDS = {
    "MRCONSO.RRF": (18, {0: "cui", 11: "sab", 13: "code"}),
    "MRSTY.RRF": (6, {0: "cui", 3: "sty"}),
}
RRF_VALID = {
    "cui": ["C0000001", "C0000002", "C0000003"],
    "sab": ["SNOMEDCT_US", "SNOMED", "LNC", "LOINC", "MSH", "snomed"],
    "code": ["11", " 12 ", "1-8", "D1"],
    "sty": ["Finding", "Disease or Syndrome", ""],
}
RRF_CODES = frozenset({("SNOMED", "11"), ("SNOMED", "12"), ("LOINC", "1-8")})
RRF_CORRUPT = ["", " ", "x", "C12", "c0000001", "X0000001", "BAD SAB", "HP:1", "é", "|"]


def _rrf(rnd, width: int, used: dict[int, str]) -> str:
    """One RRF file: rows of ``width`` fields, those in ``used`` drawn from
    their pool, with corrupted fields, short rows and blank lines mixed in."""
    rate = rnd.choice([0.0, 0.03, 0.15])
    lines = []
    for _ in range(rnd.randint(0, 6)):
        fields = [rnd.choice(RRF_VALID[used[i]]) if i in used else "x" for i in range(width)]
        fields = [rnd.choice(RRF_CORRUPT) if rnd.random() < rate else field for field in fields]
        roll = rnd.random() / (rate or 1)
        if roll < 0.02:
            fields = fields[:rnd.randint(1, width - 1)]
        elif roll < 0.03:
            fields = []
        lines.append("|".join(fields) + (rnd.choice(["|", "|", ""]) if fields else ""))
    newline = rnd.choice(["\n", "\r\n"])
    return _bom(rnd) + newline.join(lines) + newline


def umls_files(rnd, directory):
    """Write an MRCONSO.RRF and MRSTY.RRF pair to ``directory``; return the MRCONSO path."""
    for name, (width, used) in RRF_FIELDS.items():
        (directory / name).write_text(_rrf(rnd, width, used), encoding="utf-8", newline="")
    return directory / "MRCONSO.RRF"


CHILDREN = (
    "concept_id\tvocabulary\tconcept_code\tlabel\tsynonyms\tdomain\tused_in_practice\trecord_count\n"
    "1\tSNOMED\t11\tA\t\tCONDITION\t1\t3\n"
    "2\tRXNORM\t12\tB\t\tDRUG\t1\t3\n"
)


def _dictionary():
    """The prefix dictionary vendored with the package under test."""
    from importlib import resources

    from termbridge import ingest

    with resources.as_file(resources.files("termbridge.data").joinpath("source_code_vocab_map.csv")) as p:
        return ingest.load_code_dictionary(p)


def read(loader: str, path, workdir):
    """Call ``loader`` on ``path``; ``workdir`` holds any second file it needs."""
    from termbridge import ingest
    from termbridge.core import Domain

    if loader == "concepts":
        return ingest.load_concepts(path, domain=Domain.CONDITION, dictionary=_dictionary())
    if loader == "ancestors":
        children = workdir / "children.tsv"
        children.write_text(CHILDREN)
        return ingest.load_concepts(children, domain=Domain.CONDITION, ancestors_path=path, dictionary=_dictionary())
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
    if loader == "umls":
        return ingest.load_umls(path, workdir / "MRSTY.RRF", set(RRF_CODES), _dictionary())
    raise KeyError(loader)


def verdict(loader: str, path, workdir):
    """(exception type, code, line, message) of reading ``path``; ("ok",
    None, None, tables) when it loads, where tables is "" but for ``umls``,
    whose tables it gives as sorted JSON.  An exception other than the
    package's is returned by its type name, so a caller can tell it from a
    coded error."""
    from termbridge.errors import DataError, ParseError

    try:
        result = read(loader, path, workdir)
    except (ParseError, DataError) as exc:
        return type(exc).__name__, exc.code, getattr(exc, "line", None), exc.message
    except Exception as exc:  # noqa: BLE001 - reported, not hidden
        return type(exc).__name__, None, None, str(exc)
    if loader != "umls":
        return "ok", None, None, ""
    tables = [sorted(result.atoms_by_code.items()), sorted(result.sty_by_cui.items())]
    return "ok", None, None, json.dumps(tables)
