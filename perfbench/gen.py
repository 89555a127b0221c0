"""Seeded input generators for the three benchmark workloads.

Every generator draws from one ``random.Random(seed)`` and writes plain
text, so the same seed always gives the same bytes.  Each writes the files
the program reads under ``<root>/program`` and, for the correctness
checks only, the ground truth it decided under ``<root>/expect.json``.

``map-cosine`` repeats the draws of the criterion-8 scale fixture in
``tests/test_acceptance.py``: at ``SIZES["map-cosine"]["criterion8"]`` and
seed 7 its ``concepts.tsv`` and ``ontology.jsonl`` are that fixture byte
for byte (``selftest.py`` checks the digests below).
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

# Sizes per workload.  "bench" is what timed runs use; "tiny" runs every
# workload through the same code path in a second or two (selftest.py).
SIZES = {
    "map-cosine": {
        "bench": dict(n_concepts=2_500, n_classes=12_500, vocab=7_500),
        "tiny": dict(n_concepts=120, n_classes=600, vocab=400),
        "criterion8": dict(n_concepts=10_000, n_classes=50_000, vocab=30_000),
    },
    "map-ladder": {
        "bench": dict(
            n_condition=2_000, n_measurement=1_000, n_classes=3_400,
            n_mrconso=37_000, vocab=50_000,
        ),
        "tiny": dict(
            n_condition=150, n_measurement=80, n_classes=300, n_mrconso=1_500, vocab=3_000,
        ),
    },
    "evaluate": {
        "bench": dict(n_concepts=16_000, per_site=4_000, n_patients=10_000, n_terms=2_700),
        "tiny": dict(n_concepts=600, per_site=150, n_patients=300, n_terms=80),
    },
}

# sha256 of the criterion-8 fixture files (seed 7, criterion8 size).
CRITERION8_SHA256 = {
    "concepts.tsv": "58650a0b44227d7d5bf7c865c26da8baeb8de908d6d672c8be155975efcad71e",
    "ontology.jsonl": "903223e2626eeebf2a4f5d67f1c7d29f5e557adac2d46f5273d76a84919fe516",
}

CONCEPT_HEADER = (
    "concept_id\tvocabulary\tconcept_code\tlabel\tsynonyms\tdomain\tused_in_practice\trecord_count"
)
MAPPINGS_HEADER = (
    "concept_id\tdomain\tontology\tcategory\tlevel\tlogic\ttargets\ttarget_labels\tscore\t"
    "evidence\tunmapped_reason\toutcome"
)

# Display strings the program uses for unmapped reasons (core.REASON_DISPLAY).
REASON_DISPLAY = {
    "NONE_FOUND": "None",
    "NOT_YET_MAPPED": "Not Yet Mapped",
    "INJURY": "Injury",
    "COMPLICATION": "Complication",
    "FINDING": "Finding",
    "CARRIER_STATUS": "Carrier Status",
    "UNSPECIFIED_SAMPLE": "Unspecified Sample",
    "NOT_MAPPED_TEST_TYPE": "Not Mapped Test Type",
}


def generator_digest() -> str:
    """Digest of this file, so cached inputs never outlive a generator change."""
    return hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:16]


def _write(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def _lines(rows) -> str:
    return "\n".join(rows) + "\n"


# --- map-cosine ------------------------------------------------------------


def write_map_cosine(root, seed, n_concepts, n_classes, vocab):
    """Concepts and HP/MONDO classes with random labels from one token pool.

    No UMLS, ancestors, routing or curation: cosine scoring dominates.
    """
    rng = random.Random(seed)
    root = Path(root)
    program = root / "program"
    words = [f"tok{i:05d}" for i in range(vocab)]

    def phrase(lo, hi):
        return " ".join(rng.choice(words) for _ in range(rng.randint(lo, hi)))

    lines = [CONCEPT_HEADER]
    for cid in range(1, n_concepts + 1):
        synonyms = "|".join(phrase(2, 4) for _ in range(rng.randint(0, 2)))
        used = rng.random() < 0.7
        count = rng.randint(1, 500) if used else 0
        lines.append(
            f"{cid}\tSNOMED\tc{cid}\t{phrase(3, 6)}\t{synonyms}\tCONDITION\t{int(used)}\t{count}"
        )
    _write(program / "concepts.tsv", _lines(lines))

    out = []
    for k in range(n_classes):
        curie = f"HP:{k:07d}" if k % 2 == 0 else f"MONDO:{k:07d}"
        obj = {"curie": curie, "ontology": curie.split(":")[0], "label": phrase(2, 5)}
        if rng.random() < 0.3:
            obj["synonyms"] = [{"text": phrase(2, 4), "kind": "EXACT"}]
        if rng.random() < 0.05:
            obj["xrefs"] = [f"SNOMEDCT_US:c{rng.randint(1, n_concepts)}"]
        out.append(json.dumps(obj))
    _write(program / "ontology.jsonl", _lines(out))

    expect = {"runs": {"CONDITION": {"ontologies": ["HP", "MONDO"]}}}
    _write(root / "expect.json", json.dumps(expect, sort_keys=True) + "\n")


# --- map-ladder ------------------------------------------------------------

ROUTING_RULES = [
    ("Disease or Syndrome", "ALLOW", "MONDO|HP"),
    ("Finding", "ALLOW", "HP"),
    ("Sign or Symptom", "ALLOW", "HP"),
    ("Congenital Abnormality", "ALLOW", "MONDO"),
    ("Laboratory Procedure", "ALLOW", "HP|UBERON"),
    ("Injury or Poisoning", "EXCLUDE", "INJURY"),
    ("Activity", "EXCLUDE", "FINDING"),
]
_EXCLUDE = {sty: reason for sty, action, reason in ROUTING_RULES if action == "EXCLUDE"}
_CONDITION_TYPES = [
    ("Disease or Syndrome", 0.55),
    ("Finding", 0.18),
    ("Sign or Symptom", 0.14),
    ("Congenital Abnormality", 0.06),
    ("Injury or Poisoning", 0.05),
    ("Activity", 0.02),
]
_MEASUREMENT_TYPES = [
    ("Laboratory Procedure", 0.7),
    ("Clinical Attribute", 0.26),
    ("Activity", 0.04),
]
# Types of MRCONSO distractor CUIs: no routing rule names them.
_OTHER_TYPES = [
    "Pharmacologic Substance",
    "Organic Chemical",
    "Body Part, Organ, or Organ Component",
    "Therapeutic or Preventive Procedure",
    "Gene or Genome",
    "Organism",
]
_DISTRACTOR_SABS = ["MSH", "ICD10CM", "MEDCIN", "NCI", "RXNORM", "MDR"]
_CURATION_REASONS = ["NOT_YET_MAPPED", "FINDING", "COMPLICATION", "CARRIER_STATUS"]


def _pick(rng, weighted):
    x = rng.random()
    for value, weight in weighted:
        x -= weight
        if x < 0:
            return value
    return weighted[-1][0]


def _mrconso_line(cui, sab, code, text):
    fields = [""] * 18
    fields[0] = cui
    fields[1] = "ENG"
    fields[11] = sab
    fields[12] = "PT"
    fields[13] = code
    fields[14] = text
    return "|".join(fields) + "|"


def _hierarchy(rng, ids, max_depth, root_prob):
    """Transitive ancestor lists over ``ids`` (parents precede children)."""
    ancestors = {}
    open_ids = []  # ids whose depth is below max_depth
    for cid in ids:
        if not open_ids or rng.random() < root_prob:
            chain = []
        else:
            parent = open_ids[-1 - min(int(rng.expovariate(1 / 40)), len(open_ids) - 1)]
            chain = [parent] + ancestors[parent]
        ancestors[cid] = chain
        if len(chain) < max_depth:
            open_ids.append(cid)
    return ancestors


def write_map_ladder(root, seed, n_condition, n_measurement, n_classes, n_mrconso, vocab):
    """One shared condition + measurement extract with every ladder input.

    Classes match concepts through labels, synonyms, code xrefs and UMLS
    CUIs; MRCONSO is mostly distractor rows; a routing policy with ALLOW
    and EXCLUDE rules, ~3% curation, a 12-level transitive hierarchy and
    NUMERIC / POS_NEG / derived-counterpart / NARRATIVE measurements.
    """
    rng = random.Random(seed)
    root = Path(root)
    program = root / "program"
    words = [f"w{i:06d}" for i in range(vocab)]

    def phrase(lo, hi):
        return " ".join(rng.choice(words) for _ in range(rng.randint(lo, hi)))

    condition_ids = list(range(1, n_condition + 1))
    measurement_ids = list(range(n_condition + 1, n_condition + n_measurement + 1))

    # Concepts, their codes, CUIs and semantic types.
    concepts = {}
    mrconso = []
    cui_type = {}
    next_cui = 1
    for cid in condition_ids + measurement_ids:
        condition = cid <= n_condition
        vocabulary, sab = ("SNOMED", "SNOMEDCT_US") if condition else ("LOINC", "LNC")
        code = f"s{cid}" if condition else f"{cid}-{cid % 10}"
        label = phrase(2, 5)
        synonyms = [phrase(2, 4) for _ in range(rng.randint(0, 2))]
        used = rng.random() < 0.7
        count = rng.randint(1, 500) if used else 0
        sty = _pick(rng, _CONDITION_TYPES if condition else _MEASUREMENT_TYPES)
        cuis = []
        if rng.random() < 0.8:
            for _ in range(2 if rng.random() < 0.05 else 1):
                cui = f"C{next_cui:07d}"
                next_cui += 1
                cuis.append(cui)
                cui_type[cui] = sty
                mrconso.append(_mrconso_line(cui, sab, code, label))
        concepts[cid] = dict(
            vocabulary=vocabulary, code=code, label=label, synonyms=synonyms,
            used=used, count=count, sty=sty if cuis else None, cuis=cuis,
        )

    # Measurement typing and result targets (HP result rows, UBERON/CHEBI aux).
    n_hp = int(n_classes * 0.45)
    n_mondo = int(n_classes * 0.40)
    n_uberon = n_classes - n_hp - n_mondo
    hp = [f"HP:{k:07d}" for k in range(n_hp)]
    mondo = [f"MONDO:{k:07d}" for k in range(n_mondo)]
    uberon = [f"UBERON:{k:07d}" for k in range(n_uberon)]
    scales = ["concept_id\tscale\treference_range_kind"]
    targets = ["concept_id\toutcome\tcurie\tnegated"]
    numeric = []
    expansion = {}  # ontologies the measurement expansion claims; "*" for all
    for cid in measurement_ids:
        kind = _pick(
            rng,
            [("NUMERIC", 0.4), ("POS_NEG", 0.25), ("SCREEN", 0.05), ("NARRATIVE", 0.15), ("NONE", 0.15)],
        )
        rows = []
        if kind == "NUMERIC":
            scales.append(f"{cid}\tQUANTITATIVE\tNUMERIC")
            rows = [("LOW", 0), ("HIGH", 0), ("NORMAL", 1)]
            numeric.append(cid)
        elif kind == "POS_NEG":
            scales.append(f"{cid}\tORDINAL\tPOS_NEG")
            rows = _pick(
                rng,
                [([("POSITIVE", 0)], 0.5), ([("NEGATIVE", 1)], 0.2), ([("POSITIVE", 0), ("NEGATIVE", 1)], 0.3)],
            )
        elif kind == "SCREEN":
            concepts[cid]["synonyms"].append(phrase(1, 2) + " screen")
            rows = [("POSITIVE", 0)]
        elif kind == "NARRATIVE":
            scales.append(f"{cid}\tNARRATIVE\tNONE")
        for outcome, negated in rows:
            targets.append(f"{cid}\t{outcome}\t{rng.choice(hp)}\t{negated}")
        if not rows:
            expansion[cid] = ["*"]
            continue
        expansion[cid] = ["HP"]
        if rng.random() < 0.5:
            expansion[cid].append("UBERON")
            for curie in rng.sample(uberon, rng.randint(1, 2)):
                targets.append(f"{cid}\tUBERON\t{curie}\t0")
        if rng.random() < 0.1:
            expansion[cid].append("CHEBI")
            targets.append(f"{cid}\tCHEBI\tCHEBI:{rng.randint(1, 99999)}\t0")
    _write(program / "measurement_scales.tsv", _lines(scales))
    _write(program / "measurement_targets.tsv", _lines(targets))

    lines = [CONCEPT_HEADER]
    for cid, c in concepts.items():
        domain = "CONDITION" if cid <= n_condition else "MEASUREMENT"
        lines.append(
            f"{cid}\t{c['vocabulary']}\t{c['code']}\t{c['label']}\t{'|'.join(c['synonyms'])}"
            f"\t{domain}\t{int(c['used'])}\t{c['count']}"
        )
    _write(program / "concepts.tsv", _lines(lines))

    # Transitive hierarchy: deep for conditions, shallow for measurements.
    anc_rows = ["concept_id\tancestor_concept_id"]
    for ids, depth, root_prob in ((condition_ids, 12, 0.01), (measurement_ids, 4, 0.1)):
        for cid, chain in _hierarchy(rng, ids, depth, root_prob).items():
            anc_rows.extend(f"{cid}\t{a}" for a in chain)
    _write(program / "concept_ancestors.tsv", _lines(anc_rows))

    # Ontology classes; some share a label, synonym, code xref or CUI.
    concept_cuis = [cui for c in concepts.values() for cui in c["cuis"]]
    dumps = {"hp": [], "mondo": [], "uberon": []}
    for curies, ontology, pool in (
        (hp, "HP", condition_ids + measurement_ids),
        (mondo, "MONDO", condition_ids),
        (uberon, "UBERON", measurement_ids),
    ):
        for curie in curies:
            obj = {"curie": curie, "ontology": ontology, "label": phrase(2, 5)}
            x = rng.random()
            if x < 0.10:
                obj["label"] = concepts[rng.choice(pool)]["label"]
            elif x < 0.14:
                source = concepts[rng.choice(pool)]
                if source["synonyms"]:
                    obj["synonyms"] = [{"text": source["synonyms"][0], "kind": "EXACT"}]
            if "synonyms" not in obj and rng.random() < 0.25:
                obj["synonyms"] = [{"text": phrase(2, 4), "kind": "RELATED"}]
            if rng.random() < 0.1:
                obj["definition"] = phrase(4, 8)
            xrefs = []
            if rng.random() < 0.05:
                source = concepts[rng.choice(pool)]
                prefix = "SNOMEDCT_US" if source["vocabulary"] == "SNOMED" else "LNC"
                xrefs.append(f"{prefix}:{source['code']}")
            if rng.random() < 0.08:
                xrefs.append(f"UMLS:{rng.choice(concept_cuis)}")
            if xrefs:
                obj["xrefs"] = xrefs
            if rng.random() < 0.02:
                obj["deprecated"] = True
            dumps[ontology.lower()].append(json.dumps(obj))
    for name, rows in dumps.items():
        _write(program / f"{name}.jsonl", _lines(rows))

    # MRCONSO distractors: codes no concept carries, CUIs shared ~3 ways.
    n_distractor = max(0, n_mrconso - len(mrconso))
    n_distractor_cuis = max(1, n_distractor // 3)
    first = next_cui
    for k in range(n_distractor):
        cui = f"C{first + rng.randrange(n_distractor_cuis):07d}"
        cui_type.setdefault(cui, rng.choice(_OTHER_TYPES))
        mrconso.append(
            _mrconso_line(cui, rng.choice(_DISTRACTOR_SABS), f"D{k:07d}", phrase(2, 4))
        )
    # Interleave concept atoms with distractors as a real release would.
    rng.shuffle(mrconso)
    _write(program / "MRCONSO.RRF", _lines(mrconso))
    _write(
        program / "MRSTY.RRF",
        _lines(f"{cui}|T000|A1.2|{cui_type[cui]}|AT000|256|" for cui in sorted(cui_type)),
    )

    _write(
        program / "routing_policy.tsv",
        _lines(["semantic_type\taction\tvalue"] + ["\t".join(r) for r in ROUTING_RULES]),
    )

    # ~3% curation, one row per curated concept, in a file per domain.
    curated = {}
    for domain, ids, choices in (
        ("condition", condition_ids, (("HP", hp), ("MONDO", mondo))),
        ("measurement", measurement_ids, (("HP", hp), ("UBERON", uberon))),
    ):
        rows = ["concept_id\tontology\tlogic\ttargets\tevidence\tunmapped_reason"]
        for cid in sorted(rng.sample(ids, max(1, len(ids) * 3 // 100))):
            ontology, pool = rng.choice(choices)
            x = rng.random()
            if domain == "measurement" and x < 0.1:
                rows.append(f"{cid}\tHP\t\t\t\tUNSPECIFIED_SAMPLE")
                curated[cid] = {"ontology": "HP", "reason": "UNSPECIFIED_SAMPLE"}
            elif domain == "condition" and x < 0.15:
                reason = rng.choice(_CURATION_REASONS)
                rows.append(f"{cid}\t{ontology}\t\t\tcurator note\t{reason}")
                curated[cid] = {"ontology": ontology, "reason": reason}
            else:
                picked = sorted(rng.sample(pool, rng.randint(1, 2)))
                rows.append(f"{cid}\t{ontology}\t\t{'|'.join(picked)}\tPMID:{rng.randint(1, 10**8)}\t")
                curated[cid] = {"ontology": ontology, "targets": picked}
        _write(program / f"curation_{domain}.tsv", _lines(rows))

    excluded = {
        cid: REASON_DISPLAY[_EXCLUDE[c["sty"]]]
        for cid, c in concepts.items()
        if c["sty"] in _EXCLUDE
    }
    expect = {
        "runs": {
            "CONDITION": {"ontologies": ["HP", "MONDO"]},
            "MEASUREMENT": {"ontologies": ["HP", "UBERON"]},
        },
        "curated": {str(cid): row for cid, row in sorted(curated.items())},
        "excluded": {str(cid): reason for cid, reason in sorted(excluded.items())},
        "numeric": numeric,
        "expansion": {str(cid): onts for cid, onts in sorted(expansion.items())},
    }
    _write(root / "expect.json", json.dumps(expect, sort_keys=True) + "\n")


# --- evaluate --------------------------------------------------------------

_CATEGORIES = [
    ("Automatic One-to-One Concept", 0.45),
    ("Automatic One-to-Many Concept", 0.15),
    ("Cosine Similarity One-to-One Concept", 0.25),
    ("Manual One-to-One Concept", 0.15),
]


def write_evaluate(root, seed, n_concepts, per_site, n_patients, n_terms, n_sites=40):
    """A mapping set, per-site prevalence, id lists and a PheRS cohort.

    35% of concepts are unmapped, some records are one-to-many, site
    counts are heavy-tailed (most fall under the 100 floor) and the site
    universe is 20% larger than the mapping set.
    """
    rng = random.Random(seed)
    root = Path(root)
    program = root / "program"
    words = [f"v{i:05d}" for i in range(20_000)]

    def phrase(lo, hi):
        return " ".join(rng.choice(words) for _ in range(rng.randint(lo, hi)))

    concept_ids = list(range(1, n_concepts + 1))
    lines = [CONCEPT_HEADER]
    for cid in concept_ids:
        used = rng.random() < 0.7
        lines.append(
            f"{cid}\tSNOMED\tc{cid}\t{phrase(2, 5)}\t\tCONDITION\t{int(used)}"
            f"\t{rng.randint(1, 500) if used else 0}"
        )
    _write(program / "concepts.tsv", _lines(lines))

    class_labels = {}

    def target(ontology):
        curie = f"{ontology}:{rng.randrange(10 * n_concepts):07d}"
        class_labels.setdefault(curie, phrase(2, 4))
        return curie

    rows = [MAPPINGS_HEADER]
    mapped = set()
    sssom = []  # (set_id, object_id) per exported row, in file order
    for cid in concept_ids:
        unmapped_concept = rng.random() < 0.35
        ontologies_mapped = []
        if not unmapped_concept:
            ontologies_mapped = [o for o in ("HP", "MONDO") if rng.random() < 0.8] or ["HP"]
        for ontology in ("HP", "MONDO"):
            if ontology not in ontologies_mapped:
                reason = "None" if rng.random() < 0.7 else "Not Yet Mapped"
                payload = "NOT YET MAPPED" if reason == "Not Yet Mapped" else reason
                rows.append(
                    f"{cid}\tCONDITION\t{ontology}\tUnmapped\tNONE\t\t\t\t\t"
                    f"EXCLUSION_REASON:{payload}\t{reason}\t"
                )
                continue
            category = _pick(rng, _CATEGORIES)
            n = rng.randint(2, 3) if "Many" in category else 1
            curies = sorted({target(ontology) for _ in range(n)})
            if len(curies) < 2 and "Many" in category:
                category = "Automatic One-to-One Concept"
            logic = "AND(" + ",".join(str(i) for i in range(len(curies))) + ")" if len(curies) > 1 else ""
            score, evidence = "", f"XREF_MATCH:SNOMED:c{cid}"
            if category.startswith("Cosine"):
                score = f"{rng.uniform(0.25, 1.0):.12g}"
                evidence = f"COSINE_SCORE:{float(score):.4f}"
            elif category.startswith("Manual"):
                evidence = f"MANUAL_SOURCE:PMID:{rng.randint(1, 10**8)}"
            labels = "|".join(class_labels[c] for c in curies)
            rows.append(
                f"{cid}\tCONDITION\t{ontology}\t{category}\tCONCEPT\t{logic}\t{'|'.join(curies)}"
                f"\t{labels}\t{score}\t{evidence}\t\t"
            )
            mapped.add(cid)
            sssom.extend((f"{cid}:{ontology}", c) for c in curies)
    _write(program / "mappings.tsv", _lines(rows))

    # Site universe: 90% of the mapping set plus 30% new ids (1.2x in all).
    universe = rng.sample(concept_ids, n_concepts * 9 // 10)
    universe += list(range(n_concepts + 1, n_concepts + 1 + n_concepts * 3 // 10))
    prevalence = ["site_id\tconcept_id\trecord_count"]
    site_sets = {}
    for s in range(n_sites):
        site = f"site{s:02d}"
        chosen = rng.sample(universe, per_site)
        site_sets[site] = chosen
        for cid in chosen:
            prevalence.append(f"{site}\t{cid}\t{int(rng.paretovariate(1.2) * 20)}")
    _write(program / "prevalence.tsv", _lines(prevalence))

    site_concepts = set().union(*map(set, site_sets.values()))
    site_only = sorted(site_concepts - mapped)
    newer = sorted(set(rng.sample(site_only, len(site_only) // 3)) | set(rng.sample(concept_ids, 50)))
    excluded = sorted(set(rng.sample(site_only, len(site_only) // 4)) | set(rng.sample(concept_ids, 50)))
    _write(program / "newer_cdm.txt", _lines(str(c) for c in newer))
    _write(program / "excluded.txt", _lines(str(c) for c in excluded))

    terms = [f"HP:{k:07d}" for k in range(n_terms)]
    risky = terms[: n_terms // 10]
    _write(
        program / "weights.tsv",
        _lines(["hpo_curie\tweight"] + [f"{t}\t{rng.uniform(0.1, 5.0):.4f}" for t in terms]),
    )
    cohort = ["patient_id\tgroup"]
    phenotypes = ["patient_id\thpo_curie"]
    for p in range(n_patients):
        pid = f"P{p:06d}"
        case = rng.random() < 0.2
        cohort.append(f"{pid}\t{'CASE' if case else 'CONTROL'}")
        for _ in range(rng.randint(1, 15)):
            pool = risky if case and rng.random() < 0.3 else terms
            phenotypes.append(f"{pid}\t{rng.choice(pool)}")
    _write(program / "cohort.tsv", _lines(cohort))
    _write(program / "patient_phenotypes.tsv", _lines(phenotypes))

    expect = {
        "overlap": len(site_concepts & mapped),
        "site_only": len(site_only),
        "mapping_only": len(mapped - site_concepts),
        "per_site": {
            site: {"concepts": len(set(ids)), "covered": len(set(ids) & mapped)}
            for site, ids in sorted(site_sets.items())
        },
        "pairwise_rows": n_sites * (n_sites - 1) // 2,
        "patients": n_patients,
        "sssom": [list(row) for row in sssom],
    }
    _write(root / "expect.json", json.dumps(expect, sort_keys=True) + "\n")


GENERATORS = {
    "map-cosine": write_map_cosine,
    "map-ladder": write_map_ladder,
    "evaluate": write_evaluate,
}


def generate(workload: str, root, seed: int, size: str = "bench") -> None:
    GENERATORS[workload](root, seed, **SIZES[workload][size])
