"""Plain nested-loop reference for every record ``map`` writes.

Given the raw inputs of one run, it rebuilds each (concept, ontology)
record of ``mappings.tsv`` with the precedence ladder spelled out:

1. a curation row for the ontology;
2. the records measurement expansion claims for it;
3. concept-level exact hits in a routed ontology;
4. the union of every loaded ancestor's exact hits, only when the
   concept itself has none in that ontology;
5. the cosine winner, taken from the run's own ``best_per_concept``
   (``test_cosine_oracle`` checks those winners against a reference);
6. unmapped, with the routing exclusion, else NOT YET MAPPED for a
   concept not used in practice, else none found.

Exact hits come from a loop over every class, comparing codes, CUIs and
normalized strings directly, with no index.  Each record comes out as the
row fields it must have, keyed by (concept id, ontology, outcome).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from termbridge.lexical import normalize_string

KIND_ORDER = (
    "XREF_MATCH",
    "CUI_MATCH",
    "LABEL_MATCH",
    "SYNONYM_MATCH",
    "DEFINITION_MATCH",
    "COSINE_SCORE",
    "MANUAL_SOURCE",
    "EXCLUSION_REASON",
)

# reason -> (unmapped_reason column, evidence payload)
REASONS = {
    "NONE_FOUND": ("None", "None"),
    "NOT_YET_MAPPED": ("Not Yet Mapped", "NOT YET MAPPED"),
    "INJURY": ("Injury", "Injury"),
    "COMPLICATION": ("Complication", "Complication"),
    "CARRIER_STATUS": ("Carrier Status", "Carrier Status"),
    "UNSPECIFIED_SAMPLE": ("Unspecified Sample", "Unspecified Sample"),
    "NOT_MAPPED_TEST_TYPE": ("Not Mapped Test Type", "Not Mapped Test Type"),
}

NEGATED = ("NORMAL", "NEGATIVE")


@dataclass
class Concept:
    concept_id: int
    label: str
    synonyms: list[str]
    used: bool
    semantic_type: str
    cuis: list[str]  # every CUI whose MRCONSO row carries this concept's code
    ancestors: list[int]  # as listed in the ancestor file, loaded or not

    @property
    def code(self) -> str:
        return f"c{self.concept_id}"


@dataclass
class Klass:
    curie: str
    label: str
    synonyms: list[str]
    definition: str | None
    codes: list[str]  # concept codes among the xrefs (SNOMEDCT_US:<code>)
    cuis: list[str]  # CUIs among the xrefs (UMLS:<cui>)
    deprecated: bool

    @property
    def ontology(self) -> str:
        return self.curie.split(":")[0]


@dataclass
class CurationRow:
    concept_id: int
    ontology: str
    targets: list[str]
    reason: str | None
    evidence: str


@dataclass
class Case:
    domain: str
    concepts: list[Concept]
    classes: list[Klass]
    rules: dict  # semantic type -> None | ("EXCLUDE", reason) | [ontology, ...]
    curation: list[CurationRow]
    scales: dict = field(default_factory=dict)  # concept id -> (scale, reference range kind)
    results: dict = field(default_factory=dict)  # concept id -> [(outcome, curie)]
    aux: dict = field(default_factory=dict)  # concept id -> [(ontology key, curie)]

    @property
    def configured(self) -> list[str]:
        return sorted({k.ontology for k in self.classes})


def render_evidence(atoms) -> str:
    ordered = sorted(set(atoms), key=lambda atom: (KIND_ORDER.index(atom[0]), atom[1]))
    return "|".join(f"{kind}:{payload}" for kind, payload in ordered)


def _row(category, level, targets, evidence, logic="", score="", reason="", outcome=""):
    return {
        "category": category,
        "level": level,
        "logic": logic,
        "targets": "|".join(targets),
        "score": score,
        "evidence": render_evidence(evidence),
        "unmapped_reason": reason,
        "outcome": outcome,
    }


def _unmapped(reason, extra=()):
    column, payload = REASONS[reason]
    return _row("Unmapped", "NONE", [], [("EXCLUSION_REASON", payload), *extra], reason=column)


def _and(n):
    return f"AND({','.join(str(i) for i in range(n))})" if n >= 2 else ""


def route(case: Case, concept: Concept):
    """(allowed ontologies, exclusion reason or None)."""
    rule = case.rules.get(concept.semantic_type)
    if rule is None:
        return set(case.configured), None
    if isinstance(rule, tuple):
        return set(), rule[1]
    return set(rule) & set(case.configured), None


def atoms_between(concept: Concept, klass: Klass) -> set:
    """Every evidence atom that ties ``concept`` to ``klass``."""
    atoms = set()
    if concept.code in klass.codes:
        atoms.add(("XREF_MATCH", f"SNOMED:{concept.code}"))
    for cui in concept.cuis:
        if cui in klass.cuis:
            atoms.add(("CUI_MATCH", cui))
    named = {normalize_string(text) for text in [klass.label, *klass.synonyms]}
    defined = normalize_string(klass.definition) if klass.definition else None
    texts = [("LABEL_MATCH", concept.label)] + [("SYNONYM_MATCH", s) for s in concept.synonyms]
    for kind, text in texts:
        key = normalize_string(text)
        if not key:
            continue
        if key in named:
            atoms.add((kind, key))
        elif key == defined:
            atoms.add(("DEFINITION_MATCH", key))
    return atoms


def exact_hits(case: Case, concept: Concept, ontology: str) -> dict[str, set]:
    """CURIE -> atoms for every live class of ``ontology`` the concept hits."""
    hits = {}
    for klass in case.classes:
        if klass.deprecated or klass.ontology != ontology:
            continue
        atoms = atoms_between(concept, klass)
        if atoms:
            hits[klass.curie] = atoms
    return hits


def _auto(hits: dict, level: str):
    targets = sorted(hits)
    size = "One-to-One" if len(targets) == 1 else "One-to-Many"
    level_name = "Concept" if level == "CONCEPT" else "Ancestor"
    evidence = [atom for atoms in hits.values() for atom in atoms]
    return _row(f"Automatic {size} {level_name}", level, targets, evidence, logic=_and(len(targets)))


def _curated(row: CurationRow):
    if row.reason is not None:
        extra = [("MANUAL_SOURCE", row.evidence)] if row.evidence.strip() else []
        return _unmapped(row.reason, extra)
    size = "One-to-One" if len(row.targets) == 1 else "One-to-Many"
    payload = row.evidence.strip() or "manual curation"
    return _row(
        f"Manual {size} Concept", "CONCEPT", row.targets, [("MANUAL_SOURCE", payload)],
        logic=_and(len(row.targets)),
    )


def _result_type(case: Case, concept: Concept) -> str:
    scale, kind = case.scales.get(concept.concept_id, ("UNKNOWN", "NONE"))
    if kind == "NUMERIC" or (kind == "NONE" and scale == "QUANTITATIVE"):
        return "NORMAL_LOW_HIGH"
    if kind == "POS_NEG" or scale == "ORDINAL":
        return "POSITIVE_NEGATIVE"
    return "UNKNOWN"


def claims(case: Case, concept: Concept) -> dict[str, list]:
    """Ontology -> [(outcome, row)] that measurement expansion claims."""
    cid = concept.concept_id
    unspecified = any(
        row.concept_id == cid and row.reason == "UNSPECIFIED_SAMPLE" for row in case.curation
    )
    if unspecified or _result_type(case, concept) == "UNKNOWN":
        reason = "UNSPECIFIED_SAMPLE" if unspecified else "NOT_MAPPED_TEST_TYPE"
        return {ontology: [("", _unmapped(reason))] for ontology in case.configured}
    results = dict(case.results.get(cid, []))
    if "POSITIVE" in results and "NEGATIVE" not in results:
        results["NEGATIVE"] = results["POSITIVE"]
    if "NEGATIVE" in results and "POSITIVE" not in results:
        results["POSITIVE"] = results["NEGATIVE"]
    out: dict[str, list] = {}
    for outcome, curie in results.items():
        row = _row(
            "Manual One-to-One Concept", "CONCEPT", [curie],
            [("MANUAL_SOURCE", f"result {outcome} assignment")],
            logic="NOT(0)" if outcome in NEGATED else "", outcome=outcome,
        )
        out.setdefault(curie.split(":")[0].upper(), []).append((outcome, row))
    for ontology in sorted({key.upper() for key, _ in case.aux.get(cid, [])}):
        curies = sorted({curie for key, curie in case.aux[cid] if key.upper() == ontology})
        size = "One-to-One" if len(curies) == 1 else "One-to-Many"
        row = _row(
            f"Manual {size} Concept", "CONCEPT", curies,
            [("MANUAL_SOURCE", "measurement annotation")], logic=_and(len(curies)),
        )
        out.setdefault(ontology, []).append(("", row))
    return out


def reference_rows(case: Case, winners) -> dict:
    """{(concept id, ontology, outcome): row fields} for one run.

    ``winners`` maps (concept id, ontology) -> (CURIE, score), the run's
    own cosine winners.
    """
    loaded = {c.concept_id: c for c in case.concepts}
    rows = {}
    for concept in case.concepts:
        cid = concept.concept_id
        allowed, exclusion = route(case, concept)
        curated = {row.ontology: row for row in case.curation if row.concept_id == cid}
        claimed = claims(case, concept) if case.domain == "MEASUREMENT" else {}
        for ontology in case.configured:
            if ontology in curated:
                rows[(cid, ontology, "")] = _curated(curated[ontology])
                continue
            if ontology in claimed:
                continue
            hits, level = {}, "CONCEPT"
            if ontology in allowed:
                hits = exact_hits(case, concept, ontology)
                if not hits:
                    level = "ANCESTOR"
                    for ancestor_id in concept.ancestors:
                        if ancestor_id in loaded:
                            for curie, atoms in exact_hits(case, loaded[ancestor_id], ontology).items():
                                hits.setdefault(curie, set()).update(atoms)
            if hits:
                rows[(cid, ontology, "")] = _auto(hits, level)
            elif (cid, ontology) in winners:
                curie, score = winners[(cid, ontology)]
                rows[(cid, ontology, "")] = _row(
                    "Cosine Similarity One-to-One Concept", "CONCEPT", [curie],
                    [("COSINE_SCORE", f"{score:.4f}")], score=f"{score:.12g}",
                )
            elif exclusion is not None:
                rows[(cid, ontology, "")] = _unmapped(exclusion)
            else:
                rows[(cid, ontology, "")] = _unmapped("NONE_FOUND" if concept.used else "NOT_YET_MAPPED")
        for ontology, claimed_rows in claimed.items():
            if ontology not in curated:
                for outcome, row in claimed_rows:
                    rows[(cid, ontology, outcome)] = row
    return rows
