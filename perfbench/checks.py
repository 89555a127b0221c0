"""Correctness checks run on every benchmark iteration.

Each check returns a list of problems; an iteration with any problem
counts as a failed operation.  The checks read only the program's output
files and what the generator decided (``expect.json`` and the generated
inputs), never the program's own modules.
"""

from __future__ import annotations

import json
import statistics
from collections import Counter, defaultdict
from pathlib import Path

from gen import MAPPINGS_HEADER, REASON_DISPLAY
from workloads import commands, output_files

TAU = 0.25  # map runs use the default --tau
MAX_PROBLEMS = 20


def compare_outputs(workload: str, out: Path, reference: Path) -> list[str]:
    """Byte identity of every output file against a reference iteration."""
    problems = []
    for path in output_files(workload, out):
        name = path.relative_to(out)
        if not path.is_file():
            problems.append(f"missing output {name}")
        elif path.read_bytes() != (reference / name).read_bytes():
            problems.append(f"{name} differs from the reference")
    return problems


def _read_tsv(path: Path, header: str):
    with open(path, encoding="utf-8") as fh:
        first = fh.readline().rstrip("\n")
        if first != header:
            raise ValueError(f"{path.name}: unexpected header")
        return [line.rstrip("\n").split("\t") for line in fh if line.strip()]


class Checker:
    """Semantic checks for one workload's outputs, prepared once per run."""

    def __init__(self, workload: str, inputs: Path):
        self.workload = workload
        self.inputs = Path(inputs)
        self.expect = json.loads((self.inputs / "expect.json").read_text())
        self.concepts = {}
        if workload != "evaluate":
            with open(self.inputs / "program" / "concepts.tsv", encoding="utf-8") as fh:
                fh.readline()
                for line in fh:
                    f = line.rstrip("\n").split("\t")
                    self.concepts[int(f[0])] = (f[5], f[6] == "1")

    def check(self, out: Path, reference: Path | None = None) -> list[str]:
        out = Path(out)
        problems = compare_outputs(self.workload, out, reference) if reference else []
        try:
            if self.workload == "evaluate":
                problems += self._check_evaluate(out)
            else:
                for argv, out_dir, _ in commands(self.workload, Path("."), out):
                    domain = argv[argv.index("--domain") + 1]
                    problems += self._check_map(domain, out_dir)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        return problems[:MAX_PROBLEMS]

    # --- map ----------------------------------------------------------------

    def _check_map(self, domain: str, out_dir: Path) -> list[str]:
        problems = []
        rows = _read_tsv(out_dir / "mappings.tsv", MAPPINGS_HEADER)
        summary = json.loads((out_dir / "summary.json").read_text())
        ontologies = self.expect["runs"][domain]["ontologies"]
        if summary["ontologies"] != ontologies:
            problems.append(f"{domain}: ontologies {summary['ontologies']} != {ontologies}")

        non_result = Counter()
        result_onts = defaultdict(set)
        by_pair = {}
        totals = defaultdict(lambda: defaultdict(lambda: {"mapped": 0, "unmapped": 0, "evidence": 0}))
        for f in rows:
            cid, ontology, category, outcome = int(f[0]), f[2], f[3], f[11]
            if self.concepts.get(cid, ("",))[0] != domain:
                problems.append(f"{domain}: row for concept {cid} outside the domain")
                continue
            if outcome:
                result_onts[cid].add(ontology)
            else:
                non_result[(cid, ontology)] += 1
                by_pair[(cid, ontology)] = f
            wave = "used_in_practice" if self.concepts[cid][1] else "not_used_in_practice"
            tally = totals[ontology][wave]
            if category == "Unmapped":
                tally["unmapped"] += 1
            else:
                tally["mapped"] += 1
                tally["evidence"] += sum(
                    1 for atom in f[9].split("|") if atom and not atom.startswith("EXCLUSION_REASON:")
                )
            if category.startswith("Cosine") and not (TAU <= float(f[8]) <= 1.0):
                problems.append(f"{domain}: cosine score {f[8]} outside [{TAU}, 1] for {cid}")

        # One non-result row per (concept, configured ontology); measurement
        # result rows may stand in for it on their own ontology.
        for cid, (concept_domain, _) in self.concepts.items():
            if concept_domain != domain:
                continue
            for ontology in ontologies:
                n = non_result[(cid, ontology)]
                if n > 1 or (n == 0 and ontology not in result_onts[cid]):
                    problems.append(f"{domain}: concept {cid}/{ontology} has {n} non-result rows")

        # summary.json lists both waves for every ontology that has a row.
        tallied = {
            o: {w: dict(totals[o][w]) for w in ("used_in_practice", "not_used_in_practice")}
            for o in list(totals)
        }
        if summary["totals"] != tallied:
            problems.append(f"{domain}: summary.json totals do not match mappings.tsv")

        if "curated" in self.expect:
            problems += self._check_ladder(domain, ontologies, by_pair, rows)
        return problems

    def _check_ladder(self, domain, ontologies, by_pair, rows) -> list[str]:
        problems = []
        curated = {int(k): v for k, v in self.expect["curated"].items()}
        expansion = {int(k): set(v) for k, v in self.expect["expansion"].items()}

        def in_domain(cid):
            return self.concepts[cid][0] == domain

        for cid, row in curated.items():
            if not in_domain(cid):
                continue
            if row.get("reason") == "UNSPECIFIED_SAMPLE":
                want = {(o, "Unmapped", "", REASON_DISPLAY["UNSPECIFIED_SAMPLE"]) for o in ontologies}
                got = {(o, by_pair[(cid, o)][3], by_pair[(cid, o)][6], by_pair[(cid, o)][10])
                       for o in ontologies if (cid, o) in by_pair}
                if got != want:
                    problems.append(f"{domain}: unspecified-sample concept {cid} not unmapped")
                continue
            f = by_pair.get((cid, row["ontology"]))
            if row.get("targets"):
                if f is None or not f[3].startswith("Manual") or f[6] != "|".join(row["targets"]):
                    problems.append(f"{domain}: curated concept {cid}/{row['ontology']} not Manual")
            elif f is None or f[3] != "Unmapped" or f[10] != REASON_DISPLAY[row["reason"]]:
                problems.append(f"{domain}: curated reason for {cid}/{row['ontology']} not applied")

        for key, reason in self.expect["excluded"].items():
            cid = int(key)
            if not in_domain(cid) or curated.get(cid, {}).get("reason") == "UNSPECIFIED_SAMPLE":
                continue
            covered = expansion.get(cid, set())
            for ontology in ontologies:
                if ontology == curated.get(cid, {}).get("ontology") or "*" in covered or ontology in covered:
                    continue
                f = by_pair.get((cid, ontology))
                if f is None or f[3] != "Unmapped" or f[10] != reason:
                    problems.append(f"{domain}: excluded concept {cid}/{ontology} not Unmapped/{reason}")

        if domain == "MEASUREMENT":
            outcomes = defaultdict(dict)
            for f in rows:
                if f[11]:
                    outcomes[int(f[0])][f[11]] = (f[2], f[3], f[5])
            for cid in self.expect["numeric"]:
                if curated.get(cid, {}).get("ontology") == "HP" or curated.get(cid, {}).get("reason"):
                    continue
                got = outcomes.get(cid, {})
                want = {
                    "LOW": ("HP", "Manual One-to-One Concept", ""),
                    "HIGH": ("HP", "Manual One-to-One Concept", ""),
                    "NORMAL": ("HP", "Manual One-to-One Concept", "NOT(0)"),
                }
                if got != want:
                    problems.append(f"MEASUREMENT: numeric concept {cid} result rows {got}")
        return problems

    # --- evaluate -----------------------------------------------------------

    def _check_evaluate(self, out: Path) -> list[str]:
        problems = []
        e = self.expect
        cov = json.loads((out / "coverage" / "coverage.json").read_text())
        for key in ("overlap", "site_only", "mapping_only"):
            if cov["counts"][key] != e[key]:
                problems.append(f"coverage {key} {cov['counts'][key]} != {e[key]}")
        per_site = {s["site_id"]: {"concepts": s["concepts"], "covered": s["covered"]} for s in cov["per_site"]}
        if per_site != e["per_site"]:
            problems.append("coverage per-site counts differ from the generated sets")

        pairwise = _read_tsv(
            out / "coverage" / "pairwise.tsv",
            "site_a\tsite_b\tchi2\tdf\tp_value\tadjusted_alpha\tsignificant",
        )
        pairs = {(r[0], r[1]) for r in pairwise}
        if len(pairwise) != e["pairwise_rows"] or len(pairs) != e["pairwise_rows"]:
            problems.append(f"pairwise.tsv has {len(pairwise)} rows, want {e['pairwise_rows']}")

        phers_rows = _read_tsv(out / "phers" / "phers.tsv", "patient_id\traw\tstandardized\tgroup")
        z = [float(r[2]) for r in phers_rows]
        if len(z) != e["patients"]:
            problems.append(f"phers.tsv has {len(z)} patients, want {e['patients']}")
        elif abs(statistics.fmean(z)) > 1e-9 or abs(statistics.stdev(z) - 1.0) > 1e-9:
            problems.append("standardized scores do not have mean 0 and sd 1")

        sssom = _read_tsv(
            out / "sssom" / "mappings_sssom.tsv",
            "subject_id\tsubject_label\tobject_id\tobject_label\tmapping_justification\tmapping_set_id\tcomment",
        )
        if [[r[5], r[2]] for r in sssom] != e["sssom"]:
            problems.append("SSSOM rows are not one per target of each mapped row")
        return problems
