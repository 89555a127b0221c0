"""Acceptance criteria, one test per criterion.

Run with `pytest -s tests/test_acceptance.py` to see one PASS/FAIL line
per criterion (emitted by the conftest hook).
"""

import json
import math
import os
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import special

import termbridge
from termbridge.align import build_indexes, align_concept
from termbridge.core import Domain
from termbridge.evaluate import bucket_errors, partition_coverage, phers
from termbridge.pipeline import RunConfig, run_map
from termbridge.similarity import (
    SimilarityConfig,
    filter_pairs,
    fit,
)
from termbridge.stats import gamma_q, wilcoxon_rank_sum_one_sided

from fixtures import write_condition_fixture, write_measurement_fixture
from reference_coverage import site_table
from test_align import oracle_align, random_fixture
from test_similarity import (
    ScoredPair,
    best_pairs_of,
    corpus_of,
    dense_best_scores,
    doc,
    pair_scores,
    scipy_matrix,
    scored_like,
)
from test_stats import brute_force_rank_sum_p


def _read_rows(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split("\t")
    return [dict(zip(header, line.split("\t"))) for line in lines[1:]]


def test_criterion_1_worked_example_categories(tmp_path):
    """Golden fixture: category strings, targets, logic, and evidence kinds."""
    paths = write_condition_fixture(tmp_path / "in")
    cfg = RunConfig(
        out_dir=str(tmp_path / "out"),
        concepts=paths["concepts"],
        ancestors=paths["ancestors"],
        ontology_dumps=(paths["ontology"],),
        umls_mrconso=paths["mrconso"],
        umls_mrsty=paths["mrsty"],
        code_map=paths["code_map"],
        stopwords=paths["stopwords"],
        routing=paths["routing"],
        curation=paths["curation"],
        domain=Domain.CONDITION,
    )
    started = time.perf_counter()
    run_map(cfg)
    elapsed = time.perf_counter() - started

    rows = {(r["concept_id"], r["ontology"]): r for r in _read_rows(tmp_path / "out" / "mappings.tsv")}

    r = rows[("22945", "HP")]
    assert r["category"] == "Automatic One-to-One Concept"
    assert r["targets"] == "HP:0011095" and r["logic"] == ""
    kinds = {atom.split(":", 1)[0] for atom in r["evidence"].split("|")}
    assert kinds == {"XREF_MATCH", "CUI_MATCH", "SYNONYM_MATCH"}
    assert "SYNONYM_MATCH:overjet" in r["evidence"]

    r = rows[("22722", "HP")]
    assert r["category"] == "Automatic One-to-One Ancestor"
    assert r["targets"] == "HP:0010286" and r["level"] == "ANCESTOR"
    assert "XREF_MATCH:SNOMED:10890000" in r["evidence"]
    assert "CUI_MATCH:C0036093" in r["evidence"]

    r = rows[("78854", "MONDO")]
    assert r["category"] == "Automatic One-to-Many Concept"
    assert r["targets"] == "MONDO:0001414|MONDO:0008157"
    assert r["logic"] == "AND(0,1)"

    r = rows[("74185", "MONDO")]
    assert r["category"] == "Automatic One-to-Many Ancestor"
    assert r["targets"] == "MONDO:0005315|MONDO:0044989"
    assert r["logic"] == "AND(0,1)"

    r = rows[("4070954", "MONDO")]
    assert r["category"] == "Manual One-to-One Concept"
    assert r["targets"] == "MONDO:0008533"
    assert "MANUAL_SOURCE:PMID:21998774" in r["evidence"]

    r = rows[("439140", "HP")]
    assert r["category"] == "Manual One-to-Many Concept"
    assert r["targets"] == "HP:0003623|HP:0001901" and r["logic"] == "AND(0,1)"

    r = rows[("4147326", "HP")]
    assert r["category"] == "Cosine Similarity One-to-One Concept"
    assert r["targets"] == "HP:0033050"
    score = float(r["score"])
    assert 0.25 < score <= 1.0

    for cid, reason in (("432498", "Injury"), ("4056963", "Finding")):
        for ontology in ("HP", "MONDO"):
            r = rows[(cid, ontology)]
            assert r["category"] == "Unmapped"
            assert r["unmapped_reason"] == reason
            assert r["targets"] == ""

    assert elapsed < 1.0, f"mapping run took {elapsed:.2f}s"


def test_criterion_2_measurement_expansion(tmp_path):
    """Result typing and negation structure of the two worked examples."""
    paths = write_measurement_fixture(tmp_path / "in")
    cfg = RunConfig(
        out_dir=str(tmp_path / "out"),
        concepts=paths["concepts"],
        ontology_dumps=(paths["ontology"],),
        code_map=paths["code_map"],
        measurement_scales=paths["scales"],
        measurement_targets=paths["targets"],
        domain=Domain.MEASUREMENT,
    )
    started = time.perf_counter()
    run_map(cfg)
    elapsed = time.perf_counter() - started

    rows = {
        (r["concept_id"], r["outcome"]): r
        for r in _read_rows(tmp_path / "out" / "mappings.tsv")
        if r["ontology"] == "HP"
    }
    acth = {
        "HIGH": ("HP:0003154", ""),
        "LOW": ("HP:0002920", ""),
        "NORMAL": ("HP:0011043", "NOT(0)"),
    }
    for outcome, (target, logic) in acth.items():
        row = rows[("3000001", outcome)]
        assert row["targets"] == target
        assert row["logic"] == logic
    amphetamine = {"POSITIVE": ("HP:0500112", ""), "NEGATIVE": ("HP:0500112", "NOT(0)")}
    for outcome, (target, logic) in amphetamine.items():
        row = rows[("3000002", outcome)]
        assert row["targets"] == target
        assert row["logic"] == logic
    assert elapsed < 1.0, f"measurement run took {elapsed:.2f}s"


def test_criterion_3_coverage_arithmetic():
    """Published coverage percentages and error-bucket fractions."""
    started = time.perf_counter()

    site = site_table(("pooled", i, 100) for i in range(62_335))
    report = partition_coverage(set(range(57_663)), site)
    assert round(report.unweighted_coverage_pct, 1) == 92.5

    site = site_table(("pooled", i, 100) for i in range(4_588))
    report = partition_coverage(set(range(4_037)), site)
    assert round(report.unweighted_coverage_pct, 1) == 88.0
    assert abs(report.unweighted_coverage_pct - 87.9) <= 0.1 + 1e-9

    site_only = set(range(4_672))
    rows = site_table(("pooled", c, 100) for c in site_only)
    buckets = bucket_errors(site_only, set(range(367)), set(range(367, 4_598)), rows)
    assert len(buckets.recovered_newer_cdm.concept_ids) == 367
    assert len(buckets.purposefully_excluded.concept_ids) == 4_231
    assert len(buckets.truly_missing.concept_ids) == 74
    assert abs(100 * buckets.recovered_newer_cdm.fraction - 7.9) <= 0.1
    assert abs(100 * buckets.purposefully_excluded.fraction - 90.6) <= 0.1
    assert abs(100 * buckets.truly_missing.fraction - 1.6) <= 0.1

    assert time.perf_counter() - started < 1.0


def test_criterion_4_similarity_oracle():
    """Scores match dense brute force to 1e-9; norms; filter-size formula."""
    rng = random.Random(2718)
    for trial in range(4):
        docs = []
        n_concepts = rng.randint(20, 60)
        n_classes = rng.randint(20, 100)
        for i in range(1, n_concepts + 1):
            tokens = [f"t{rng.randint(0, 40)}" for _ in range(rng.randint(1, 6))]
            docs.append(doc(i, " ".join(tokens), tokens))
        for k in range(n_classes):
            tokens = [f"t{rng.randint(0, 40)}" for _ in range(rng.randint(1, 6))]
            docs.append(doc(f"HP:{k:07d}", " ".join(tokens), tokens))
        assert len(docs) <= 200

        model = fit(corpus_of(docs))
        matrix = scipy_matrix(model)
        norms = np.sqrt(np.asarray(matrix.multiply(matrix).sum(axis=1)).ravel())
        nonzero = norms > 0
        assert np.all(np.abs(norms[nonzero] - 1.0) <= 1e-9)

        got = scored_like(model, pair_scores(model))
        oracle = dense_best_scores(docs)
        for key, score in oracle.items():
            if score > 0:
                assert abs(got[key] - score) <= 1e-9
            else:
                assert key not in got

    for trial in range(1000):
        cfg = SimilarityConfig(
            score_floor=rng.choice([0.0, 0.1, 0.25, 0.5]),
            keep_fraction=rng.choice([0.25, 0.5, 0.75, 1.0]),
        )
        pairs = [
            ScoredPair(i, f"HP:{i:07d}", round(rng.random(), 6))
            for i in range(rng.randint(0, 40))
        ]
        kept = filter_pairs(best_pairs_of(pairs), cfg)
        survivors = sum(1 for p in pairs if p.score >= cfg.score_floor)
        assert len(kept) == math.ceil(cfg.keep_fraction * survivors)


def test_criterion_5_exact_aligner_oracle():
    """Candidate sets equal the nested-loop oracle at 10^3 x 10^3 scale."""
    started = time.perf_counter()
    rng = random.Random(1234)
    concepts, classes = random_fixture(rng, 1000, 1000, vocab_size=400)
    indexes = build_indexes(classes)
    for c in concepts:
        assert align_concept(c, indexes) == oracle_align(c, classes)
    elapsed = time.perf_counter() - started
    assert elapsed < 30.0, f"oracle comparison took {elapsed:.1f}s"


def test_criterion_6_statistics_oracles():
    """Gamma-Q grid, exact rank-sum enumeration, and the 0.05 example."""
    for df in range(1, 31):
        for x2 in range(0, 101):
            mine = gamma_q(df / 2.0, x2 / 2.0)
            ref = float(special.gammaincc(df / 2.0, x2 / 2.0))
            assert math.isclose(mine, ref, rel_tol=1e-8, abs_tol=1e-10)

    assert wilcoxon_rank_sum_one_sided([5, 6, 7], [1, 2, 3]).p_value == 0.05

    rng = random.Random(55)
    for n1 in range(1, 7):
        for n2 in range(1, 13 - n1):
            cases = [rng.randint(0, 4) for _ in range(n1)]
            controls = [rng.randint(0, 4) for _ in range(n2)]
            result = wilcoxon_rank_sum_one_sided(cases, controls)
            assert result.exact
            assert abs(result.p_value - brute_force_rank_sum_p(cases, controls)) <= 1e-12


def test_criterion_7_phers_properties():
    """Standardization invariants and the [-1, 0, 1] example."""
    result = phers(
        {"p1": {"A"}, "p2": {"A", "B"}, "p3": {"A", "B", "C"}},
        {"A": 1.0, "B": 1.0, "C": 1.0},
    )
    assert [s.standardized for s in result.scores] == pytest.approx([-1.0, 0.0, 1.0])

    rng = random.Random(6)
    for _ in range(20):
        n = rng.randint(3, 50)
        weights = {f"H{i}": rng.uniform(0.0, 5.0) for i in range(25)}
        patients = {
            f"p{j:03d}": {f"H{rng.randrange(25)}" for _ in range(rng.randint(0, 10))}
            for j in range(n)
        }
        try:
            base = phers(patients, weights)
        except Exception:
            continue
        z = [s.standardized for s in base.scores]
        assert abs(statistics.fmean(z)) <= 1e-9
        assert abs(statistics.stdev(z) - 1.0) <= 1e-9
        a = rng.uniform(0.2, 5.0)
        scaled = phers(patients, {k: a * w for k, w in weights.items()})
        for s_base, s_scaled in zip(base.scores, scaled.scores):
            assert abs(s_scaled.standardized - s_base.standardized) <= 1e-9


def _write_scale_fixture(root, n_concepts=10_000, n_classes=50_000, vocab=30_000, seed=7):
    rng = random.Random(seed)
    root = Path(root)
    root.mkdir(parents=True, exist_ok=True)
    words = [f"tok{i:05d}" for i in range(vocab)]

    def phrase(lo, hi):
        return " ".join(rng.choice(words) for _ in range(rng.randint(lo, hi)))

    lines = [
        "concept_id\tvocabulary\tconcept_code\tlabel\tsynonyms\tdomain\tused_in_practice\trecord_count"
    ]
    for cid in range(1, n_concepts + 1):
        synonyms = "|".join(phrase(2, 4) for _ in range(rng.randint(0, 2)))
        used = rng.random() < 0.7
        count = rng.randint(1, 500) if used else 0
        lines.append(
            f"{cid}\tSNOMED\tc{cid}\t{phrase(3, 6)}\t{synonyms}\tCONDITION\t{int(used)}\t{count}"
        )
    (root / "concepts.tsv").write_text("\n".join(lines) + "\n")

    out = []
    for k in range(n_classes):
        curie = f"HP:{k:07d}" if k % 2 == 0 else f"MONDO:{k:07d}"
        obj = {"curie": curie, "ontology": curie.split(":")[0], "label": phrase(2, 5)}
        if rng.random() < 0.3:
            obj["synonyms"] = [{"text": phrase(2, 4), "kind": "EXACT"}]
        if rng.random() < 0.05:
            obj["xrefs"] = [f"SNOMEDCT_US:c{rng.randint(1, n_concepts)}"]
        out.append(json.dumps(obj))
    (root / "ontology.jsonl").write_text("\n".join(out) + "\n")
    return root


def _run_map_subprocess(fixture_dir, out_dir, jobs):
    argv = [
        sys.executable,
        "-m",
        "termbridge.cli",
        "map",
        "--concepts", str(fixture_dir / "concepts.tsv"),
        "--ontology", str(fixture_dir / "ontology.jsonl"),
        "--jobs", str(jobs),
        "--domain", "CONDITION",
        "--out", str(out_dir),
    ]
    src = str(Path(termbridge.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    started = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, env=env)
    _, status, rusage = os.wait4(proc.pid, 0)
    elapsed = time.perf_counter() - started
    assert os.waitstatus_to_exitcode(status) == 0, proc.stderr.read().decode()
    return elapsed, rusage.ru_maxrss


def test_criterion_8_determinism_and_scale(tmp_path):
    """Byte-identical outputs across worker counts at 10^4 x 5*10^4 scale,
    under 60 s wall and 2 GB peak per run."""
    fixture = _write_scale_fixture(tmp_path / "in")
    elapsed_1, rss_1 = _run_map_subprocess(fixture, tmp_path / "jobs1", jobs=1)
    elapsed_8, rss_8 = _run_map_subprocess(fixture, tmp_path / "jobs8", jobs=8)

    for name in ("mappings.tsv", "summary.json"):
        a = (tmp_path / "jobs1" / name).read_bytes()
        b = (tmp_path / "jobs8" / name).read_bytes()
        assert a == b, f"{name} differs between --jobs 1 and --jobs 8"

    assert elapsed_1 < 60.0, f"--jobs 1 run took {elapsed_1:.1f}s"
    assert elapsed_8 < 60.0, f"--jobs 8 run took {elapsed_8:.1f}s"
    two_gib_kb = 2 * 1024 * 1024
    assert rss_1 < two_gib_kb, f"--jobs 1 peak RSS {rss_1 / 1024:.0f} MiB"
    assert rss_8 < two_gib_kb, f"--jobs 8 peak RSS {rss_8 / 1024:.0f} MiB"


@pytest.mark.skipif(
    os.environ.get("TERMBRIDGE_PAPER_SCALE") != "1",
    reason="paper scale is opt-in: set TERMBRIDGE_PAPER_SCALE=1 (about 20 s and 0.3 GiB)",
)
def test_paper_scale_map(tmp_path):
    """One map run at 10^5 concepts x 5*10^4 classes (criterion 8's
    generator), under criterion 8's 60 s wall and 2 GiB peak."""
    fixture = _write_scale_fixture(tmp_path / "in", n_concepts=100_000)
    elapsed, rss = _run_map_subprocess(fixture, tmp_path / "out", jobs=1)
    assert elapsed < 60.0, f"paper-scale run took {elapsed:.1f}s"
    assert rss < 2 * 1024 * 1024, f"paper-scale peak RSS {rss / 1024:.0f} MiB"
