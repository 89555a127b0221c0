"""Command-line surface.

Subcommands: ``map`` (build mapping records), ``coverage`` (cross-site
generalizability), ``phers`` (phenotype-score utility), ``export-sssom``
(interchange flattening).  A JSON config file may supply any flag value;
explicit flags override the file.

Exit codes: 0 success, 1 configuration error, 2 parse error (a malformed
input: the file, the line and, for a TSV field, its column), 3
data-integrity error, 4 internal error (a fault in termbridge itself:
``error[INTERNAL]`` with the exception's type and message, then its
traceback).

Importing this module loads only ``core`` and ``errors``; a command loads
``pipeline`` (with ``ingest``, which reads every input file, and
``lexical``) when it dispatches, then
``map`` loads ``align``, ``similarity`` and ``synthesize``, and
``coverage`` and ``phers`` load ``evaluate`` and ``stats``.
"""

from __future__ import annotations

import argparse
import importlib
import json
import sys
from pathlib import Path

from .core import Domain
from .errors import ConfigError, DataError, ParseError

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_PARSE = 2
EXIT_DATA = 3
EXIT_INTERNAL = 4

_PIPELINE_NAMES = ("RunConfig", "run_map", "run_coverage", "run_phers", "export_sssom")


def __getattr__(name):
    # The pipeline loads when a command first looks these up, and each is then
    # kept here, where perfbench's tracer finds and replaces it.
    if name not in _PIPELINE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import pipeline

    return globals().setdefault(name, getattr(pipeline, name))


# Attribute lookups on the module reach ``__getattr__``; bare names do not.  It
# is imported by name: run through runpy (``python -m cProfile -m
# termbridge.cli``), this code's namespace is not the module.
_cli = importlib.import_module("termbridge.cli")


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are configuration errors (exit 1), not argparse's 2.
    def error(self, message):
        raise ConfigError("USAGE", message)


def _build_parser() -> _Parser:
    # --help shows the docstring (absent under -OO) without its last paragraph, on imports.
    parser = _Parser(prog="termbridge", description=(__doc__ or "").rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON file supplying flag values (flags override)")
    common.add_argument("--out", required=False, help="output directory")

    p_map = sub.add_parser("map", parents=[common], help="run the mapping pipeline")
    p_map.add_argument("--concepts", help="concept table (TSV)")
    p_map.add_argument("--ancestors", help="concept ancestor pairs (TSV)")
    p_map.add_argument(
        "--ontology", action="append", default=None, help="ontology dump (JSONL); repeatable"
    )
    p_map.add_argument("--umls-mrconso", help="MRCONSO.RRF")
    p_map.add_argument("--umls-mrsty", help="MRSTY.RRF")
    p_map.add_argument("--code-map", help="prefix normalization dictionary (CSV)")
    p_map.add_argument("--stopwords", help="stopword list, one per line")
    p_map.add_argument("--routing", help="semantic-type routing policy (TSV)")
    p_map.add_argument("--curation", help="manual curation rows (TSV)")
    p_map.add_argument("--measurement-scales", help="measurement scale table (TSV)")
    p_map.add_argument("--measurement-targets", help="measurement result/auxiliary targets (TSV)")
    p_map.add_argument("--domain", choices=[d.value for d in Domain])
    p_map.add_argument("--tau", type=float, help="cosine score floor (default 0.25)")
    p_map.add_argument("--rho", type=float, help="kept fraction of survivors (default 0.75)")
    p_map.add_argument("--jobs", type=int, help="accepted and ignored; runs are single-threaded")

    p_cov = sub.add_parser("coverage", parents=[common], help="cross-site coverage evaluation")
    p_cov.add_argument("--mappings", help="mappings.tsv from the map command")
    p_cov.add_argument("--prevalence", help="per-site concept frequencies (TSV)")
    p_cov.add_argument("--newer-cdm", help="concept ids recovered in a newer CDM, one per line")
    p_cov.add_argument("--excluded", help="purposefully excluded concept ids, one per line")
    p_cov.add_argument("--alpha", type=float, help="family-wise alpha, strictly between 0 and 1 (default 0.05)")

    p_phe = sub.add_parser("phers", parents=[common], help="phenotype risk scores + rank test")
    p_phe.add_argument("--weights", help="phenotype weight table (TSV)")
    p_phe.add_argument("--patients", help="patient phenotype rows (TSV)")
    p_phe.add_argument("--cohort", help="patient group assignments (TSV)")

    p_sss = sub.add_parser("export-sssom", parents=[common], help="flatten mappings to interchange TSV")
    p_sss.add_argument("--mappings", help="mappings.tsv from the map command")
    p_sss.add_argument("--concepts", help="concept table used for the run")
    p_sss.add_argument("--sssom-out", help="output file path (default <out>/mappings_sssom.tsv)")

    return parser


# Keys whose values are file paths; RunConfig takes them under the same names.
_PATH_KEYS = (
    "concepts",
    "ancestors",
    "umls_mrconso",
    "umls_mrsty",
    "code_map",
    "stopwords",
    "routing",
    "curation",
    "measurement_scales",
    "measurement_targets",
    "mappings",
    "prevalence",
    "newer_cdm",
    "excluded",
    "weights",
    "patients",
    "cohort",
)

_CONFIG_KEYS = {"out", "ontology", "domain", "tau", "rho", "jobs", "alpha", "sssom_out", *_PATH_KEYS}


def _merge_config(args: argparse.Namespace) -> dict:
    """File values fill in flags left unset; flags always win."""
    merged = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigError("NO_SUCH_FILE", f"--config: {exc}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError("BAD_CONFIG", f"--config: {exc}") from None
        if not isinstance(file_values, dict):
            raise ConfigError("BAD_CONFIG", "--config must contain a JSON object")
        for key, value in file_values.items():
            key = key.replace("-", "_")
            if key not in _CONFIG_KEYS:
                raise ConfigError("BAD_CONFIG", f"unknown config key {key!r}")
            merged[key] = value
    for key in _CONFIG_KEYS:
        value = getattr(args, key, None)
        if value is not None:
            merged[key] = value
    return merged


def _run_config(values: dict):
    """A RunConfig from merged values; a value of the wrong type is BAD_CONFIG."""
    if not values.get("out"):
        raise ConfigError("MISSING_INPUT", "--out is required")
    ontology = values.get("ontology") or ()
    if isinstance(ontology, str):
        ontology = (ontology,)
    paths = {key: values.get(key) for key in _PATH_KEYS}
    try:
        named = [values["out"], values.get("sssom_out"), *ontology, *paths.values()]
        if not all(isinstance(p, str) for p in named if p is not None):
            raise TypeError("paths must be strings")
        return _cli.RunConfig(
            out_dir=values["out"],
            ontology_dumps=tuple(ontology),
            domain=Domain(values["domain"]) if values.get("domain") else Domain.CONDITION,
            tau=float(values.get("tau", 0.25)),
            rho=float(values.get("rho", 0.75)),
            jobs=int(values.get("jobs", 0)),
            alpha=float(values.get("alpha", 0.05)),
            **paths,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError("BAD_CONFIG", f"bad config value: {exc}") from None


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        values = _merge_config(args)
        cfg = _run_config(values)
        if args.command == "map":
            out = _cli.run_map(cfg)
            print(f"wrote {out / 'mappings.tsv'} and {out / 'summary.json'}")
        elif args.command == "coverage":
            out = _cli.run_coverage(cfg)
            print(f"wrote {out / 'coverage.json'}, {out / 'pairwise.tsv'}, {out / 'buckets.tsv'}")
        elif args.command == "phers":
            out = _cli.run_phers(cfg)
            print(f"wrote {out / 'phers.tsv'} and {out / 'test.json'}")
        elif args.command == "export-sssom":
            target = values.get("sssom_out") or str(Path(cfg.out_dir) / "mappings_sssom.tsv")
            out = _cli.export_sssom(cfg.mappings, cfg.concepts, target)
            print(f"wrote {out}")
        return EXIT_OK
    except ConfigError as exc:
        print(f"error[{exc.code}]: {exc.message}", file=sys.stderr)
        return EXIT_CONFIG
    except ParseError as exc:
        print(f"error[{exc.code}]: {exc.message}", file=sys.stderr)
        return EXIT_PARSE
    except DataError as exc:
        print(f"error[{exc.code}]: {exc.message}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except Exception as exc:
        import traceback

        print(f"error[INTERNAL]: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
