"""Command-line surface.

Subcommands: ``map`` (build mapping records), ``coverage`` (cross-site
generalizability), ``phers`` (phenotype-score utility), ``export-sssom``
(interchange flattening).  A JSON config file may supply any flag value;
explicit flags override the file.

Exit codes: 0 success; else the ``exit_code`` of the error's class, which
declares its codes (README's error table lists them): 1 ``ConfigError``
(and ``error[IO]``, a file that cannot be read or written), 2
``ParseError`` (a malformed input: the file, the line where one row is
at fault and, for a TSV field, its column), 3 ``DataError``, 4 internal
error (a fault in termbridge itself, such as a code its class does not
declare: ``error[INTERNAL]``, the exception's type and message, then its
traceback).

Importing this module loads only ``errors``.  ``main`` loads ``pipeline``
(with ``core``, ``ingest``, which reads every input file, and
``lexical``) before it parses, as the flags are ``RunConfig``'s fields;
then ``map`` loads ``align``, ``similarity`` and ``synthesize``, and
``coverage`` and ``phers`` load ``evaluate`` and ``stats``.
"""

from __future__ import annotations

import argparse
import json
import sys

from .errors import ConfigError, TermbridgeError

EXIT_OK = 0
EXIT_INTERNAL = 4

_PIPELINE_NAMES = ("RunConfig", "run_map", "run_coverage", "run_phers", "export_sssom")


def __getattr__(name):
    # The pipeline loads when a command first looks these up, and each is then
    # kept here, where perfbench's tracer finds and replaces it.
    if name not in _PIPELINE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import pipeline

    return globals().setdefault(name, getattr(pipeline, name))


def _pipeline(name):
    # Bare names do not reach ``__getattr__``: a name bound here, by an earlier
    # lookup or by a replacement, wins.  Run through runpy (``python -m
    # termbridge.cli``), ``globals()`` is the running namespace.
    return globals()[name] if name in globals() else __getattr__(name)


class _Parser(argparse.ArgumentParser):
    # Usage mistakes are configuration errors (exit 1), not argparse's 2.
    def error(self, message):
        raise ConfigError("USAGE", message)


# Each command: its help line, the pipeline function that runs it, and the
# files it writes to its output directory (export-sssom names its file).
_COMMANDS = {
    "map": ("run the mapping pipeline", "run_map", "mappings.tsv summary.json"),
    "coverage": ("cross-site coverage evaluation", "run_coverage", "coverage.json pairwise.tsv buckets.tsv"),
    "phers": ("phenotype risk scores + rank test", "run_phers", "phers.tsv test.json"),
    "export-sssom": ("flatten mappings to interchange TSV", "export_sssom", ""),
}

# How a flag of each kind of RunConfig field parses; an Enum's takes its values.
_ARGUMENTS = {
    "input": {}, "inputs": {"action": "append"}, "output": {}, float: {"type": float}, int: {"type": int}
}


def _build_parser(flags) -> _Parser:
    """The parser of every command, with the flags in ``flags`` (config key
    -> RunConfig field) that each command takes, each number's help ending
    in its interval.  A flag left out is not in the parsed namespace."""
    # --help shows the docstring (absent under -OO) without its last paragraph, on imports.
    parser = _Parser(prog="termbridge", description=(__doc__ or "").rsplit("\n\n", 1)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (summary, _, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=summary, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", help="JSON file supplying flag values (flags override)")
        for key, f in flags.items():
            if command not in f.metadata["commands"]:
                continue
            kind, text, interval = f.metadata["kind"], f.metadata["help"], f.metadata["within"]
            if isinstance(text, dict):
                text = text[command]
            text = text and text % {"default": f.default} + (f"; must lie in {interval}" if interval else "")
            parse = _ARGUMENTS[kind] if kind in _ARGUMENTS else {"choices": [m.value for m in kind]}
            p.add_argument("--" + key.replace("_", "-"), help=text, **parse)
    return parser


def _value(kind, key, raw):
    """``raw``, from a flag or a config file, as a value of ``kind``; a value
    of another type is BAD_CONFIG."""
    if kind == "inputs" and isinstance(raw, str):
        raw = [raw]
    if kind == "inputs" and isinstance(raw, list) and all(isinstance(p, str) for p in raw):
        return tuple(raw)
    if kind in ("input", "output") and isinstance(raw, str):
        return raw
    if kind in (float, int) and type(raw) in (int, kind):
        return kind(raw)
    if kind not in _ARGUMENTS and raw in [m.value for m in kind]:
        return kind(raw)
    raise ConfigError("BAD_CONFIG", f"bad config value for {key!r}: {raw!r}")


def _run_config(config_type, flags, given: dict):
    """A ``config_type`` from the flags ``given``, each over the value its
    key has in the ``--config`` file, if any; a null config value is unset."""
    values = {}
    if "config" in given:
        try:
            with open(given.pop("config"), encoding="utf-8") as fh:
                file_values = json.load(fh)
        except OSError as exc:
            raise ConfigError("NO_SUCH_FILE", f"--config: {exc}") from None
        except (json.JSONDecodeError, UnicodeDecodeError) as exc:
            raise ConfigError("BAD_CONFIG", f"--config: {exc}") from None
        if not isinstance(file_values, dict):
            raise ConfigError("BAD_CONFIG", "--config must contain a JSON object")
        for key, raw in file_values.items():
            key = key.replace("-", "_")
            if key not in flags:
                raise ConfigError("BAD_CONFIG", f"unknown config key {key!r}")
            if raw is not None:
                values[key] = raw
    values.update(given)
    return config_type(
        **{flags[key].name: _value(flags[key].metadata["kind"], key, raw) for key, raw in values.items()}
    )


def main(argv=None) -> int:
    try:
        # The flags are RunConfig's fields, so the pipeline loads before parsing.
        from . import pipeline

        given = vars(_build_parser(pipeline.FLAGS).parse_args(argv))
        _, runner, outputs = _COMMANDS[given.pop("command")]
        cfg = _run_config(_pipeline("RunConfig"), pipeline.FLAGS, given)
        out = _pipeline(runner)(cfg)
        print("wrote", ", ".join(str(out / name) for name in outputs.split()) or out)
        return EXIT_OK
    except TermbridgeError as exc:
        print(f"error[{exc.code}]: {exc.message}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error[IO]: {exc}", file=sys.stderr)
        return ConfigError.exit_code
    except Exception as exc:
        import traceback

        print(f"error[INTERNAL]: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
