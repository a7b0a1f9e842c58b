"""Command line front end: generate, analyze, check, search, render.

All outputs are machine readable.  Exit codes: 0 on success, 1 for argument
or input errors, 2 when an applicable proven check (identity, theorem or
corollary) is violated, which always indicates a bug somewhere upstream,
and 3 when an internal invariant of the line counting breaks, which is a bug
in this package and never a fault of the input.  Conjectures and
informational checks never affect the exit code.

The --threads flag caps the processes analyze and check count a large
configuration's lines in (projective.spectrum's forked stripes).  It must be
at least 1 and defaults to 2, and no more processes are used than the CPUs
this one may run on; every other command ignores it.  It never changes an
output byte, so it is excluded from the echoed argument map.

entry(), the console script and `python -m linespectra`, flushes stdout
and stderr after main returns and leaves through os._exit, skipping the
interpreter's teardown, so atexit handlers do not run; if the flush fails
(a closed pipe, a full disk) it reports `error: ...` and exits 1.  main()
returns its code and never exits.

A command imports what only it runs (constructions, search, render,
inequalities) in its handler or parser branch, so analyze loads only
serialization, fields and projective, and check adds inequalities.
"""

from __future__ import annotations

import argparse
import os
import sys
from fractions import Fraction
from pathlib import Path
from typing import Dict, Optional, Sequence

from .projective import InternalError, spectrum
from .serialization import (
    dumps,
    field_to_json,
    frac_str,
    load_configuration,
    record_to_json,
    report_to_json,
    reports_to_csv,
    save_configuration,
    spectrum_to_csv,
    spectrum_to_json,
)


class CliError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise CliError(message)


def _workers(threads: int) -> int:
    """The processes to count lines in: --threads, but no more than the CPUs
    this process may run on (all of them where the platform cannot tell)."""
    if hasattr(os, "sched_getaffinity"):
        return min(threads, len(os.sched_getaffinity(0)))
    return min(threads, os.cpu_count() or 1)


def _add_common(sp: argparse.ArgumentParser) -> None:
    sp.add_argument("--format", choices=("json", "csv"), default="json",
                    help="output format (json is lossless, csv approximate)")
    sp.add_argument("--out", help="write the output document here instead of stdout")
    sp.add_argument("--seed", type=int, default=0, help="random seed")
    sp.add_argument("--threads", type=int, default=2,
                    help="most processes analyze and check count lines in "
                         "(>= 1, at most the usable CPUs; default: 2)")


def build_parser(command: Optional[str] = None) -> argparse.ArgumentParser:
    """The parser of every subcommand, or, given `command`, one in which
    generate and search take their arguments only if they are `command`:
    their options need the constructions and search modules."""
    parser = _Parser(prog="linespectra",
                     description="Exact spanned-line spectra of planar "
                                 "point configurations.")
    sub = parser.add_subparsers(dest="command")

    gen = sub.add_parser("generate", help="write a named configuration as JSON")
    if command in (None, "generate"):
        import inspect

        from .constructions import GENERATORS
        gen.add_argument("name", choices=sorted(name.replace("_", "-") for name in GENERATORS))
        params = {p for family in GENERATORS.values()
                  for p in inspect.signature(family).parameters}
        for pname in sorted(params - {"seed"}):
            gen.add_argument(f"--{pname}", type=int)
        _add_common(gen)
    gen.set_defaults(handler=_cmd_generate)

    ana = sub.add_parser("analyze", help="compute the line spectrum of a configuration file")
    ana.add_argument("input")
    _add_common(ana)
    ana.set_defaults(handler=_cmd_analyze)

    chk = sub.add_parser("check", help="evaluate identities and inequalities")
    chk.add_argument("input")
    chk.add_argument("which", nargs="?", default="all",
                     help="check name or name prefix (default: all)")
    chk.add_argument("--all", action="store_true", help="run every check")
    _add_common(chk)
    chk.set_defaults(handler=_cmd_check)

    sea = sub.add_parser("search", help="look for configurations with few incidences")
    if command in (None, "search"):
        from .search import OBJECTIVES
        sea.add_argument("mode", choices=("exhaustive", "local"))
        sea.add_argument("--n", type=int, required=True)
        sea.add_argument("--g", type=int, help="grid side (exhaustive)")
        sea.add_argument("--cap", type=int, help="maximum collinearity allowed")
        sea.add_argument("--bound", type=int, help="coordinate bound (local)")
        sea.add_argument("--iterations", type=int, default=2000)
        sea.add_argument("--restarts", type=int, default=4)
        sea.add_argument("--objective", choices=OBJECTIVES, default="incidences")
        sea.add_argument("--no-prune", action="store_true",
                         help="disable symmetry pruning (exhaustive)")
        sea.add_argument("--checkpoint", help="checkpoint file for resumable local search")
        _add_common(sea)
    sea.set_defaults(handler=_cmd_search)

    ren = sub.add_parser("render", help="draw a real configuration as SVG")
    ren.add_argument("input")
    _add_common(ren)
    ren.set_defaults(handler=_cmd_render)
    return parser


def _emit(text: str, out: Optional[str]) -> None:
    if out:
        Path(out).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _manifest(command: str, arguments: Dict, result) -> str:
    return dumps({"command": command, "arguments": arguments, "result": result})


# ---------------------------------------------------------------------------
# Handlers.

def _cmd_generate(args) -> int:
    import inspect

    from .constructions import GENERATORS, expected_spectrum
    if not args.out:
        raise CliError("generate requires --out for the configuration file")
    pyname = args.name.replace("-", "_")
    params: Dict[str, int] = {}
    for p in inspect.signature(GENERATORS[pyname]).parameters.values():
        value = getattr(args, p.name)
        if value is not None:
            params[p.name] = value
        elif p.default is p.empty:
            raise CliError(f"{args.name} requires --{p.name}")
    config = GENERATORS[pyname](**params)
    save_configuration(config, args.out)
    expected = expected_spectrum(pyname, **params)
    result = {
        "path": args.out,
        "label": config.label,
        "n": config.n,
        "field": field_to_json(config.field),
        "expected_spectrum":
            None if expected is None
            else {str(i): expected[i] for i in sorted(expected)},
    }
    sys.stdout.write(_manifest("generate", {"generator": args.name, **params}, result))
    return 0


def _cmd_analyze(args) -> int:
    config = load_configuration(args.input)
    s = spectrum(config, workers=_workers(args.threads))
    real = config.is_real()
    if args.format == "csv":
        _emit(spectrum_to_csv(s, real), args.out)
        return 0
    arguments = {"input": args.input, "format": args.format}
    _emit(_manifest("analyze", arguments, spectrum_to_json(s, real)), args.out)
    return 0


def _cmd_check(args) -> int:
    from .inequalities import exit_code_for, run_checks, violations
    which = "all" if args.all else args.which
    config = load_configuration(args.input)
    s = spectrum(config, workers=_workers(args.threads))
    try:
        reports = run_checks(s, config.is_real(), which)
    except KeyError as exc:
        raise CliError(exc.args[0]) from exc
    code = exit_code_for(reports)
    if args.format == "csv":
        _emit(reports_to_csv(reports), args.out)
        return code
    arguments = {"input": args.input, "which": which, "format": args.format}
    result = {
        "label": config.label,
        "n": s.n,
        "reports": [report_to_json(r) for r in reports],
        "violations": [r.name for r in violations(reports)],
        "exit_code": code,
    }
    _emit(_manifest("check", arguments, result), args.out)
    return code


def _conjecture_reference(record) -> Dict:
    s = spectrum(record.best_config)
    ratio = Fraction(s.incidences, s.n * s.n)
    return {
        "statement": "incidences >= (3/8) n^2 for real sets with at most "
                     "n/2 points collinear (reported, not asserted)",
        "threshold": "3/8",
        "incidence_ratio": frac_str(ratio),
        "at_or_above": ratio >= Fraction(3, 8),
        "max_collinear": s.max_collinear,
    }


def _cmd_search(args) -> int:
    from .search import exhaustive_search, local_search
    if args.format == "csv":
        raise CliError("search emits JSON only")
    if args.cap is None:
        raise CliError("search requires --cap")
    if args.mode == "exhaustive":
        if args.g is None:
            raise CliError("exhaustive search requires --g")
        record = exhaustive_search(args.n, args.g, args.cap,
                                   objective=args.objective,
                                   prune=not args.no_prune)
        arguments = {"mode": "exhaustive", "n": args.n, "g": args.g,
                     "cap": args.cap, "objective": args.objective,
                     "prune": not args.no_prune}
    else:
        record = local_search(args.n, bound=args.bound, cap=args.cap,
                              iterations=args.iterations, seed=args.seed,
                              restarts=args.restarts,
                              objective=args.objective,
                              checkpoint=args.checkpoint)
        arguments = {"mode": "local", "n": args.n, "bound": args.bound,
                     "cap": args.cap, "iterations": args.iterations,
                     "restarts": args.restarts, "seed": args.seed,
                     "objective": args.objective}
    result = {
        "record": record_to_json(record),
        "conjecture_reference": _conjecture_reference(record),
    }
    _emit(_manifest("search", arguments, result), args.out)
    return 0


def _cmd_render(args) -> int:
    from .render import _render
    if not args.out:
        raise CliError("render requires --out for the SVG file")
    config = load_configuration(args.input)
    svg, points, lines = _render(config)
    Path(args.out).write_text(svg, encoding="utf-8")
    result = {"path": args.out, "points": points, "lines": lines}
    sys.stdout.write(_manifest("render", {"input": args.input}, result))
    return 0


# ---------------------------------------------------------------------------


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv[0] if argv else None)
    try:
        args = parser.parse_args(argv)
        handler = getattr(args, "handler", None)
        if handler is None:
            raise CliError("a subcommand is required "
                           "(generate, analyze, check, search, render)")
        if args.threads < 1:
            raise CliError("--threads must be at least 1")
        return handler(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except InternalError as exc:
        print(f"error: internal error, please report it: {exc}", file=sys.stderr)
        return 3


def entry() -> None:
    """The console script and `python -m linespectra`: main, then a flush
    of stdout and stderr and os._exit, with no interpreter teardown."""
    code = main()
    try:
        sys.stdout.flush()
        sys.stderr.flush()
    except OSError as exc:  # a closed pipe or a full disk loses output
        try:
            print(f"error: {exc}", file=sys.stderr, flush=True)
        except OSError:
            pass
        code = 1
    os._exit(code)
