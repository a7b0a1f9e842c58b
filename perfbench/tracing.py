"""The traced run: each CLI operation replayed in process as its sequence of
public calls, each call wrapped in a span, plus direct timings of the field
and projective primitives.

Spans are recorded here, around calls into the package; the package itself
is not instrumented.  A span is (trace id, span id, parent id, name, start,
end); every span of one operation carries that operation's trace id.
"""

from __future__ import annotations

import contextlib
import io
import random
import statistics
import time
from fractions import Fraction
from math import comb
from typing import Callable, Dict, List

from linespectra import (
    boroczky,
    collinear,
    exhaustive_search,
    fermat,
    grid,
    line_through,
    load_configuration,
    local_search,
    random_config,
    run_checks,
    spanned_lines,
    spectrum,
    sylvester_cubic,
    ProjectivePoint,
)
from linespectra import cli
from linespectra.inequalities import exit_code_for, violations
from linespectra.serialization import (
    dumps,
    frac_str,
    record_to_json,
    report_to_json,
    spectrum_to_json,
)

from workloads import Op

KINDS = ("rational", "quadratic", "cyclotomic")
# Span names of the calls a replay makes, keyed by the per-layer metric each
# one feeds.
LAYER_SPANS = {
    "serialization.load_s": "serialization.load",
    "projective.spectrum_s": "projective.spectrum",
    "inequalities.run_checks_s": "inequalities.run_checks",
    "serialization.output_s": "serialization.output",
    "search.local_s": "search.local",
    "search.exhaustive_s": "search.exhaustive",
}


class Tracer:
    """Collects spans in memory; `enabled=False` gives the untraced replay
    the same code path minus the recording."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: List[Dict] = []
        self._stack: List[int] = []
        self._trace_id = 0
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **attrs):
        if not self.enabled:
            yield
            return
        if not self._stack:
            self._trace_id += 1
        record = {
            "trace_id": self._trace_id, "span_id": len(self.spans) + 1,
            "parent_id": self._stack[-1] if self._stack else None,
            "name": name, **attrs,
        }
        self.spans.append(record)
        self._stack.append(record["span_id"])
        record["start"] = time.perf_counter() - self._origin
        try:
            yield
        finally:
            record["end"] = time.perf_counter() - self._origin
            self._stack.pop()


def _manifest(command: str, arguments: Dict, result) -> str:
    return dumps({"command": command, "arguments": arguments, "result": result})


def replay(op: Op, tr: Tracer) -> tuple:
    """Run one operation the way `python -m linespectra <argv>` does with
    default flags; returns (stdout text, spectrum, configuration, record)."""
    config = record = None
    with tr.span("op", op=op.name):
        if op.command in ("analyze", "check"):
            path = str(op.input.path)
            with tr.span("serialization.load"):
                config = load_configuration(path)
            with tr.span("projective.spectrum"):
                s = spectrum(config)
            real = config.is_real()
        if op.command == "analyze":
            with tr.span("serialization.output"):
                text = _manifest("analyze", {"input": path, "format": "json"},
                                 spectrum_to_json(s, real))
        elif op.command == "check":
            with tr.span("inequalities.run_checks"):
                reports = run_checks(s, real, "all")
            code = exit_code_for(reports)
            names = [r.name for r in violations(reports)]
            with tr.span("serialization.output"):
                text = _manifest(
                    "check", {"input": path, "which": "all", "format": "json"},
                    {"label": config.label, "n": s.n,
                     "reports": [report_to_json(r) for r in reports],
                     "violations": names, "exit_code": code})
        else:
            p = op.search
            if p["mode"] == "local":
                with tr.span("search.local"):
                    record = local_search(p["n"], cap=p["cap"], iterations=p["iterations"],
                                          seed=p["seed"], restarts=p["restarts"])
                arguments = {"mode": "local", "n": p["n"], "bound": None, "cap": p["cap"],
                             "iterations": p["iterations"], "restarts": p["restarts"],
                             "seed": p["seed"], "objective": "incidences"}
            else:
                with tr.span("search.exhaustive"):
                    record = exhaustive_search(p["n"], p["g"], p["cap"])
                arguments = {"mode": "exhaustive", "n": p["n"], "g": p["g"],
                             "cap": p["cap"], "objective": "incidences", "prune": True}
            with tr.span("projective.spectrum"):
                s = spectrum(record.best_config)
            ratio = Fraction(s.incidences, s.n * s.n)
            reference = {
                "statement": "incidences >= (3/8) n^2 for real sets with at most "
                             "n/2 points collinear (reported, not asserted)",
                "threshold": "3/8",
                "incidence_ratio": frac_str(ratio),
                "at_or_above": ratio >= Fraction(3, 8),
                "max_collinear": s.max_collinear,
            }
            with tr.span("serialization.output"):
                text = _manifest("search", arguments,
                                 {"record": record_to_json(record),
                                  "conjecture_reference": reference})
    return text, s, config, record


def cli_main(op: Op) -> tuple:
    """In-process `cli.main` with stdout captured: (exit code, text, seconds)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        code = cli.main(op.argv)
    return code, buf.getvalue(), time.perf_counter() - t0


def self_times(spans: List[Dict]) -> Dict[str, float]:
    """Self time per span name: duration minus what its children cover."""
    child = {}
    for sp in spans:
        if sp["parent_id"] is not None:
            child[sp["parent_id"]] = child.get(sp["parent_id"], 0.0) + sp["end"] - sp["start"]
    out: Dict[str, float] = {}
    for sp in spans:
        own = sp["end"] - sp["start"] - child.get(sp["span_id"], 0.0)
        out[sp["name"]] = out.get(sp["name"], 0.0) + own
    return out


# ---------------------------------------------------------------------------
# Direct timings of single calls.

def per_call_us(call: Callable, args: List[tuple], budget_s: float, repeats: int = 5) -> float:
    """Median over `repeats` batches of the mean microseconds per call; each
    batch loops over `args` until it has run for `budget_s`."""
    samples = []
    for _ in range(repeats):
        count = 0
        t0 = time.perf_counter()
        while True:
            for a in args:
                call(*a)
            count += len(args)
            elapsed = time.perf_counter() - t0
            if elapsed >= budget_s:
                break
        samples.append(elapsed / count * 1e6)
    return statistics.median(samples)


def primitive_timings(configs: List, seed: int, budget_s: float) -> Dict[str, float]:
    """fields.* and projective.*_us for one field kind, on elements drawn from
    the given configurations: their coordinates and the cross products of
    their point pairs (the line coordinates line_through canonicalises)."""
    rng = random.Random(seed)
    share = max(3, 24 // len(configs))
    mul_args, inverse_args, canon_args, pairs, triples = [], [], [], [], []
    for config in configs:  # operands never mix two configurations' fields
        pts = rng.sample(config.points, min(share, config.n))
        cfg_pairs = [tuple(rng.sample(pts, 2)) for _ in range(share)]
        elements = [c for p in pts for c in p.coords if not c.is_zero()]
        for p, q in cfg_pairs:
            a, b = p.coords, q.coords
            elements += [e for e in (a[1] * b[2] - a[2] * b[1], a[2] * b[0] - a[0] * b[2],
                                     a[0] * b[1] - a[1] * b[0]) if not e.is_zero()]
        mul_args += [(rng.choice(elements), rng.choice(elements)) for _ in range(2 * share)]
        inverse_args += [(e,) for e in rng.sample(elements, min(2 * share, len(elements)))]
        # Canonicalising a point divides by its pivot; scaling each point by a
        # field element makes that division real work.
        canon_args += [([c * rng.choice(elements) for c in p.coords], p.field) for p in pts]
        pairs += cfg_pairs
        if len(pts) >= 3:
            triples += [tuple(rng.sample(pts, 3)) for _ in range(share)]
    for p, q, r in triples:
        collinear(p, q, r)  # fill the per-point screen caches
    return {
        "fields.mul_us": per_call_us(lambda a, b: a * b, mul_args, budget_s),
        "fields.inverse_us": per_call_us(lambda a: a.inverse(), inverse_args, budget_s),
        "projective.point_canon_us": per_call_us(ProjectivePoint, canon_args, budget_s),
        "projective.line_through_us": per_call_us(line_through, pairs, budget_s),
        "projective.collinear_us": per_call_us(collinear, triples, budget_s),
    }


def generation_timings(sizes: Dict, seed: int) -> Dict[str, float]:
    """constructions.generate_s.<family> at the benchmark's sizes, median of 3."""
    makers = {
        "random": lambda: random_config(sizes["analyze_n"], seed),
        "grid": lambda: grid(sizes["grid"], sizes["grid"]),
        "boroczky": lambda: boroczky(sizes["boroczky"]),
        "sylvester_cubic": lambda: sylvester_cubic(sizes["cubic"]),
        "fermat": lambda: fermat(sizes["fermat"]),
    }
    out = {}
    for family, make in makers.items():
        samples = []
        for _ in range(3):
            t0 = time.perf_counter()
            make()
            samples.append(time.perf_counter() - t0)
        out[f"constructions.generate_s.{family}"] = statistics.median(samples)
    return out


def spanned_lines_s(configs: List) -> float:
    total = 0.0
    for config in configs:
        t0 = time.perf_counter()
        spanned_lines(config)
        total += time.perf_counter() - t0
    return total


def spectrum_counts(spectra: List) -> Dict[str, float]:
    pairs = sum(comb(s.n, 2) for s in spectra)
    lines = sum(s.total_lines for s in spectra)
    return {
        "projective.pairs": pairs,
        "projective.lines": lines,
        "projective.incidences": sum(s.incidences for s in spectra),
        "projective.pairs_per_line": pairs / lines,
    }


def spectrum_doc(s) -> Dict:
    return {"n": s.n, "ell": {str(i): c for i, c in s.ell.items()},
            "total_lines": s.total_lines, "incidences": s.incidences,
            "max_collinear": s.max_collinear, "degrees": list(s.degrees)}

