"""Desk-scale search for configurations with few incidences or lines.

Two strategies over integer grid coordinates: exhaustive enumeration of small
subsets of a g x g grid, and hill climbing with random restarts.  Both reject
any candidate whose maximum collinearity exceeds the cap, so every reported
configuration is feasible by construction.  The objective is the incidence
count by default (the conjectured-extremal quantity), or the spanned-line
count via the objective switch.
"""

from __future__ import annotations

import itertools
import json
import random
from collections import namedtuple
from fractions import Fraction
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from .constructions import _distinct_points
from .fields import rational_field
from .projective import Configuration, ProjectivePoint, _serial_spectrum
from .serialization import dumps

OBJECTIVES = ("incidences", "lines")

_EXHAUSTIVE_MAX_N = 8
_EXHAUSTIVE_MAX_G = 5


class SearchError(ValueError):
    pass


# The result of one search: the best Configuration, its objective as a
# Fraction, and `history`, a tuple of (iteration, objective) pairs.
SearchRecord = namedtuple("SearchRecord", (
    "best_config objective best_value objective_kind constraint method "
    "iterations seed history"))


def _score(pts: Sequence[Tuple[int, int]], objective: str) -> Tuple[int, int]:
    """(objective value, max_collinear) for distinct integer points, counted
    by the spectrum's row kernel on their (x, y, 1) triples."""
    s = _serial_spectrum([(x, y, 1) for x, y in pts])
    return (s.incidences if objective == "incidences" else s.total_lines), s.max_collinear


def _as_configuration(pts: Sequence[Tuple[int, int]], label: str) -> Configuration:
    field = rational_field()
    return Configuration(
        field, tuple(ProjectivePoint((x, y, 1), field) for x, y in pts), label
    )


def _check_objective(kind: str):
    if kind not in OBJECTIVES:
        raise SearchError(f"objective must be one of {OBJECTIVES}, got {kind!r}")


# ---------------------------------------------------------------------------
# Exhaustive enumeration.

def _symmetries(g: int) -> List[List[int]]:
    """The 8 symmetries of the g x g grid as permutations of the row-major
    indices x * g + y: swap x and y or not, then reverse either or both."""
    ways = (range(g), range(g)[::-1])
    return [[fx[u] * g + fy[v] for x in range(g) for y in range(g)
             for u, v in [(y, x) if swap else (x, y)]]
            for swap in (False, True) for fx in ways for fy in ways]


def _is_canonical(subset: Tuple[int, ...], symmetries) -> bool:
    """True iff the ascending index tuple subset is the lexicographic
    minimum of its symmetry orbit.

    Skipping non-canonical subsets cannot change the reported optimum: the
    objective and the cap are symmetry-invariant, and the lexicographically
    first optimal subset is necessarily its own orbit minimum."""
    return all(tuple(sorted(s[k] for k in subset)) >= subset for s in symmetries)


def exhaustive_search(n: int, g: int, cap: int,
                      objective: str = "incidences",
                      prune: bool = True) -> SearchRecord:
    """Minimum-objective n-subset of the g x g grid with max collinearity
    <= cap.  Deterministic: ties resolve to the lexicographically first
    subset, with or without symmetry pruning."""
    _check_objective(objective)
    if not 2 <= n <= _EXHAUSTIVE_MAX_N:
        raise SearchError(f"exhaustive search supports 2 <= n <= {_EXHAUSTIVE_MAX_N}, got {n}")
    if not 2 <= g <= _EXHAUSTIVE_MAX_G:
        raise SearchError(f"exhaustive search supports 2 <= g <= {_EXHAUSTIVE_MAX_G}, got {g}")
    if n > g * g:
        raise SearchError(f"cannot place {n} distinct points on a {g}x{g} grid")
    if cap < 2:
        raise SearchError(f"cap must be at least 2, got {cap}")

    grid_points = [(x, y) for x in range(g) for y in range(g)]
    symmetries = _symmetries(g) if prune else None
    best_pts: Optional[List[Tuple[int, int]]] = None
    best = None
    examined = 0
    history: List[Tuple[int, Fraction]] = []
    for subset in itertools.combinations(range(g * g), n):
        if symmetries is not None and not _is_canonical(subset, symmetries):
            continue
        examined += 1
        pts = [grid_points[k] for k in subset]
        value, collinear = _score(pts, objective)
        if collinear <= cap and (best is None or value < best):
            history.append((examined, Fraction(value, n * n)))
            best = value
            best_pts = pts
    if best_pts is None:
        raise SearchError(f"no {n}-subset of the {g}x{g} grid has max collinearity <= {cap}")
    label = f"exhaustive(n={n},g={g},cap={cap})"
    return SearchRecord(
        best_config=_as_configuration(best_pts, label),
        objective=Fraction(best, n * n),
        best_value=best,
        objective_kind=objective,
        constraint=cap,
        method="exhaustive",
        iterations=examined,
        seed=0,
        history=tuple(history),
    )


# ---------------------------------------------------------------------------
# Hill climbing with restarts.

_CHECKPOINT_KIND = "local-search-checkpoint"


def _load_checkpoint(path: Path, fp: Dict):
    """(completed restarts, best points, best value, history) from the
    checkpoint at path, or None if there is none.  Its kind and fingerprint
    must match the search; then every field read is checked, and the best
    points are re-scored.  Other keys, such as the evaluation count that
    older checkpoints stored, are ignored."""
    if not path.exists():
        return None
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise SearchError(f"checkpoint {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or data.get("kind") != _CHECKPOINT_KIND:
        raise SearchError(f"{path} is not a search checkpoint")
    if data.get("fingerprint") != fp:
        raise SearchError(f"checkpoint {path} was produced by a different search")

    def bad(field, should):
        return SearchError(f"checkpoint {path}: {field} must be {should}")

    done, best, raw = (data.get(k) for k in ("completed_restarts", "best", "history"))
    if type(done) is not int or not 0 <= done <= fp["restarts"]:
        raise bad("completed_restarts", f"an integer in 0..{fp['restarts']}")
    if not (best is None if done == 0 else isinstance(best, dict)):
        raise bad("best", "null exactly when no restart has completed, else an object")
    best_pts = best_value = None
    if best is not None:
        points = best.get("points")
        if not (isinstance(points, list) and len(points) == fp["n"]
                and all(isinstance(p, list) and len(p) == 2
                        and all(type(c) is int and 0 <= c < fp["bound"] for c in p)
                        for p in points)
                and len({tuple(p) for p in points}) == fp["n"]):
            raise bad("best.points", f"{fp['n']} distinct integer pairs in [0, {fp['bound']})^2")
        best_pts = tuple(sorted(map(tuple, points)))
        best_value, collinear = _score(best_pts, fp["objective"])
        if collinear > fp["cap"] or best.get("value") != best_value:
            raise bad("best.value", f"the {fp['objective']} of best.points, "
                                    f"at most {fp['cap']} of them collinear")
    limit = done * (fp["iterations"] + 1)
    try:
        history = [(i, Fraction(f)) for i, f in raw
                   if type(i) is int and 0 < i <= limit and isinstance(f, str)]
    except (TypeError, ValueError, ZeroDivisionError):
        history = None
    if not isinstance(raw, list) or history is None or len(history) != len(raw):
        raise bad("history", f"a list of [index, fraction string] pairs, "
                             f"each index in 1..{limit}")
    return done, best_pts, best_value, history


def _save_checkpoint(path: Path, fingerprint: Dict, completed: int,
                     best_pts, best_value, history) -> None:
    data = {
        "kind": _CHECKPOINT_KIND,
        "fingerprint": fingerprint,
        "completed_restarts": completed,
        "best": None if best_pts is None else {
            "points": [list(p) for p in best_pts],
            "value": best_value,
        },
        "history": [[it, str(obj)] for it, obj in history],
    }
    path.write_text(dumps(data), encoding="utf-8")


def _random_feasible(rng: random.Random, n: int, bound: int, cap: int, objective: str):
    for _ in range(1000):
        pts = _distinct_points(rng, n, bound)
        value, collinear = _score(pts, objective)
        if collinear <= cap:
            return pts, value
    raise SearchError(
        f"could not sample a start with max collinearity <= {cap} in [0,{bound})^2")


def local_search(n: int, bound: Optional[int] = None, cap: Optional[int] = None,
                 iterations: int = 2000, seed: int = 0, restarts: int = 4,
                 objective: str = "incidences",
                 checkpoint: Optional[str] = None) -> SearchRecord:
    """Strict-improvement hill climbing: each move relocates one point to a
    uniform position, rejected on duplicate coordinates or a cap violation.

    Every restart evaluates its start and then iterations proposals, so the
    record counts restarts * (iterations + 1) evaluations, and a history
    entry is indexed by the evaluation that found it.  Restarts draw their
    generator seeds from the master seed up front, so a run interrupted
    between restarts and resumed from its checkpoint file produces the
    record an uninterrupted run would have.  Ties between restarts resolve
    to the lexicographically first point set, independent of restart order."""
    _check_objective(objective)
    if n < 4:
        raise SearchError(f"local search wants n >= 4, got {n}")
    if bound is None:
        bound = 4 * n
    if bound < 1 or bound * bound < n:
        raise SearchError(f"bound {bound} leaves too little room for {n} distinct points")
    if cap is None:
        cap = n
    if cap < 2:
        raise SearchError(f"cap must be at least 2, got {cap}")
    if iterations < 0 or restarts < 1:
        raise SearchError("iterations must be >= 0 and restarts >= 1")

    fingerprint = dict(n=n, bound=bound, cap=cap, iterations=iterations,
                       restarts=restarts, seed=seed, objective=objective)
    master = random.Random(seed)
    restart_seeds = [master.getrandbits(64) for _ in range(restarts)]

    state = (0, None, None, [])
    ckpt_path = Path(checkpoint) if checkpoint else None
    if ckpt_path is not None:
        state = _load_checkpoint(ckpt_path, fingerprint) or state
    start_restart, best_pts, best_value, history = state

    for r in range(start_restart, restarts):
        rng = random.Random(restart_seeds[r])
        current, value = _random_feasible(rng, n, bound, cap, objective)
        for step, value, key in _climb(rng, current, value, bound, cap,
                                       objective, iterations):
            if best_value is None or value < best_value:
                best_value = value
                best_pts = key
                history.append((r * (iterations + 1) + step + 1,
                                Fraction(best_value, n * n)))
            elif value == best_value and key < best_pts:
                best_pts = key
        if ckpt_path is not None:
            _save_checkpoint(ckpt_path, fingerprint, r + 1,
                             best_pts, best_value, history)

    label = f"local(n={n},cap={cap},seed={seed})"
    return SearchRecord(
        best_config=_as_configuration(best_pts, label),
        objective=Fraction(best_value, n * n),
        best_value=best_value,
        objective_kind=objective,
        constraint=cap,
        method="local",
        iterations=restarts * (iterations + 1),
        seed=seed,
        history=tuple(history),
    )


def _climb(rng: random.Random, current, value, bound, cap, objective, iterations):
    """Climbs from the feasible start current, whose objective is value.
    Yields (step, value, sorted points) for the start (step 0) and for each
    accepted proposal (its step in 1..iterations)."""
    n = len(current)
    occupied = set(current)
    yield 0, value, tuple(sorted(current))
    for step in range(1, iterations + 1):
        idx = rng.randrange(n)
        candidate = (rng.randrange(bound), rng.randrange(bound))
        if candidate in occupied:
            continue
        old = current[idx]
        current[idx] = candidate
        cand_value, collinear = _score(current, objective)
        if collinear <= cap and cand_value < value:
            occupied.discard(old)
            occupied.add(candidate)
            value = cand_value
            yield step, value, tuple(sorted(current))
        else:
            current[idx] = old
