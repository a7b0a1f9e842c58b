"""Workload definitions: which inputs each workload generates from its seed,
and which CLI operations it runs on them.

Sizes are chosen for what each workload exercises (see README.md); SMOKE
shrinks every size so the whole benchmark can be exercised in seconds.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional

from linespectra import (
    Configuration,
    GeometryError,
    ProjectivePoint,
    apply_projective_map,
    boroczky,
    expected_spectrum,
    fermat,
    grid,
    near_pencil,
    quadratic_field,
    random_config,
    save_configuration,
    sylvester_cubic,
)

FULL = {
    "analyze_n": 3000, "random_n": 300, "grid": 20, "boroczky": 30,
    "cubic": 20, "fermat": 16, "quadratic_n": 200,
    "local": {"n": 30, "cap": 4, "restarts": 2, "iterations": 2000},
    "exhaustive": {"n": 6, "g": 5, "cap": 3},
}
SMOKE = {
    "analyze_n": 40, "random_n": 20, "grid": 4, "boroczky": 6,
    "cubic": 4, "fermat": 4, "quadratic_n": 12,
    "local": {"n": 8, "cap": 3, "restarts": 1, "iterations": 50},
    "exhaustive": {"n": 4, "g": 3, "cap": 2},
}
# Tiny inputs replayed in every traced run, so that a layer the workload
# never calls (the battery in analyze-large, ...) is still measured there;
# see README.md.  The probe searches run at the sizes above instead.
PROBE = {"random_n": 12, "quadratic_n": 12, "boroczky": 6}


@dataclass
class Input:
    """One generated configuration file."""

    name: str
    path: Path
    config: Configuration
    expected: Optional[Dict[int, int]]
    sha256: str
    size: int

    @property
    def n(self) -> int:
        return self.config.n

    @property
    def kind(self) -> str:
        return self.config.field.kind


@dataclass
class Op:
    """One CLI invocation: `python -m linespectra <argv>`."""

    name: str
    command: str
    argv: List[str]
    input: Optional[Input] = None
    search: Dict = field(default_factory=dict)


def quadratic_image(n: int, seed: int) -> Configuration:
    """random_config(n, seed) embedded in Q(sqrt 2) and moved by a seeded
    invertible matrix whose entries involve sqrt 2."""
    base = random_config(n, seed)
    fld = quadratic_field(2)
    embedded = Configuration(
        fld,
        tuple(ProjectivePoint([fld.from_rational(c.coeffs[0]) for c in p.coords], fld)
              for p in base.points),
        label=f"quadratic({base.label})",
    )
    rng = random.Random(seed)
    while True:
        matrix = [[fld.element([rng.randint(-3, 3), rng.randint(-3, 3)])
                   for _ in range(3)] for _ in range(3)]
        try:
            return apply_projective_map(embedded, matrix)
        except GeometryError:
            continue


# Each workload builder returns (input specs, command run on each input).
# An input spec is (file stem, generator, closed-form spectrum or None).

def _analyze_large(sz, seed):
    n = sz["analyze_n"]
    return [("random", lambda: random_config(n, seed), None)], "analyze"


def _check_families(sz, seed):
    m, k, f, g = sz["boroczky"], sz["cubic"], sz["fermat"], sz["grid"]
    rn, qn = sz["random_n"], sz["quadratic_n"]
    return [
        ("random", lambda: random_config(rn, seed), None),
        ("grid", lambda: grid(g, g), None),
        ("boroczky", lambda: boroczky(m), expected_spectrum("boroczky", m=m)),
        ("sylvester_cubic", lambda: sylvester_cubic(k),
         expected_spectrum("sylvester_cubic", k=k)),
        ("fermat", lambda: fermat(f), expected_spectrum("fermat", m=f)),
        ("quadratic", lambda: quadratic_image(qn, seed), None),
    ], "check"


def _local_op(params, seed) -> Op:
    p = params
    argv = ["search", "local", "--n", str(p["n"]), "--cap", str(p["cap"]),
            "--restarts", str(p["restarts"]), "--iterations", str(p["iterations"]),
            "--seed", str(seed)]
    return Op("search local", "search", argv,
              search={**p, "mode": "local", "seed": seed, "side": 4 * p["n"]})


def _exhaustive_op(params) -> Op:
    p = params
    argv = ["search", "exhaustive", "--n", str(p["n"]), "--g", str(p["g"]),
            "--cap", str(p["cap"])]
    return Op("search exhaustive", "search", argv,
              search={**p, "mode": "exhaustive", "side": p["g"]})


# Why each workload exists is in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Callable] = {
    "analyze-large": _analyze_large,
    "check-families": _check_families,
}


def _write_input(directory: Path, stem: str, make: Callable[[], Configuration],
                 expected, root: Path) -> Input:
    config = make()
    path = directory / f"{stem}.json"
    save_configuration(config, str(path))
    data = path.read_bytes()
    return Input(stem, path.relative_to(root), config, expected,
                 hashlib.sha256(data).hexdigest(), len(data))


def generate(workload: str, seed: int, sizes: Dict, directory: Path,
             root: Path) -> List[Op]:
    """Write the workload's inputs under `directory` and return its operations,
    with input paths relative to `root` (the CLI's working directory)."""
    specs, command = WORKLOADS[workload](sizes, seed)
    ops = []
    for stem, make, expected in specs:
        inp = _write_input(directory, stem, make, expected, root)
        ops.append(Op(f"{command} {stem}", command, [command, str(inp.path)], input=inp))
    (directory / "ops.json").write_text(json.dumps(
        [{"name": op.name, "argv": op.argv,
          "sha256": op.input.sha256 if op.input else None} for op in ops],
        indent=1))
    return ops


@dataclass
class Probes:
    """The probe operations: a tiny check, the local and the exhaustive
    search, one small configuration of each field kind (for the field and
    projective micro-timings) and a 3-point file for the CLI start-up time."""

    ops: List[Op]
    configs: Dict[str, Configuration]
    startup: Path


def probes(seed: int, sizes: Dict, directory: Path, root: Path) -> Probes:
    specs = [
        ("probe_rational", lambda: random_config(PROBE["random_n"], seed), None),
        ("probe_quadratic", lambda: quadratic_image(PROBE["quadratic_n"], seed), None),
        ("probe_cyclotomic", lambda: boroczky(PROBE["boroczky"]), None),
        ("startup", lambda: near_pencil(3), None),
    ]
    inputs = [_write_input(directory, *spec, root) for spec in specs]
    ops = [
        Op("probe check", "check", ["check", str(inputs[0].path)], input=inputs[0]),
        _local_op(sizes["local"], seed),
        _exhaustive_op(sizes["exhaustive"]),
    ]
    for op in ops[1:]:
        op.name = "probe " + op.name
    return Probes(ops, {inp.kind: inp.config for inp in inputs[:3]}, inputs[3].path)
