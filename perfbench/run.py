"""linespectra benchmark: CLI wall time and peak RSS per workload, or, with
--trace 1, the per-layer numbers of a traced in-process replay.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload analyze-large --seed 1 --seconds 10 --trace 0

The last line of stdout is the result object
{"correct", "attempted", "failed", "metrics"}; the lines before it are the
full report (context, every repeat's wall time, span self times).  Metric names
and units come from BENCHMARK.json.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from math import comb
from pathlib import Path
from typing import Callable, Dict, List, Optional

import verify

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / ".work"
SETUP_MIN_REPEATS = 5
SETUP_MIN_SECONDS = 0.5
STARTUP_REPEATS = 5
LEAN_THRESHOLD = 600  # inputs below it take the spanned_lines route


def use_source_tree() -> None:
    """Import linespectra from this checkout's src/, never from elsewhere."""
    if not (SRC / "linespectra" / "__init__.py").is_file():
        raise SystemExit(f"error: no linespectra source tree at {SRC}")
    sys.path.insert(0, str(SRC))


def metric_specs() -> Dict[str, List[Dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {"0": spec["end_to_end"], "1": spec["per_layer"]}


# ---------------------------------------------------------------------------
# Context recorded with every result.

def reference_loop_s() -> float:
    """A fixed pure-Python loop: reported, never gated, so host noise can be
    told apart from a code change."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc = (acc * 31 + i) % 1_000_003
    return time.perf_counter() - t0


def git_commit() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    if proc.returncode or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def source_facts() -> Dict:
    files = sorted((SRC / "linespectra").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(f.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def context(args, ops, ref_s: float) -> Dict:
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "smoke": args.smoke,
        "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(), "git_commit": git_commit(),
        **source_facts(),
        "inputs": [{"name": op.input.name, "n": op.input.n, "field": op.input.kind,
                    "bytes": op.input.size, "sha256": op.input.sha256}
                   for op in ops if op.input is not None],
        "reference_loop_s": ref_s,
    }


# ---------------------------------------------------------------------------
# Running and checking operations.

class Tally:
    """Operations attempted and failed, with the first few failure reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def record(self, name: str, problems: List[str]) -> None:
        self.attempted += 1
        if problems:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(f"{name}: {'; '.join(problems)}")


class Digests:
    """sha256 of each operation's stdout; every later output of the same
    operation (same arguments and input bytes) for the same seed, in this
    run or an earlier one in this checkout, must match it byte for byte."""

    def __init__(self, path: Path):
        self.path = path
        self.seen = json.loads(path.read_text()) if path.exists() else {}

    def problems(self, op, text: str) -> List[str]:
        key = " ".join([*op.argv, op.input.sha256 if op.input else ""])
        digest = hashlib.sha256(text.encode()).hexdigest()
        if self.seen.setdefault(key, digest) != digest:
            return ["output differs from an earlier output for this seed"]
        return []

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.seen, indent=1, sort_keys=True))


def child_env() -> Dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return env


class Spawner:
    """Runs `python -m linespectra` children through spawner.py, which reaps
    each with wait4 (see there for why it is a separate small process)."""

    def __init__(self):
        self.proc = subprocess.Popen([sys.executable, str(HERE / "spawner.py")],
                                     cwd=ROOT, env=child_env(), text=True,
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE)

    def run(self, argv: List[str], out_path: Path) -> tuple:
        """(exit code, wall s, peak RSS KiB) of one child."""
        request = {"argv": [sys.executable, "-m", "linespectra", *argv],
                   "stdout": str(out_path), "stderr": str(out_path.with_suffix(".stderr"))}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        return reply["code"], reply["wall_s"], reply["maxrss_kib"]

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.proc.stdin.close()
        self.proc.wait()
        self.proc.stdout.close()


def op_problems(op, code: int, text: str) -> List[str]:
    if code != 0:
        return [f"exit code {code}"]
    try:
        manifest = json.loads(text)
        if op.command == "analyze":
            return verify.spectrum_problems(manifest["result"], op.input.n, op.input.expected)
        if op.command == "check":
            return verify.check_problems(manifest, op.input.n, op.input.expected)
        p = op.search
        return verify.search_problems(manifest, p["n"], p["cap"], p["side"])
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return [f"malformed output: {exc!r}"]


# ---------------------------------------------------------------------------
# Set-up.

class SetUp:
    """Generates and writes every input a run may use (the workload's, the
    probes' and the start-up file).  Every repeat must write the same bytes;
    setup_s is the median repeat time."""

    def __init__(self, args, sizes, run_dir: Path):
        self.args, self.sizes, self.run_dir = args, sizes, run_dir
        self.times: List[float] = []
        self.hashes = set()

    def repeat(self) -> tuple:
        """One more repeat; returns (operations, probes)."""
        import workloads
        t0 = time.perf_counter()
        ops = workloads.generate(self.args.workload, self.args.seed, self.sizes,
                                 self.run_dir, ROOT)
        probes = workloads.probes(self.args.seed, self.sizes, self.run_dir, ROOT)
        self.times.append(time.perf_counter() - t0)
        self.hashes.add(tuple(op.input.sha256 for op in ops + probes.ops if op.input))
        return ops, probes


# ---------------------------------------------------------------------------
# Timed run (--trace 0).

def timed_run(spawner, ops, seconds: float, run_dir: Path, tally: Tally, digests: Digests,
              between_passes: Callable, tamper: Optional[Callable] = None) -> Dict:
    """Closed loop, one client: passes over the operations, one child at a
    time.  After the first full pass, an operation starts only if its last
    wall time still fits before `seconds` have elapsed, so a run ends close
    to its deadline, possibly partway through a pass.  wall_s is one pass
    at each operation's mean wall time over the run: the host's speed drifts
    over seconds, and the mean over the whole timed section averages the
    most of it out.  For the same reason between_passes() repeats the set-up
    after every pass, outside the children's timings, so setup_s samples the
    whole run too."""
    walls: Dict[str, List[float]] = {op.name: [] for op in ops}
    peak_kib = 0
    t_start = time.perf_counter()
    for i in itertools.count():
        op = ops[i % len(ops)]
        if i >= len(ops) and time.perf_counter() - t_start + walls[op.name][-1] > seconds:
            break
        out = run_dir / f"out-{op.name.replace(' ', '_')}.txt"
        code, wall, rss = spawner.run(op.argv, out)
        text = out.read_text()
        checked = tamper(op, text) if tamper is not None else text
        tally.record(op.name, op_problems(op, code, checked) + digests.problems(op, text))
        walls[op.name].append(wall)
        peak_kib = max(peak_kib, rss)
        if op is ops[-1]:
            between_passes()
    by_kind: Dict[str, float] = {}
    for op in ops:
        kind = op.input.kind
        by_kind[kind] = by_kind.get(kind, 0.0) + statistics.mean(walls[op.name])
    return {
        "metrics": {
            "wall_s": sum(by_kind.values()),
            "peak_rss_mib": peak_kib / 1024,
        },
        "samples": {op.name: len(walls[op.name]) for op in ops},
        "timed_s": time.perf_counter() - t_start,
        # Reported, not gated (see README.md): wall_s split by field kind.
        "parts": {f"wall_s.{k}": {"value": v, "unit": "s"} for k, v in by_kind.items()},
        "op_wall_s": walls,
    }


# ---------------------------------------------------------------------------
# Traced run (--trace 1).

def _own_or_probe(own: list, probe: list, pick: Callable) -> list:
    """pick() over the workload's own replays, or over the probe replays
    where the workload never calls that layer."""
    return [v for r in own for v in pick(r)] or [v for r in probe for v in pick(r)]


def _checked(op, replayed: tuple, tally: Tally, digests: Digests) -> Dict:
    """Check one replay like a CLI output, plus its spectrum object."""
    import tracing
    text, s, config, record = replayed
    n = op.input.n if op.input else op.search["n"]
    expected = op.input.expected if op.input else None
    tally.record(f"replay {op.name}",
                 op_problems(op, 0, text) + digests.problems(op, text)
                 + verify.spectrum_problems(tracing.spectrum_doc(s), n, expected))
    return {"op": op, "text": text, "spectrum": s, "record": record,
            "config": config if config is not None else record.best_config}


def _span_total(spans: List[Dict], name: str) -> float:
    return sum(sp["end"] - sp["start"] for sp in spans if sp["name"] == name)


def traced_run(spawner, args, ops, probes, sizes, run_dir: Path, tally: Tally,
               digests: Digests) -> Dict:
    """Rounds of: per operation, the traced replay, the same replay untraced
    and in-process cli.main, while another round as long as the last still
    fits in `seconds` (at least one round); then the probe replays and the
    direct timings."""
    import tracing
    tr, silent = tracing.Tracer(), tracing.Tracer(enabled=False)
    rounds, own = [], []
    t_start = time.perf_counter()
    last_round = 0.0
    while not rounds or time.perf_counter() - t_start + last_round <= args.seconds:
        t_round = time.perf_counter()
        first_span = len(tr.spans)
        traced_s = untraced_s = main_s = 0.0
        for op in ops:
            t0 = time.perf_counter()
            replayed = tracing.replay(op, tr)
            traced_s += time.perf_counter() - t0
            t0 = time.perf_counter()
            again = tracing.replay(op, silent)[0]
            untraced_s += time.perf_counter() - t0
            code, main_text, seconds = tracing.cli_main(op)
            main_s += seconds
            done = _checked(op, replayed, tally, digests)
            tally.record(f"untraced {op.name}", [] if again == done["text"] else ["differs"])
            tally.record(f"cli.main {op.name}", [] if code == 0 and main_text == done["text"]
                         else [f"exit code {code} or output differs from the replay"])
            if not rounds:
                own.append(done)
        spans = tr.spans[first_span:]
        accounted = sum(sp["end"] - sp["start"] for sp in spans if sp["parent_id"] is not None)
        rounds.append({
            **{name: _span_total(spans, span) for name, span in tracing.LAYER_SPANS.items()},
            "cli.main_s": main_s,
            "trace.overhead_share": traced_s / untraced_s - 1,
            "trace.unaccounted_share": 1 - accounted / main_s,
            "self_s": tracing.self_times(spans),
        })
        last_round = time.perf_counter() - t_round

    first_span = len(tr.spans)
    probe = [_checked(op, tracing.replay(op, tr), tally, digests) for op in probes.ops]
    probe_spans = tr.spans[first_span:]
    (run_dir / "spans.json").write_text(json.dumps(tr.spans, indent=1))

    metrics = {name: statistics.median(r[name] for r in rounds)
               for name in rounds[0] if name != "self_s"}
    for name, span in tracing.LAYER_SPANS.items():
        if not metrics[name]:
            metrics[name] = _span_total(probe_spans, span)

    budget = 0.002 if args.smoke else 0.05
    configs = [r["config"] for r in own]
    for kind in tracing.KINDS:
        mine = [c for c in configs if c.field.kind == kind] or [probes.configs[kind]]
        for name, value in tracing.primitive_timings(mine, args.seed, budget).items():
            metrics[f"{name}.{kind}"] = value
    small = [c for c in configs if c.n < LEAN_THRESHOLD] or [probes.configs["rational"]]
    metrics["projective.spanned_lines_s"] = tracing.spanned_lines_s(small)
    metrics.update(tracing.spectrum_counts(_own_or_probe(own, probe, lambda r: [r["spectrum"]])))
    metrics["serialization.input_bytes"] = sum(_own_or_probe(
        own, probe, lambda r: [r["op"].input.size] if r["op"].input else []))
    metrics["inequalities.reports"] = sum(_own_or_probe(
        own, probe, lambda r: [len(json.loads(r["text"])["result"]["reports"])]
        if r["op"].command == "check" else []))
    metrics.update(tracing.generation_timings(sizes, args.seed))

    def searched(mode):
        return _own_or_probe(own, probe, lambda r: [r] if r["op"].search.get("mode") == mode
                             else [])[0]

    local = searched("local")["record"]
    metrics["search.local_evals"] = local.iterations
    metrics["search.local_evals_per_s"] = local.iterations / metrics["search.local_s"]
    exhaustive = searched("exhaustive")
    p = exhaustive["op"].search
    metrics["search.exhaustive_examined"] = exhaustive["record"].iterations
    metrics["search.exhaustive_prune_ratio"] = (exhaustive["record"].iterations
                                                / comb(p["g"] * p["g"], p["n"]))
    metrics["cli.startup_s"] = statistics.median(
        spawner.run(["analyze", str(probes.startup)], run_dir / "out-startup.txt")[1]
        for _ in range(STARTUP_REPEATS))

    names = {name for r in rounds for name in r["self_s"]}
    return {
        "metrics": metrics,
        "samples": len(rounds),
        "self_s": {name: statistics.median(r["self_s"].get(name, 0.0) for r in rounds)
                   for name in sorted(names)},
        "probe_self_s": tracing.self_times(probe_spans),
        "spans_file": str((run_dir / "spans.json").relative_to(ROOT)),
    }


# ---------------------------------------------------------------------------


def main(argv: Optional[List[str]] = None, tamper: Optional[Callable] = None) -> int:
    """`tamper`, for tests only, rewrites each CLI output before it is checked."""
    use_source_tree()
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", choices=("0", "1"), default="0")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, to exercise every workload in seconds")
    args = parser.parse_args(argv)
    with Spawner() as spawner:  # before this process loads anything large
        import workloads
        if args.workload not in workloads.WORKLOADS:
            parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
        specs = metric_specs()[args.trace]
        sizes = workloads.SMOKE if args.smoke else workloads.FULL
        name = f"{args.workload}-s{args.seed}" + ("-smoke" if args.smoke else "")
        run_dir = WORK / name
        shutil.rmtree(run_dir, ignore_errors=True)
        run_dir.mkdir(parents=True)
        digests = Digests(WORK / "digests" / f"{name}.json")
        tally = Tally()

        setup = SetUp(args, sizes, run_dir)
        t_start = time.perf_counter()
        while (len(setup.times) < SETUP_MIN_REPEATS
               or time.perf_counter() - t_start < SETUP_MIN_SECONDS):
            ops, probes = setup.repeat()
        ref_s = reference_loop_s()
        # Untimed warm-up: byte-compiles the package and fills the file cache.
        spawner.run(["analyze", str(probes.startup)], run_dir / "out-warmup.txt")

        if args.trace == "0":
            report = timed_run(spawner, ops, args.seconds, run_dir, tally, digests,
                               setup.repeat, tamper)
            report["metrics"]["setup_s"] = statistics.median(setup.times)
        else:
            report = traced_run(spawner, args, ops, probes, sizes, run_dir, tally, digests)
        tally.record("setup", [] if len(setup.hashes) == 1 else ["inputs differ between repeats"])
    digests.save()

    values = report.pop("metrics")
    mismatch = {m["name"] for m in specs} ^ set(values)
    if mismatch:
        raise RuntimeError(f"metrics and BENCHMARK.json disagree on {sorted(mismatch)}")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}
    full = {"context": context(args, ops, ref_s), **report,
            "failed_ops": {"value": tally.failed / tally.attempted, "unit": "ratio"},
            "problems": tally.problems, "metrics": metrics}
    (run_dir / "report.json").write_text(json.dumps(full, indent=1))
    print(json.dumps(full, indent=1))
    print(json.dumps({"correct": tally.failed == 0, "attempted": tally.attempted,
                      "failed": tally.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
