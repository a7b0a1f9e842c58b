"""Mutation harness: break the package on purpose and check that the tests
notice.

Run from the root of a source checkout:

    python3 mutants/run.py

Each mutant is one exact text replacement in one file under src/.  For each,
the harness copies src/, tests/ and pyproject.toml to a temporary directory,
applies the replacement there and runs the mutant's test files with
`pytest -x`.  A mutant is caught when those tests fail and survives when they
pass.  Before any mutant runs, every target text must occur exactly once and
the unmutated copy must pass every named test file; otherwise the harness
stops with exit code 1, so the list has to follow the code.  It prints one
line per mutant and exits 1 if any mutant survives, 0 if all are caught.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Tuple

ROOT = Path(__file__).resolve().parent.parent
INEQUALITIES = "src/linespectra/inequalities.py"


class Mutant(NamedTuple):
    name: str
    path: str
    old: str
    new: str
    tests: Tuple[str, ...]


MUTANTS = [
    # the two hypotheses' order decides which reason an n = 2 collinear
    # spectrum prints; only the report pin sees it
    Mutant("weak_dirac hypotheses swapped", INEQUALITIES,
           '(s.n >= 3, "needs at least 3 points"),\n'
           '                 (s.max_collinear < s.n, "all points collinear"))',
           '(s.max_collinear < s.n, "all points collinear"),\n'
           '                 (s.n >= 3, "needs at least 3 points"))',
           ("tests/test_inequalities.py",)),
    Mutant("2n/3 gate dropped in check_section3_chain", INEQUALITIES,
           "    gate = _cap(s)\n    n = s.n\n",
           "    gate = True, _cap(s)[1]\n    n = s.n\n",
           ("tests/test_inequalities.py",)),
    Mutant("n/4 -> n/3 in l2l3_vs_quarter_n", INEQUALITIES,
           "l23, Fraction(n, 4) + Fraction(3, 8)",
           "l23, Fraction(n, 3) + Fraction(3, 8)",
           ("tests/test_inequalities.py",)),
    Mutant("ALPHA's sqrt(3) coefficient 1/9 -> 1/8", INEQUALITIES,
           "element([Fraction(2, 3), Fraction(1, 9)])",
           "element([Fraction(2, 3), Fraction(1, 8)])",
           ("tests/test_inequalities.py",)),
    Mutant("_above without its gap > 0 test", INEQUALITIES,
           "return lhs, rhs, gap > 0 and lhs > rhs",
           "return lhs, rhs, lhs > rhs",
           ("tests/test_inequalities.py",)),
    Mutant("_gate reads only its first hypothesis", INEQUALITIES,
           "for holds, reason in hypotheses:",
           "for holds, reason in hypotheses[:1]:",
           ("tests/test_inequalities.py",)),
]


def _copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def _passes(mutant: Optional[Mutant], tests: Tuple[str, ...]) -> bool:
    """Whether `tests` pass on a copy of the tree with `mutant` applied."""
    with tempfile.TemporaryDirectory(prefix="linespectra-mutant-") as tmp:
        work = Path(tmp)
        _copy_tree(work)
        if mutant is not None:
            target = work / mutant.path
            text = target.read_text()
            target.write_text(text.replace(mutant.old, mutant.new))
        env = dict(os.environ, PYTHONPATH=str(work / "src"), PYTHONDONTWRITEBYTECODE="1")
        run = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *tests],
            cwd=work, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        return run.returncode == 0


def main() -> int:
    for m in MUTANTS:
        found = (ROOT / m.path).read_text().count(m.old)
        if found != 1:
            sys.exit(f"error: mutant {m.name!r}: its target text occurs {found} times "
                     f"in {m.path}, not once")
    every_test = tuple(sorted({t for m in MUTANTS for t in m.tests}))
    if not _passes(None, every_test):
        sys.exit("error: the unmutated tree fails " + " ".join(every_test))
    survived = 0
    for m in MUTANTS:
        start = time.perf_counter()
        caught = not _passes(m, m.tests)
        survived += not caught
        print(f"{'caught' if caught else 'SURVIVED':8} {time.perf_counter() - start:5.1f} s"
              f"  {m.name}", flush=True)
    print(f"{len(MUTANTS) - survived} of {len(MUTANTS)} mutants caught")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main())
