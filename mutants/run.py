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
FIELDS = "src/linespectra/fields.py"
INEQUALITIES = "src/linespectra/inequalities.py"
PROJECTIVE = "src/linespectra/projective.py"
SERIALIZATION = "src/linespectra/serialization.py"
CONSTRUCTIONS = "src/linespectra/constructions.py"


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
    # every int triple over Q is signed here, for the generators, search,
    # the loader and the kernel's exact key
    Mutant("_primitive_scalars' sign rule flipped", PROJECTIVE,
           "if a < 0 or (a == 0 and (b < 0 or (b == 0 and c < 0))):",
           "if a > 0 or (a == 0 and (b > 0 or (b == 0 and c > 0))):",
           ("tests/test_projective.py",)),
    # a key that repeats by collision would count as one line
    Mutant("_on_line_mod always true", PROJECTIVE,
           "return not (point[0] * line[0] + point[1] * line[1] + point[2] * line[2]) % modulus",
           "return True",
           ("tests/test_projective.py",)),
    # only when os.fork fails: the caller skips the first stripe it could
    # not hand out
    Mutant("a stripe dropped in _forked_tallies' fork-failure fallback", PROJECTIVE,
           "for w in (0, *range(len(pids) + 1, workers))]",
           "for w in (0, *range(len(pids) + 2, workers))]",
           ("tests/test_projective.py",)),
    # sheared affine keys certified by no one past L = 65,535, where distinct
    # slopes can round to one double (L = 100,000 is inside both)
    Mutant("injectivity bound raised x4", PROJECTIVE,
           "_INJECTIVE_LIMIT = 2 ** 51",
           "_INJECTIVE_LIMIT = 2 ** 53",
           ("tests/test_projective.py",)),
    Mutant("injectivity bound raised x16", PROJECTIVE,
           "_INJECTIVE_LIMIT = 2 ** 51",
           "_INJECTIVE_LIMIT = 2 ** 55",
           ("tests/test_projective.py",)),
    # the key after each repeat is never removed, so a third member right
    # after the second raises no KeyError
    Mutant("_counted_row's removal scan resumes one key late", PROJECTIVE,
           "                j = i + size - operator.length_hint(rest)\n",
           "                j = i + size - operator.length_hint(rest)\n"
           "                next(rest, None)\n",
           ("tests/test_projective.py",)),
    # lines (0 : 1 : c) and (1 : 1 : c) would share a key mod p
    Mutant("_image_screen's row key loses its x flag", PROJECTIVE,
           "return [(x and 1, y * inv % prime, z * inv % prime)",
           "return [(1, y * inv % prime, z * inv % prime)",
           ("tests/test_projective.py",)),
    Mutant("_merged keeps the larger group count", PROJECTIVE,
           "group_sizes[size] = group_sizes.get(size, 0) + count",
           "group_sizes[size] = max(group_sizes.get(size, 0), count)",
           ("tests/test_projective.py",)),
    # "p/0" would reach the common denominator as a zero
    Mutant("_parse_coeff without its nonzero-denominator check", SERIALIZATION,
           "                if q:\n                    return int(num), q\n",
           "                return int(num), q\n",
           ("tests/test_serialization.py",)),
    # the certificate modulus below (6 L^3)^deg: a determinant can vanish mod
    # m without vanishing
    Mutant("_evaluation's r too small over Q(sqrt d)", FIELDS,
           "r = 6 * bound ** 3 + s + 1",
           "r = bound ** 3 + s + 1",
           ("tests/test_projective.py",)),
    Mutant("_evaluation's r too small over Q(zeta_N)", FIELDS,
           "r = 6 * bound ** 3 + 2",
           "r = bound ** 3 + 2",
           ("tests/test_projective.py",)),
    # the row keys of _image_screen scale each cross product by these
    Mutant("_inverses' first inverse doubled", PROJECTIVE,
           "    out[0] = inv\n",
           "    out[0] = inv * 2 % p\n",
           ("tests/test_projective.py",)),
    Mutant("_inverses' prefix products over the reversed pivots", PROJECTIVE,
           "prefix = list(accumulate(values, lambda a, b: a * b % p))",
           "prefix = list(accumulate(values[::-1], lambda a, b: a * b % p))",
           ("tests/test_projective.py",)),
    Mutant("Configuration.is_real always true", PROJECTIVE,
           "return fld.is_real() or all(",
           "return True or all(",
           ("tests/test_projective.py",)),
    # every step of _unit_tower with o > 2 loses its last conjugate
    Mutant("_adjugate drops the last conjugate of each step", FIELDS,
           "for j in range(2, o):",
           "for j in range(2, o - 1):",
           ("tests/test_fields.py",)),
    # powers zeta^k with k >= N are no longer reduced mod N
    Mutant("_zeta_sum takes a wrong power row", FIELDS,
           "for i, r in enumerate(rows[k % N]):",
           "for i, r in enumerate(rows[min(k, N - 1)]):",
           ("tests/test_fields.py",)),
    Mutant("_over_x_minus_1 weights zeta^(e j) by j + 1", CONSTRUCTIONS,
           "return [(c + e * j, scale * j) for j in range(1, M)]",
           "return [(c + e * j, scale * (j + 1)) for j in range(1, M)]",
           ("tests/test_constructions.py",)),
    # fermat(3), boroczky(3), two_lines(2) and near_pencil(3) each have two
    # kinds of line of one size
    Mutant("expected_spectrum keeps the last count of a size", CONSTRUCTIONS,
           "spectrum[size] = spectrum.get(size, 0) + count",
           "spectrum[size] = count",
           ("tests/test_constructions.py",)),
    # random_config's and search's draw, written out on getrandbits
    Mutant("_distinct_points keeps an x equal to its bound", CONSTRUCTIONS,
           "        while x >= bound:",
           "        while x > bound:",
           ("tests/test_constructions.py",)),
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
