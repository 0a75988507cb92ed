"""Mutation checks: each mutant replaces one exact snippet of a source file,
and names the tests that must fail on the result.

    python tests/mutants.py [NAME...]

applies each named mutant (every one by default) to its own temporary copy
of the tree, runs its tests there with `pytest -x -q`, and prints one line
per mutant: killed (the tests fail), survived (they pass) or error (pytest
could not run them).  It exits 1 if any mutant survives or errs, and 2 on
an unknown name or a snippet that does not occur exactly once in its file.
Standard library only; the tests run under the interpreter that runs this.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]


class Mutant(NamedTuple):
    name: str
    file: str  # relative to the repository root
    snippet: str  # occurs exactly once in file
    replacement: str
    tests: tuple  # pytest ids, relative to the repository root


_LOOKUP = "tests/test_exact.py::TestRowLookup"
_MASKED = "tests/test_dynamics.py::TestMaskedSteps"
_SLOTS = "tests/test_dynamics.py::TestSlotThresholds"
_SQUARED = "tests/test_exact.py::TestSquaredMixing"

MUTANTS = (
    Mutant("lookup-sorted-position", "src/glauberlab/ordercore.py",
           "at = order[np.searchsorted(self.codes, codes, sorter=order) % k]",
           "at = np.searchsorted(self.codes, codes, sorter=order) % k",
           (f"{_LOOKUP}::test_hand_built_unsorted_posets",
            f"{_LOOKUP}::test_lookups_equal_the_tuple_oracles")),
    Mutant("extension-ascends", "src/glauberlab/ordercore.py",
           "np.lexsort(self.array.T[::-1])[::-1].tolist()",
           "np.lexsort(self.array.T[::-1]).tolist()",
           (f"{_LOOKUP}::test_hand_built_unsorted_posets",)),
    Mutant("in-accepts-3", "src/glauberlab/ordercore.py",
           "{*state} <= {0, 1, STAR}",
           "{*state} <= {0, 1, STAR, 3}",
           (f"{_LOOKUP}::test_hand_built_unsorted_posets",)),
    Mutant("index-uncontracted", "src/glauberlab/exact.py",
           "state_codes(np.minimum(t.lsup.array, 1))",
           "state_codes(t.lsup.array)",
           (f"{_LOOKUP}::test_lookups_equal_the_tuple_oracles",)),
    Mutant("two-level-stale-chunk", "src/glauberlab/dynamics.py",
           "if at < 0:",
           "if False:",
           ("tests/test_dynamics.py::TestCensored"
            "::test_two_level_reads_backward",)),
    Mutant("lone-step-drops-spare", "src/glauberlab/dynamics.py",
           "v, spare, has = lo[i], hi[i], 1",
           "v, spare, has = lo[i], hi[i], 0",
           (f"{_MASKED}::test_censored_periods",
            f"{_MASKED}::test_chunks_end_inside_a_block_of_words")),
    Mutant("no-rejection-fallback", "src/glauberlab/dynamics.py",
           "elif not ok or spare < 0 < has:",
           "elif False:",
           (f"{_MASKED}::test_rejected_half_in_a_block",)),
    Mutant("censored-masks-uncapped", "src/glauberlab/dynamics.py",
           "if len(masks) == _CENSORED_MASKS:",
           "if False:",
           (f"{_MASKED}::test_long_runs_hold_one_block",)),
    # a two-value slot steps by u < p0: at u = p0 it takes the second value
    Mutant("walk-threshold-inclusive", "src/glauberlab/dynamics.py",
           "            node, slot = graph.fill(node, v)\n"
           "        if u < slot[0]:",
           "            node, slot = graph.fill(node, v)\n"
           "        if u <= slot[0]:",
           (f"{_SLOTS}::test_uniforms_on_thresholds",)),
    Mutant("masked-threshold-inclusive", "src/glauberlab/dynamics.py",
           "                                node, slot = graph.fill(node, w)\n"
           "                            u = unif[i]\n"
           "                            i += 1\n"
           "                            if u < slot[0]:",
           "                                node, slot = graph.fill(node, w)\n"
           "                            u = unif[i]\n"
           "                            i += 1\n"
           "                            if u <= slot[0]:",
           (f"{_SLOTS}::test_uniforms_on_thresholds",)),
    Mutant("successors-swapped", "src/glauberlab/dynamics.py",
           "(cum[0], edges[0], succ[0], edges[1], succ[1], None)",
           "(cum[0], edges[0], succ[1], edges[1], succ[0], None)",
           (f"{_SLOTS}::test_uniforms_on_thresholds",)),
    Mutant("two-level-sets-shifted", "src/glauberlab/dynamics.py",
           "at = chunk(first + len(out))",
           "at = chunk(first + len(out) + 1)",
           (f"{_MASKED}::test_chunks_end_inside_a_block_of_words",)),
    Mutant("floor-certificate-no-margin", "src/glauberlab/exact.py",
           "<= eps - _power_margin(mats, mus, eps, floor))",
           "<= eps)",
           (f"{_SQUARED}::test_near_tie_takes_the_step_loop",)),
    Mutant("floor-certificate-next-power", "src/glauberlab/exact.py",
           "_worst_tv(_power(mats, floor), mus)",
           "_worst_tv(_power(mats, floor + 1), mus)",
           (f"{_SQUARED}::test_chains_within_eps_at_the_start_leave_the_stack",
            f"{_SQUARED}::test_floor_gives_the_loop_time_or_the_floor")),
    Mutant("rc-labels-merged-to-smaller", "src/glauberlab/models.py",
           "np.where(rows[:, i] == 1, np.maximum(a, b), -1)",
           "np.where(rows[:, i] == 1, np.minimum(a, b), -1)",
           ("tests/test_models.py::TestArrayForms"
            "::test_array_forms_equal_the_per_state_forms",)),
)


def check_table(root: Path = ROOT) -> list:
    """Why the table cannot run: duplicate names, and each snippet that
    does not occur exactly once in its file, or is its own replacement."""
    errors = []
    names = [m.name for m in MUTANTS]
    if len(set(names)) != len(names):
        errors.append("duplicate mutant names")
    for m in MUTANTS:
        count = (root / m.file).read_text().count(m.snippet)
        if count != 1:
            errors.append(f"{m.name}: the snippet occurs {count} times in "
                          f"{m.file}")
        if m.snippet == m.replacement:
            errors.append(f"{m.name}: the replacement is the snippet")
        if not m.tests:
            errors.append(f"{m.name}: no test is named")
    return errors


def _ignored(directory, names):
    return {name for name in names
            if name in {".git", ".hypothesis", ".pytest_cache",
                        "__pycache__"} or name.endswith(".egg-info")}


def run(mutant: Mutant) -> str:
    """killed, survived or error: the mutant's tests on a mutated copy."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=_ignored)
        path = tree / mutant.file
        path.write_text(path.read_text().replace(mutant.snippet,
                                                 mutant.replacement))
        done = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p",
             "no:cacheprovider", *mutant.tests],
            cwd=tree, capture_output=True, text=True,
            env=dict(os.environ, PYTHONPATH=str(tree / "src")))
    # pytest exits 1 when a test fails, 0 when all pass, and otherwise
    # when it could not collect or run them
    return {0: "survived", 1: "killed"}.get(done.returncode, "error")


def main(argv) -> int:
    errors = check_table()
    table = {m.name: m for m in MUTANTS}
    errors += [f"unknown mutant {name}" for name in argv if name not in table]
    if errors:
        print("\n".join(errors), file=sys.stderr)
        return 2
    bad = 0
    for name in argv or list(table):
        start = time.perf_counter()
        outcome = run(table[name])
        bad += outcome != "killed"
        print(f"{name}: {outcome} ({time.perf_counter() - start:.1f} s)",
              flush=True)
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
