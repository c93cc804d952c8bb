"""Mutation check of certificate-critical lines, run by hand:

    python tests/mutants.py            # every mutation
    python tests/mutants.py M6 M7      # the named ones

Each mutation is a (name, file, old text, new text) entry.  It is applied to
a temporary copy of ``src/``, ``tests/``, ``perfbench/`` and
``pyproject.toml``, never to the checkout it is run from; the old text must
occur exactly once in its file.  Tier-1 then runs on the copy with ``-x``,
and the mutation is reported killed, with the first test that failed, when
the suite fails, and survived when it passes.  No test is ever edited.
pytest does not collect this file (its name does not start with ``test_``).
The exit code is 0 when every mutation was applied and killed, 1 when one
survived, and 2 when one could not be applied.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "perfbench", "pyproject.toml")
TIER1 = ("-m", "pytest", "-q", "-x", "-rf", "-p", "no:cacheprovider",
         "--continue-on-collection-errors")

MUTANTS = [
    # the verdict: PASS iff violations / R <= delta; the boundary 1/20 = 0.05
    ("M6", "src/sgdcover/experiments.py",
     "passed=violations / resamplings <= delta,",
     "passed=violations / resamplings < delta,"),
    # a gap exactly equal to the certificate counted as a violation
    ("M7", "src/sgdcover/experiments.py",
     "violations = sum(g > threshold for g in max_gaps)",
     "violations = sum(g >= threshold for g in max_gaps)"),
    # the kernel's slow path projects an update it never checked
    ("kernel-unchecked", "src/sgdcover/sgd.py",
     "        _checked_update(thetas, g, out)\n",
     ""),
    # the ball's screen compares against fl(r*r), not the margin _inner_sq
    ("screen-r-squared", "src/sgdcover/core.py",
     "(sq @ np.ones(self.dim)).max(initial=0.0) <= self._inner_sq",
     "(sq @ np.ones(self.dim)).max(initial=0.0) <= self.radius * self.radius"),
    # the one-row inside test compares against fl(r*r), not the margin _inner_sq
    ("holds-r-squared", "src/sgdcover/core.py",
     "if np.vdot(off, off) <= self._inner_sq:",
     "if np.vdot(off, off) <= self.radius * self.radius:"),
    # a batch that fails the screen comes back unprojected
    ("screen-fail-unprojected", "src/sgdcover/sgd.py",
     "        return self.domain._project_rows(out)\n",
     "        return out\n"),
    # the inside margin 4(d + 2)u made 16 times smaller
    ("M11", "src/sgdcover/core.py",
     "r2 * (1 - 4 * (d + 2) * 2.0**-53)",
     "r2 * (1 - (d + 2) / 4 * 2.0**-53)"),
    # the concentration term's log(2/delta) made log(1/delta)
    ("concentration-log", "src/sgdcover/bounds.py",
     "math.log(2.0 / delta)) / (2.0 * n))",
     "math.log(1.0 / delta)) / (2.0 * n))"),
    # THM 2.3's slack 1/n halved
    ("thm23-slack", "src/sgdcover/bounds.py",
     "        conc=_concentration(B, T * math.log(n), delta, n),\n        slack=1.0 / n,",
     "        conc=_concentration(B, T * math.log(n), delta, n),\n        slack=0.5 / n,"),
    # verification accepts endpoints up to 1.5 epsilon from their entry
    ("verify-epsilon", "src/sgdcover/cover.py",
     "(dists > epsilon)",
     "(dists > 1.5 * epsilon)"),
    # a run's own entry replayed one step short
    ("own-entry-short", "src/sgdcover/cover.py",
     "np.full(trials, T), last, dataset)",
     "np.full(trials, T - 1), last, dataset)"),
    # a tree level filled with samples as the outer loop
    ("level-samples-outer", "src/sgdcover/cover.py",
     "for point in level\n                             for i in range(n))",
     "for i in range(n)\n                             for point in level)"),
    # dedupe keeps the last row of each point instead of the first
    ("dedupe-last", "src/sgdcover/cover.py",
     "return np.sort(np.unique(_point_keys(points), return_index=True)[1])",
     "return np.sort(len(points) - 1 - np.unique(_point_keys(points)[::-1], "
     "return_index=True)[1])"),
    # indices past a run's step count are left as drawn
    ("draw-no-zeroing", "src/sgdcover/sgd.py",
     "    indices[np.arange(t_max) >= steps[:, None]] = 0\n",
     ""),
]


def run(name: str, path: str, old: str, new: str) -> tuple[str, float, str]:
    """(verdict, seconds, the failed test or pytest's last line) of one mutation."""
    with tempfile.TemporaryDirectory(prefix="mutant-") as tmp:
        copy = Path(tmp)
        for entry in COPIED:
            source = ROOT / entry
            if source.is_dir():
                shutil.copytree(source, copy / entry,
                                ignore=shutil.ignore_patterns("__pycache__", ".*"))
            else:
                shutil.copy2(source, copy / entry)
        target = copy / path
        text = target.read_text()
        if text.count(old) != 1:
            return "not applied", 0.0, f"old text occurs {text.count(old)} times in {path}"
        target.write_text(text.replace(old, new))
        env = {**os.environ, "PYTHONPATH": "src", "PYTHONDONTWRITEBYTECODE": "1"}
        start = time.perf_counter()
        proc = subprocess.run([sys.executable, *TIER1], cwd=copy, env=env,
                              capture_output=True, text=True)
        seconds = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    failed = [line.split(" - ")[0] for line in lines if line.startswith(("FAILED ", "ERROR "))]
    last = failed[0] if failed else (lines[-1] if lines else "")
    return ("survived" if proc.returncode == 0 else "killed"), seconds, last


def main(names: list[str]) -> int:
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        print(f"unknown mutation(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    verdicts = []
    for name, path, old, new in MUTANTS:
        if names and name not in names:
            continue
        verdict, seconds, last = run(name, path, old, new)
        verdicts.append(verdict)
        print(f"{name:24s} {verdict:11s} {seconds:6.1f} s  {last}", flush=True)
    print(f"{verdicts.count('killed')} killed, {verdicts.count('survived')} survived, "
          f"{verdicts.count('not applied')} not applied")
    if "not applied" in verdicts:
        return 2
    return 1 if "survived" in verdicts else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
