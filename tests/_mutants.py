"""A mutation audit of the numeric harness: can the tests see a wrong law?

Each mutant is one small edit of the package source, given by the exact text
it replaces, which must occur once in its module.  For each mutant a copy of
``src/`` and ``tests/`` in a temporary directory gets the edit, and the tests
of ``numverify``, ``vectorvalued`` and ``almostholo`` run on the copy; the
mutant is killed when they fail.  The unmutated copy runs first and must pass.

The audit needs only the standard library (the tests it runs need pytest),
and tier-1 does not collect it.  Run from the repository root::

    python tests/_mutants.py

It prints one line per mutant, ``killed`` or ``SURVIVED``, and the running
time.  A survivor is a gap to close with a killing test, or a mutant to argue
equivalent in its entry here; the exit code is 0 either way.  It is 1 when the
unmutated copy fails, or when a mutant's text is not found once.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TESTS = ["tests/test_numverify.py", "tests/test_vectorvalued.py", "tests/test_almostholo.py"]

#: (name, module under src/qmforms, text, replacement)
MUTANTS = [
    ("c -> sign(c) in z'", "numverify.py",
     "LAMBDA * (gamma.a * w + gamma.c)", "LAMBDA * (gamma.a * w + (gamma.c > 0) - (gamma.c < 0))"),
    ("a -> d in z'", "numverify.py",
     "LAMBDA * (gamma.a * w + gamma.c)", "LAMBDA * (gamma.d * w + gamma.c)"),
    ("LAMBDA -> conj LAMBDA in z", "numverify.py",
     "z, z2 = LAMBDA * w / u,", "z, z2 = LAMBDA.conjugate() * w / u,"),
    ("m + 1 -> m roots of unity", "numverify.py",
     "for i in range(m + 1)] if m else [0j]", "for i in range(m)] if m else [0j]"),
    ("right-side tails x 0", "numverify.py",
     "left + abs(factor) * right", "left + 0 * abs(factor) * right"),
    ("a vanishing top component is not padded", "almostholo.py",
     "if len(coeffs) <= form.depth:", "if False:"),
    ("Yhat^r -> Yhat^(r + 1) in AlmostHolomorphicForm.evaluate", "almostholo.py",
     "_powers(yhat(tau.imag), self.degree)", "_powers(yhat(tau.imag), self.degree + 1)[1:]"),
    ("LAMBDA^r -> LAMBDA^(r + 1) in VectorValuedForm.evaluate", "vectorvalued.py",
     "lam_powers[r] * comb(m - r, i)", "LAMBDA ** (r + 1) * comb(m - r, i)"),
    ("-a -> a in the Ramanujan rule of derive", "quasimodular.py",
     "((a - 1, b + 1, c), -a)", "((a - 1, b + 1, c), a)"),
]


def run_tests(workdir):
    """The pytest exit code of ``TESTS`` on the copy in ``workdir``; it stops at the first failure."""
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *TESTS]
    return subprocess.run(command, cwd=workdir, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode


def copy(workdir):
    ignore = shutil.ignore_patterns("__pycache__")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, workdir / name, ignore=ignore)
    shutil.copy(ROOT / "pyproject.toml", workdir)


def main():
    start = time.perf_counter()
    with tempfile.TemporaryDirectory() as scratch:
        base = Path(scratch) / "unmutated"
        copy(base)
        if run_tests(base) != 0:
            print("the unmutated copy fails its tests: no mutant can be judged")
            return 1
        stale, survivors = False, 0
        for n, (name, module, text, replacement) in enumerate(MUTANTS):
            workdir = Path(scratch) / f"mutant{n}"
            copy(workdir)
            path = workdir / "src" / "qmforms" / module
            source = path.read_text()
            if source.count(text) != 1:
                print(f"{name}: not applied, {module} holds its text {source.count(text)} times, not once")
                stale = True
                continue
            path.write_text(source.replace(text, replacement))
            code = run_tests(workdir)
            survivors += code == 0
            print(f"{name}: {'SURVIVED' if code == 0 else f'killed (pytest exit {code})'}")
    print(f"{len(MUTANTS)} mutants, {survivors} survived, in {time.perf_counter() - start:.0f} s")
    return 1 if stale else 0


if __name__ == "__main__":
    sys.exit(main())
