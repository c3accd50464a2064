"""Guard mutants for randlab's checkers.

Each mutant rewrites one guard of a checker in a temporary copy of the
checkout: the guard that reports a violation is made never to fire, or its
comparison loses or gains strictness.  The tier-1 suite then runs on the
copy with -x, and the mutant is killed when some test fails.  A checker
whose mutant survives has a verdict no test ever sees.

    python tools/mutants.py

The unmutated copy runs first and must pass.  One row is printed per
mutant; the exit status is 1 when any mutant was not killed.  Killed runs take
seconds to a minute and surviving ones the whole suite, so expect tens of
minutes for the full list.  Uses the stdlib only, one pytest process at a
time.
"""

import ast
import os
import resource
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent

# (module, function or Class.method, guard text, mutated text, what the guard checks)
MUTANTS = [
    ("measure.py", "check_additivity", "if (n0 * d1 + n1 * d0) * d != n * d0 * d1:", "if False:", "additivity fails"),
    ("measure.py", "check_additivity", "if n == 0 and (n0 != 0 or n1 != 0):", "if False:", "null cylinder has massive child"),
    ("measure.py", "measures_agree", "if an * bd != bn * ad:", "if False:", "masses differ"),
    ("martingale.py", "_fairness_visit", "if mn != 0:", "if False:", "capital undefined on positive cylinder"),
    ("martingale.py", "_fairness_visit", "elif mn == 0:", "elif False:", "capital defined on null cylinder"),
    ("martingale.py", "_fairness_visit", "elif cn < 0:", "elif False:", "negative capital"),
    ("martingale.py", "_fairness_visit", "if mn > 0 and ln * td != tn * ld:", "if False:", "fairness fails"),
    ("martingale.py", "ville_audit", "if top_n * qd >= qn * top_d:", "if False:", "path hits the threshold"),
    ("martingale.py", "ville_audit", "passed=fraction <= bound", "passed=True", "hitting mass within the bound"),
    ("martingale.py", "ville_monte_carlo", "if best_n * qd >= qn * best_d:", "if False:", "sample hits the threshold"),
    ("randtests.py", "_verify_ml_levels", "if a << n > b:", "if False:", "level mass exceeds 2^-n"),
    ("randtests.py", "_verify_integral", "if v < 0]", "if False]", "negative step value"),
    ("randtests.py", "_check_bounds", "if (a << n * shift) * bd > bn * b:", "if False:", "integral exceeds the bound"),
    ("randtests.py", "_check_bounds", "if bn * ud > un * bd:", "if False:", "domination witness fails"),
    ("randtests.py", "check_coverage_transfer", "if a * md != mn * b:", "if False:", "prefix escapes level n"),
    ("betting.py", "StrategyKernel.resolve", "if not (0 <= sn <= sd if cn > 0 else cn == 0 and not stake):", "if False:", "stake outside [0, capital]"),
    ("betting.py", "StrategyKernel.resolve", "if stake < 0:", "if False:", "negative stake"),
    ("betting.py", "StrategyKernel.resolve", "if knowledge.null or qn == 0 or qn == qd:", "if False:", "conditionally null or sure event"),
    ("martingale.py", "ville_audit", "if top_n * qd >= qn * top_d:", "if top_n * qd > qn * top_d:", "path hits the threshold, strict"),
    ("martingale.py", "ville_monte_carlo", "if best_n * qd >= qn * best_d:", "if best_n * qd > qn * best_d:", "sample hits the threshold, strict"),
    ("martingale.py", "_fairness_visit", "elif cn < 0:", "elif cn <= 0:", "negative capital, lax"),
    ("randtests.py", "_verify_ml_levels", "if a << n > b:", "if a << n >= b:", "level mass exceeds 2^-n, lax"),
    ("randtests.py", "_verify_integral", "if v < 0]", "if v <= 0]", "negative step value, lax"),
    ("randtests.py", "_check_bounds", "if (a << n * shift) * bd > bn * b:", "if (a << n * shift) * bd >= bn * b:", "integral exceeds the bound, lax"),
    ("randtests.py", "_check_bounds", "if bn * ud > un * bd:", "if bn * ud >= un * bd:", "domination witness fails, lax"),
    ("randtests.py", "check_coverage_transfer", "if f is not None and f >= 2**n:", "if f is not None and f > 2**n:", "floor of exactly 2^n counted"),
    ("betting.py", "StrategyKernel.resolve", "if stake < 0:", "if stake <= 0:", "negative stake, lax"),
    ("martingale.py", "ville_audit", "if mn == 0:", "if False:", "null subtree skipped"),
    ("martingale.py", "QuotientKernel.read_pair", "if mn < 0:", "if False:", "negative mass read with den > 0"),
    ("machines.py", "deficiency_trace", "if bracket is None:", "if False:", "null cell ends the trace"),
    ("rationals.py", "neg_log2_bracket", "if a == b:", "if False:", "bracket collapses on a power of two"),
    # past the a == b return, a <= b would be the same test as a < b
    ("rationals.py", "neg_log2_bracket", "if a < b:", "if a > b:", "ceil(-log2) steps up, reversed"),
    ("betting.py", "LikelihoodRatioStrategy.share", "if knowledge.null or not", "if not", "null knowledge state"),
]

# a fixed hypothesis seed makes every row reproducible
SUITE = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", "--hypothesis-seed=0"]
# a mutant can make a test loop or grow without end, so each run gets this
# much address space (past it an allocation raises MemoryError) and time
# (past it the run is stopped and counts as not killed)
MEMORY_BYTES, TIMEOUT_S = 2 << 30, 900


def _span(tree, name: str):
    """(first, last) line of the function, or Class.method, with that name."""
    scope = tree
    for part in name.split("."):
        scope = next(n for n in ast.walk(scope) if isinstance(n, (ast.FunctionDef, ast.ClassDef)) and n.name == part)
    return scope.lineno, scope.end_lineno


def mutate(source: str, name: str, guard: str, mutant: str) -> str:
    """The source with the one occurrence of guard inside the named function
    replaced by mutant; a guard that is missing or repeated there is an error."""
    first, last = _span(ast.parse(source), name)
    lines = source.splitlines(keepends=True)
    body = "".join(lines[first - 1 : last])
    if body.count(guard) != 1:
        raise ValueError(f"{name}: guard {guard!r} occurs {body.count(guard)} times")
    return "".join(lines[: first - 1]) + body.replace(guard, mutant) + "".join(lines[last:])


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


def run_suite(root: Path) -> tuple:
    """(pytest's exit status or "timeout", seconds) for tier-1 on the copy at root."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONDONTWRITEBYTECODE="1")
    start = time.perf_counter()
    try:
        done = subprocess.run(
            SUITE, cwd=root, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, preexec_fn=_limit_memory, timeout=TIMEOUT_S
        )
        code = done.returncode
    except subprocess.TimeoutExpired:
        code = "timeout"
    return code, time.perf_counter() - start


def main() -> int:
    with tempfile.TemporaryDirectory(prefix="randlab-mutants-") as scratch:
        root = Path(scratch) / "repo"
        ignore = shutil.ignore_patterns(".git", "__pycache__", ".hypothesis", ".pytest_cache", ".bench_work")
        shutil.copytree(REPO, root, ignore=ignore)
        code, seconds = run_suite(root)
        print(f"unmutated suite: exit {code} in {seconds:.0f} s", flush=True)
        if code != 0:
            return 2
        print("| # | module | function | guard checks | mutant | result | s |\n|---|---|---|---|---|---|---|", flush=True)
        killed = 0
        for i, (module, name, guard, mutant, what) in enumerate(MUTANTS, 1):
            path = root / "src" / "randlab" / module
            original = path.read_text()
            path.write_text(mutate(original, name, guard, mutant))
            try:
                code, seconds = run_suite(root)
            finally:
                path.write_text(original)
            result = {0: "SURVIVED", 1: "killed"}.get(code, f"error ({code})")
            killed += code == 1
            print(f"| {i} | {module} | {name} | {what} | `{mutant}` | {result} | {seconds:.0f} |", flush=True)
    print(f"{len(MUTANTS)} mutants: {killed} killed, {len(MUTANTS) - killed} not killed")
    return 0 if killed == len(MUTANTS) else 1


if __name__ == "__main__":
    sys.exit(main())
