"""Run tests/test_simulator.py on each mutant of `pipeline.c` and report
the mutants that no test kills.

    python3 tools/pipeline_mutants.py [NAME ...]

MUTANTS is a fixed list of one-edit mutants: each comparison of `link_pass`,
`server_pass` and `expand_bursts` flipped between strict and non-strict, and
a few steps dropped or moved. Each edit must match the source exactly once,
so a list that no longer fits `pipeline.c` stops the run before any test.
NAMEs pick mutants from the list; without them every mutant runs. EQUIVALENT
says why each mutant that computes what the source computes survives.

Each mutant runs in a pytest process of its own with this module as its
plugin, which does what `sanitized_pipeline` does for its build: it points
`native.SOURCE` at the mutated file and replaces `simulator._PIPELINE`.
A mutant is killed by the first failing test (`-x`), a crash, or a run
longer than TIMEOUT_S. Hypothesis runs derandomized and keeps no example
database, so a report repeats. The builds go to a temporary home directory
that is removed at the end. Prints one line per mutant and exits 1 if a
mutant outside EQUIVALENT survives, or one inside it is killed.
"""
import os
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TESTS = "tests/test_simulator.py"
# the plain run takes about 12 s; a mutant that loops forever is cut here
TIMEOUT_S = 240
# the mutated source, for the plugin in each pytest process
_SOURCE_VAR = "PIPELINE_MUTANT_SOURCE"

# (name, text in pipeline.c, its replacement)
MUTANTS = [
    ("link: i < n", "while (i < n)", "while (i <= n)"),
    ("link: width < n - i", "width < n - i", "width <= n - i"),
    ("link: before > t[i]", "before > t[i] ?", "before >= t[i] ?"),
    ("link: k < j", "k < j; k++", "k <= j; k++"),
    ("link: lag > m", "m = lag > m ? lag : m;\n            c +=",
     "m = lag >= m ? lag : m;\n            c +="),
    ("link: k >= b", "k >= b &&", "k > b &&"),
    ("link: dep[k - b] > t[k]", "&& dep[k - b] > t[k]", "&& dep[k - b] >= t[k]"),
    ("link: episode k < n", "for (i = n; k < n; k++)", "for (i = n; k <= n; k++)"),
    ("link: dep[head] <= t[k] + tie_s", "dep[head] <= t[k] + tie_s", "dep[head] < t[k] + tie_s"),
    ("link: prev <= t[k]", "prev <= t[k]", "prev < t[k]"),
    ("link: the isnan walk is one head++",
     "do\n                    head++;\n                while (isnan(dep[head]));", "head++;"),
    ("link: width *= 2 dropped", "            width *= 2;\n", ""),
    ("server: k < n", "for (int64_t k = 0; k < n; k++)", "for (int64_t k = 0; k <= n; k++)"),
    ("server: lag > m", "m = lag > m ? lag : m;\n        double d",
     "m = lag >= m ? lag : m;\n        double d"),
    ("server: fabs(d) <= DBL_MAX", "fabs(d) <= DBL_MAX", "fabs(d) < DBL_MAX"),
    ("server: (k + 1) * proc", "(double)(k + 1) * proc", "(double)k * proc"),
    ("expand: q < nb", "q < nb", "q <= nb"),
    ("expand: k < counts[q]", "k < counts[q]", "k <= counts[q]"),
]

# why a mutant computes what the source does
EQUIVALENT = {
    "link: width < n - i": "at width == n - i both sides end the window at n",
    "link: before > t[i]": "on a tie both sides pick the same value, and a NaN before picks t[i]",
    "link: lag > m": "on a tie both sides pick the same value, and a NaN lag keeps m",
    "server: lag > m": "on a tie both sides pick the same value, and a NaN lag keeps m",
    "server: fabs(d) <= DBL_MAX": "d is a product by 1000.0, and no double times 1000.0 "
                                  "rounds to DBL_MAX: the largest finite product is "
                                  "1.7976931348623155e308",
}


def pytest_configure(config):
    """Load the mutant named by _SOURCE_VAR in place of the shipped build."""
    from hypothesis import settings

    from slicelab import native, simulator

    settings.register_profile("pipeline-mutants", database=None, derandomize=True)
    settings.load_profile("pipeline-mutants")
    native.SOURCE = Path(os.environ[_SOURCE_VAR])
    simulator._PIPELINE = native.load_pipeline()


def verdict(run):
    """What ended a mutant's pytest run: its first failing test, a crash, or nothing."""
    if run.returncode == 0:
        return "SURVIVED"
    failed = [line for line in run.stdout.splitlines() if line.startswith("FAILED ")]
    if failed:
        return f"killed by {failed[0].split()[1]}"
    if run.returncode < 0:
        return f"killed: crashed by signal {-run.returncode}"
    last = run.stdout.strip().rpartition("\n")[2]
    return f"killed: pytest exited {run.returncode}: {last}"


def main(names):
    original = (REPO / "src" / "slicelab" / "pipeline.c").read_text()
    chosen = [m for m in MUTANTS if not names or m[0] in names]
    if len(chosen) != len(names or MUTANTS):
        sys.exit(f"no mutant named {sorted(set(names) - {m[0] for m in MUTANTS})}")
    for name, old, _ in chosen:
        if original.count(old) != 1:
            sys.exit(f"{name}: {old!r} occurs {original.count(old)} times in pipeline.c")
    unexpected = 0
    with tempfile.TemporaryDirectory() as home:
        source = Path(home, "pipeline.c")
        path = os.pathsep.join(p for p in (str(REPO / "src"), str(REPO / "tools"),
                                           os.environ.get("PYTHONPATH")) if p)
        env = {**os.environ, "HOME": home, "PYTHONPATH": path, _SOURCE_VAR: str(source)}
        for name, old, new in chosen:
            source.write_text(original.replace(old, new))
            try:
                run = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                     "-p", "pipeline_mutants", TESTS],
                    cwd=REPO, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)
                result = verdict(run)
            except subprocess.TimeoutExpired:
                result = f"killed: ran past {TIMEOUT_S} s"
            if name in EQUIVALENT:
                result += f" (equivalent: {EQUIVALENT[name]})"
            unexpected += result.startswith("SURVIVED") != (name in EQUIVALENT)
            print(f"{name}: {result}", flush=True)
    print(f"{unexpected} of {len(chosen)} mutants ended otherwise than EQUIVALENT says")
    sys.exit(1 if unexpected else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
