"""Run tests/test_simulator.py on each mutant of `pipeline.c` and report
the mutants that no test kills.

    python3 tools/pipeline_mutants.py [NAME ...]

MUTANTS is a fixed list of one-edit mutants: each comparison of
`check_packet`, `link_pass`, `server_pass`, `run_pipeline`'s zero-rate test
and compaction and its entry's bad-size scan flipped between strict and
non-strict, the horizon tests of the stream draw flipped, and a few steps
of those, of `check_pass`, of `seed_state` and of the PCG64 port dropped or
moved. The mutated source is built as `native` builds the shipped one, an
extension module linked with numpy's distributions archive. Each edit
must match the source exactly once, so a list that no longer fits
`pipeline.c` stops the run before any test. NAMEs pick mutants from the
list; without them every mutant runs. EQUIVALENT says why each mutant that
computes what the source computes survives. The mutants in SANITIZED may do
no more than read or write out of bounds, so they run on the build of
`sanitized_pipeline`, with its runtimes preloaded, where the first bad
access aborts the run.

Each mutant runs in a pytest process of its own with this module as its
plugin, which does what `sanitized_pipeline` does for its build: it points
`native.SOURCE` at the mutated file and replaces `native.LIBRARY`.
A mutant is killed by the first failing test (`-x`), a crash, or a run
longer than TIMEOUT_S; for a crash or a hang the report names the test
that was running, from the traceback Python's faulthandler writes (on the
crash, or after pytest's `faulthandler_timeout`). Hypothesis runs
derandomized and keeps no example database, so a report repeats. The builds
go to a temporary home directory that is removed at the end. Prints one line
per mutant and exits 1 if a mutant outside EQUIVALENT survives, or one
inside it is killed.
"""
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
TESTS = "tests/test_simulator.py"
# the plain run takes about 12 s; a mutant that loops forever is cut here,
# after pytest's faulthandler_timeout (300 s) has dumped its traceback
TIMEOUT_S = 330
# the mutated source, for the plugin in each pytest process, and whether
# to build it with the sanitizers
_SOURCE_VAR = "PIPELINE_MUTANT_SOURCE"
_SANITIZED_VAR = "PIPELINE_MUTANT_SANITIZED"

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
    ("link: the window's packet check dropped",
     "            int64_t bad = check_packet(t, sizes, k, &last);\n"
     "            if (bad)\n                return bad;\n            double lag",
     "            double lag"),
    ("link: the episode's packet check dropped",
     "            int64_t bad = check_packet(t, sizes, k, &last);\n"
     "            if (bad)\n                return bad;\n            if (dep[head]",
     "            if (dep[head]"),
    ("check: t[k] >= last", "if (!(t[k] >= *last))", "if (!(t[k] > *last))"),
    ("check: sizes[k] >= 0.0", "if (!(sizes[k] >= 0.0))", "if (!(sizes[k] > 0.0))"),
    ("check: the order test dropped", "    if (!(t[k] >= *last))\n        return UNSORTED;\n", ""),
    ("check: the size test dropped", "    if (!(sizes[k] >= 0.0))\n        return BAD_SIZE;\n", ""),
    ("check: last = t[k] dropped", "    *last = t[k];\n", ""),
    ("check_pass: k < n", "k < n; k++) {\n        int64_t bad",
     "k <= n; k++) {\n        int64_t bad"),
    ("check_pass: its call dropped", "int64_t code = check_pass(t, sizes, n);",
     "int64_t code = 0;"),
    ("strand: rate <= 0.0", "bool stranded = rate <= 0.0;", "bool stranded = rate < 0.0;"),
    ("strand: bps[e] <= 0.0", "stranded |= bps[e] <= 0.0;", "stranded |= bps[e] < 0.0;"),
    ("entry: the bad-size scan's size[k] >= 0.0", "while (size[k] >= 0.0)",
     "while (size[k] > 0.0)"),
    ("compaction: e < edges - 1", "if (e < edges - 1)", "if (e <= edges - 1)"),
    ("compaction: served[s] = 0 dropped", "                    served[s] = 0;\n", ""),
    ("compaction: the survivor test flipped", "if (isnan(dep[k]))", "if (!isnan(dep[k]))"),
    ("compaction: the scratch bound moved by one", "kept_sizes = scratch + n;",
     "kept_sizes = scratch + n - 1;"),
    ("compaction: k < m", "k < m; k++, s++", "k <= m; k++, s++"),
    ("server: k < n", "for (int64_t k = 0; k < n; k++) {\n        double lag",
     "for (int64_t k = 0; k <= n; k++) {\n        double lag"),
    ("server: lag > m", "m = lag > m ? lag : m;\n        double d",
     "m = lag >= m ? lag : m;\n        double d"),
    ("server: fabs(d) <= DBL_MAX", "fabs(d) <= DBL_MAX", "fabs(d) < DBL_MAX"),
    ("server: (k + 1) * proc", "(double)(k + 1) * proc", "(double)k * proc"),
    ("pcg64: the rotation >> 121", "(unsigned)(s >> 122)", "(unsigned)(s >> 121)"),
    ("pcg64: the has_uint32 buffer dropped",
     "    if (r->has_uint32) {\n        r->has_uint32 = 0;\n        return r->uinteger;\n    }\n",
     ""),
    ("draw: burst start t >= horizon", "if (t >= horizon)", "if (t > horizon)"),
    ("draw: the Poisson carry of t dropped", "double s = t;", "double s = 0.0;"),
    ("draw: the expansion's a >= horizon", "if (a >= horizon)", "if (a > horizon)"),
    ("seed: s != d dropped", "            if (s != d)\n", ""),
    ("seed: hashmix >> 16", "value ^ (value >> 16)", "value ^ (value >> 15)"),
    ("seed: the pool index moved by one", "pool[k % POOL]", "pool[(k + 1) % POOL]"),
    ("seed: the extra-entropy loop starts at 3", "int64_t s = POOL;", "int64_t s = 3;"),
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
    "draw: burst start t >= horizon": "a burst that starts at the horizon puts no packet: "
                                      "its packet 0, at the horizon, is cut by the "
                                      "expansion, and the bursts after it start no sooner",
    "compaction: the scratch bound moved by one": "a link that drops keeps at most n - 1 "
                                                  "packets, so the kept creation times end "
                                                  "before n - 1 and the kept sizes, from "
                                                  "n - 1, end before 2n - 2",
}

# mutants whose only effect may be an access out of bounds
SANITIZED = {"compaction: e < edges - 1", "compaction: the scratch bound moved by one",
             "compaction: k < m", "check_pass: k < n", "server: k < n"}


def pytest_configure(config):
    """Load the mutant named by _SOURCE_VAR in place of the shipped build."""
    from hypothesis import settings

    from sanitized_pipeline import FLAGS
    from slicelab import native

    settings.register_profile("pipeline-mutants", database=None, derandomize=True)
    settings.load_profile("pipeline-mutants")
    native.SOURCE = Path(os.environ[_SOURCE_VAR])
    if os.environ.get(_SANITIZED_VAR):
        native.COMMAND = (*native.COMMAND, *FLAGS)
    native.LIBRARY = native.load_pipeline()


def running_test(stderr):
    """The innermost test function in the traceback faulthandler dumped, or '?'."""
    frames = re.findall(r'File "[^"]*/(tests/\w+\.py)", line \d+ in (test_\w+)', stderr)
    return "::".join(frames[0]) if frames else "?"


def verdict(returncode, stdout, stderr):
    """What ended a mutant's pytest run: its first failing test, a sanitizer's
    report, a crash, or nothing."""
    if returncode == 0:
        return "SURVIVED"
    failed = [line for line in stdout.splitlines() if line.startswith("FAILED ")]
    if failed:
        return f"killed by {failed[0].split()[1]}"
    report = re.search(r"ERROR: AddressSanitizer: ([\w-]+)|runtime error: .*", stderr)
    if report:
        where = re.search(r"pipeline\.c:\d+", stderr)
        return (f"killed by the sanitizer in {running_test(stderr)}: "
                f"{report.group(1) or report.group(0)} at {where and where.group(0)}")
    if returncode < 0:
        return f"killed: crashed by signal {-returncode} in {running_test(stderr)}"
    last = stdout.strip().rpartition("\n")[2]
    return f"killed: pytest exited {returncode}: {last}"


def sanitizer_env():
    """The environment a sanitized build loads in: both runtimes preloaded,
    and a report that aborts, so that faulthandler names the test."""
    runtimes = [subprocess.run([shutil.which("cc"), f"-print-file-name={lib}"],
                               capture_output=True, text=True, check=True).stdout.strip()
                for lib in ("libasan.so", "libubsan.so")]
    return {"LD_PRELOAD": " ".join(runtimes), _SANITIZED_VAR: "1",
            "ASAN_OPTIONS": "detect_leaks=0:abort_on_error=1",
            "UBSAN_OPTIONS": "abort_on_error=1"}


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
            sanitized = name in SANITIZED
            try:
                run = subprocess.run(
                    [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                     "-p", "pipeline_mutants", *(["--capture=sys"] if sanitized else []), TESTS],
                    cwd=REPO, env={**env, **(sanitizer_env() if sanitized else {})},
                    capture_output=True, text=True, timeout=TIMEOUT_S)
                result = verdict(run.returncode, run.stdout, run.stderr)
            except subprocess.TimeoutExpired as err:
                hung = running_test((err.stderr or b"").decode(errors="replace"))
                result = f"killed: ran past {TIMEOUT_S} s in {hung}"
            if sanitized:
                result += " (sanitized build)"
            if name in EQUIVALENT:
                result += f" (equivalent: {EQUIVALENT[name]})"
            unexpected += result.startswith("SURVIVED") != (name in EQUIVALENT)
            print(f"{name}: {result}", flush=True)
    print(f"{unexpected} of {len(chosen)} mutants ended otherwise than EQUIVALENT says")
    sys.exit(1 if unexpected else 0)


if __name__ == "__main__":
    main(sys.argv[1:])
