"""The loader of the compiled per-packet passes: its cache, and the
ImportError that names why it can neither build nor load them; and the
checks each entry of the extension module makes of its buffers before it
reads or writes one. `test_simulator.py` checks the passes against the
reference loops."""
import os
import re
import shutil
import subprocess
import sys
import warnings
from importlib import machinery
from pathlib import Path

import numpy as np
import pytest

from slicelab import native, simulator

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture
def home(tmp_path, monkeypatch):
    """An empty home directory, so each load builds into a fresh cache."""
    monkeypatch.setenv("HOME", str(tmp_path / "home"))
    (tmp_path / "home").mkdir()
    return tmp_path / "home"


def cached(home):
    return sorted(p.name for p in (home / ".cache" / "slicelab").glob("*"))


def load_quietly():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return native.load_pipeline()


def a_path_with(tmp_path, monkeypatch, compiler=None):
    """PATH as one directory holding only `compiler`, a shell script, if given."""
    bin_dir = tmp_path / "bin"
    bin_dir.mkdir()
    if compiler is not None:
        script = bin_dir / native.COMMAND[0]
        script.write_text(f"#!/bin/sh\n{compiler}\n")
        script.chmod(0o755)
    monkeypatch.setenv("PATH", str(bin_dir))


def a_module(tmp_path, entries):
    """The source, in tmp_path, of an extension module `pipeline` whose
    entries are the names in `entries`, each returning its int there
    whatever it is passed."""
    bodies = "".join(f"static PyObject *e_{name}(PyObject *m, PyObject *const *a, Py_ssize_t n)"
                     f" {{ return PyLong_FromLong({value}); }}\n"
                     for name, value in entries.items())
    table = "".join(f'{{"{name}", (PyCFunction)(void (*)(void))e_{name}, METH_FASTCALL, NULL}}, '
                    for name in entries)
    source = tmp_path / "pipeline.c"
    source.write_text("#define PY_SSIZE_T_CLEAN\n#include <Python.h>\n" + bodies
                      + f"static PyMethodDef ENTRIES[] = {{{table}{{NULL, NULL, 0, NULL}}}};\n"
                      "static struct PyModuleDef MODULE = {PyModuleDef_HEAD_INIT, \"pipeline\","
                      " NULL, 0, ENTRIES};\n"
                      "PyMODINIT_FUNC PyInit_pipeline(void)"
                      " { return PyModuleDef_Init(&MODULE); }\n")
    return source


def refused(match):
    """load_pipeline raises ImportError matching `match`, with no warning."""
    with pytest.raises(ImportError, match=match):
        load_quietly()


class TestLoader:
    def test_no_compiler_is_refused_by_name(self, home, tmp_path, monkeypatch):
        a_path_with(tmp_path, monkeypatch)
        refused("^slicelab needs a C compiler to build pipeline.c: no 'cc' on PATH$")
        assert not (home / ".cache").exists()

    def test_a_failing_compile_names_its_stderr_and_leaves_nothing(self, home, tmp_path,
                                                                    monkeypatch):
        a_path_with(tmp_path, monkeypatch, "echo 'cc: error: no space' >&2; exit 3")
        refused("^cc exited with status 3 building pipeline.c: cc: error: no space$")
        assert cached(home) == []

    def test_a_compile_that_times_out_is_refused(self, home, tmp_path, monkeypatch):
        # exec, so that the timeout kills the process that holds the pipes
        a_path_with(tmp_path, monkeypatch, f"exec {shutil.which('sleep')} 10")
        monkeypatch.setattr(native, "_COMPILE_TIMEOUT_S", 0.2)
        refused("^cc did not build pipeline.c within 0.2 s$")
        assert cached(home) == []

    def test_a_built_file_that_does_not_load_is_refused(self, home, tmp_path, monkeypatch):
        # the "compiler" writes a file no loader accepts
        a_path_with(tmp_path, monkeypatch, 'while [ "$1" != -o ]; do shift; done; echo x > "$2"')
        refused(f"^cannot load {re.escape(str(home / '.cache' / 'slicelab'))}/pipeline-")

    @pytest.mark.parametrize("blocker", ["home", ".cache"])
    def test_an_unwritable_cache_is_refused(self, home, blocker):
        # a file where the cache's directory must go: no directory can be
        # made there, even by root
        if blocker == "home":
            home.rmdir()
            home.write_text("")
        else:
            (home / ".cache").write_text("")
        refused(f"^cannot write the build cache {re.escape(str(home / '.cache' / 'slicelab'))}: ")

    def test_a_source_without_every_pass_is_refused(self, home, tmp_path, monkeypatch):
        monkeypatch.setattr(native, "SOURCE", a_module(tmp_path, {"seed_state": 0}))
        suffix = re.escape(machinery.EXTENSION_SUFFIXES[0])
        refused(rf"/pipeline-[0-9a-f]{{16}}{suffix} has no entry 'run_pipeline'$")

    def test_missing_python_headers_are_refused_by_path(self, home, tmp_path, monkeypatch):
        # the module is built against the interpreter's headers
        empty = tmp_path / "include"
        empty.mkdir()
        monkeypatch.setattr(native, "_include_dir", lambda: empty)
        refused(f"^slicelab needs the Python headers to build pipeline.c: "
                f"no Python.h in {re.escape(str(empty))}$")
        assert not (home / ".cache").exists()

    def test_a_missing_archive_is_refused_by_path(self, home, tmp_path, monkeypatch):
        # the draws link numpy's distributions, so no build goes without them
        missing = tmp_path / "numpy" / "random" / "lib" / "libnpyrandom.a"
        monkeypatch.setattr(native, "ARCHIVE", missing)
        refused(f"^slicelab needs numpy's C distributions library to build pipeline.c: "
                f"cannot read {re.escape(str(missing))}: No such file or directory$")
        assert not (home / ".cache").exists()

    def test_the_archive_is_numpys_found_without_numpy_random(self):
        assert native.ARCHIVE == Path(np.__file__).parent / "random" / "lib" / "libnpyrandom.a"
        assert native.ARCHIVE.is_file()

    def test_importing_slicelab_without_a_compiler_names_cc(self, home, tmp_path):
        # a fresh interpreter with no cc on PATH and an empty cache
        (tmp_path / "bin").mkdir()
        env = dict(os.environ, PATH=str(tmp_path / "bin"), HOME=str(home),
                   PYTHONPATH=str(ROOT / "src"))
        run = subprocess.run([sys.executable, "-c", "import slicelab"], env=env,
                             capture_output=True, text=True)
        assert run.returncode == 1
        assert run.stderr.splitlines()[-1] == ("ImportError: slicelab needs a C compiler to "
                                               "build pipeline.c: no 'cc' on PATH")

    def test_a_build_is_cached_and_keyed_by_source_and_command(self, home, tmp_path, monkeypatch):
        # and by the archive's path and bytes
        load_quietly()
        assert len(cached(home)) == 1
        # another source gets another file: entries that only say they ran
        other = a_module(tmp_path, {"run_pipeline": -7, "seed_state": 7, "draw_arrivals": 0,
                                    "draw_sizes": 0})
        real = native.SOURCE
        monkeypatch.setattr(native, "SOURCE", other)
        fake = load_quietly()
        assert fake.run_pipeline() == -7 and fake.seed_state() == 7
        assert len(cached(home)) == 2
        monkeypatch.setattr(native, "SOURCE", real)
        monkeypatch.setattr(native, "COMMAND", native.COMMAND + ("-O1",))
        load_quietly()
        assert len(cached(home)) == 3
        # the same archive's bytes at another path: another file
        monkeypatch.setattr(native, "COMMAND", native.COMMAND[:-1])
        real_archive = native.ARCHIVE
        monkeypatch.setattr(native, "ARCHIVE", tmp_path / real_archive.name)
        shutil.copyfile(real_archive, native.ARCHIVE)
        load_quietly()
        assert len(cached(home)) == 4
        monkeypatch.setattr(native, "ARCHIVE", real_archive)
        # with no compiler left, the real source's file loads from the cache
        a_path_with(tmp_path, monkeypatch)
        lib = load_quietly()
        # at 8 bps a packet's tx is its size: arrival 1 finds the one-packet
        # buffer full, and arrival 2 finds the link idle. At the server each
        # packet takes 1 s, so the one that leaves the link at 1.25 s, created
        # at 0.75 s, waits there until 1.5 s; each takes 0.5 s to propagate
        t, sizes, bps = np.array([0.0, 0.25, 0.75]), np.full(3, 0.5), np.array([8.0])
        out, served = np.empty(3), np.empty(3, dtype=np.uint8)
        m = lib.run_pipeline(t, sizes, bps, 1, 256, simulator.TIE_S, 1.0, 0.5, out, served)
        assert m == 2 and served.tolist() == [1, 0, 1]
        assert out[:m].tolist() == [((0.5 + 1.0 - 0.0) + 0.5) * 1000.0,
                                    ((1.5 + 1.0 - 0.75) + 0.5) * 1000.0]
        # seed 0's Poisson stream 0 at 300/s over 0.02 s: its arrivals into
        # room for 64, then its sizes, 20 bytes or 21, from the state left
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([0, 0])))
        want = np.cumsum(rng.exponential(1.0 / 300.0, 64))
        want = want[want < 0.02]
        arrivals, state = np.empty(64), bytearray(40)
        n = lib.draw_arrivals(np.array([0, 0], dtype=np.uint32).tobytes(), 0, 300.0, 0.0, 0.0,
                              0.0, 0.02, arrivals, state)
        assert n == want.size and arrivals[:n].tolist() == want.tolist()
        sizes = np.empty(n)
        lib.draw_sizes(state, 0, 20, 21, 0.0, sizes)
        assert sizes.tolist() == rng.integers(20, 22, n, dtype=np.int32).tolist()
        # the words (0, 7001, 0), the seed_base of seed 0's first gradient,
        # which test_oracle pins; with an out, the state's first 3 words
        words = np.array([0, 7001, 0], dtype=np.uint32)
        state = np.empty(3, dtype=np.uint32)
        assert lib.seed_state(words.tobytes(), state) == 51449577
        assert state.tolist() == np.random.SeedSequence([0, 7001, 0]).generate_state(3).tolist()

    def test_a_build_is_keyed_by_the_interpreters_extension_suffix(self, home, tmp_path,
                                                                   monkeypatch):
        # interpreters of two ABIs that share one home: each builds and
        # loads its own file, named with its suffix and keyed by it
        ours = machinery.EXTENSION_SUFFIXES[0]
        load_quietly()
        monkeypatch.setattr(machinery, "EXTENSION_SUFFIXES", [".other-abi.so"])
        load_quietly()
        files = cached(home)
        assert [f.endswith(ours) for f in files].count(True) == 1
        assert [f.endswith(".other-abi.so") for f in files].count(True) == 1
        assert len({f[:len("pipeline-") + 16] for f in files}) == 2
        # this interpreter's suffix again: its file loads from the cache
        monkeypatch.setattr(machinery, "EXTENSION_SUFFIXES", [ours])
        a_path_with(tmp_path, monkeypatch)
        assert load_quietly().__file__.endswith(ours) and cached(home) == files

    def test_loading_from_the_cache_imports_no_subprocess(self):
        # nor sysconfig, which only a build needs to find the headers
        code = ("import sys, numpy\nimport slicelab.simulator\n"
                "print(*(m in sys.modules for m in ('subprocess', 'hashlib', 'sysconfig')))")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["False", "False", "False"]


def valid_calls():
    """Per entry of the module, arguments of a call it accepts, fresh."""
    t, sizes, bps = np.array([0.0, 0.25, 0.75]), np.full(3, 0.5), np.array([8.0])
    words = np.array([0, 7001, 0], dtype=np.uint32).tobytes()
    return {
        "run_pipeline": [t, sizes, bps, 1, 256, simulator.TIE_S, 1.0, 0.5, np.full(3, 7.0),
                         np.zeros(3, dtype=bool)],
        "seed_state": [words, np.full(3, 7, dtype=np.uint32)],
        "draw_arrivals": [words, 0, 300.0, 0.0, 0.0, 0.0, 0.02, np.full(64, 7.0),
                          bytearray(40)],
        "draw_sizes": [bytearray(range(40)), 0, 20, 21, 0.0, np.full(5, 7.0)],
    }


def read_only(array):
    array.setflags(write=False)
    return array


# (entry, argument, what it is replaced by, the error, its message): one
# rule of the checks each entry makes before it reads or writes a buffer
BAD_ARGUMENTS = [
    # each buffer's items are of its type: float64, uint32, bool or bytes
    ("run_pipeline", "t", np.zeros(3, dtype=np.float32), TypeError,
     "t must hold 8-byte items of format 'd', not 4-byte items of format 'f'"),
    ("run_pipeline", "t", np.zeros(3, dtype=np.int64), TypeError,
     "t must hold 8-byte items of format 'd', not 8-byte items of format 'l'"),
    ("run_pipeline", "served", np.zeros(3), TypeError,
     "served must hold 1-byte items of format one of '?B', not 8-byte items of format 'd'"),
    ("seed_state", "out", np.zeros(3, dtype=np.uint64), TypeError,
     "out must hold 4-byte items of format 'I', not 8-byte items of format 'L'"),
    ("draw_sizes", "out", np.zeros(5, dtype=np.float32), TypeError,
     "out must hold 8-byte items of format 'd', not 4-byte"),
    ("draw_arrivals", "rng", np.zeros(5, dtype=np.uint64), TypeError,
     "rng must hold 1-byte items of format 'B', not 8-byte"),
    # each is a buffer
    ("run_pipeline", "bps", [8.0], TypeError, "bps must be a buffer, not list"),
    # each is C-contiguous
    ("run_pipeline", "out", np.full(6, 7.0)[::2], ValueError, "out must be C-contiguous"),
    ("run_pipeline", "sizes", np.full(6, 0.5)[::2], ValueError, "sizes must be C-contiguous"),
    # each is aligned to its items
    ("run_pipeline", "t", memoryview(bytes(25))[1:].cast("d"), ValueError,
     "t must be aligned to its 8-byte items"),
    ("seed_state", "entropy", memoryview(bytes(13))[1:], ValueError,
     "entropy must be aligned to its 32-bit words"),
    # each output is writable
    ("run_pipeline", "out", read_only(np.full(3, 7.0)), ValueError,
     "out must be writable, not read-only"),
    ("run_pipeline", "served", read_only(np.zeros(3, dtype=bool)), ValueError,
     "served must be writable, not read-only"),
    ("seed_state", "out", read_only(np.full(3, 7, dtype=np.uint32)), ValueError,
     "out must be writable"),
    ("draw_arrivals", "out", read_only(np.full(64, 7.0)), ValueError, "out must be writable"),
    ("draw_sizes", "rng", bytes(range(40)), ValueError, "rng must be writable"),
    # sizes as long as the arrivals, out and served at least that long
    ("run_pipeline", "sizes", np.full(2, 0.5), ValueError,
     "sizes must be as long as t, 3 items, got 2"),
    ("run_pipeline", "sizes", np.full(4, 0.5), ValueError,
     "sizes must be as long as t, 3 items, got 4"),
    ("run_pipeline", "out", np.full(2, 7.0), ValueError, "out must hold at least 3 items, got 2"),
    ("run_pipeline", "served", np.zeros(2, dtype=bool), ValueError,
     "served must hold at least 3 items, got 2"),
    # a buffer of at least one packet, and a window of at least one
    ("run_pipeline", "b", 0, ValueError, "b must be at least 1, got 0"),
    ("run_pipeline", "restart", 0, ValueError, "restart must be at least 1, got 0"),
    # the rng state at least 40 bytes
    ("draw_arrivals", "rng", bytearray(39), ValueError, "rng must hold at least 40 bytes, got 39"),
    ("draw_sizes", "rng", bytearray(39), ValueError, "rng must hold at least 40 bytes, got 39"),
    # the entropy a whole number of 32-bit words
    ("seed_state", "entropy", bytes(7), ValueError,
     "entropy must be a whole number of 32-bit words, got 7 bytes"),
    ("draw_arrivals", "entropy", bytes(6), ValueError,
     "entropy must be a whole number of 32-bit words, got 6 bytes"),
    # counts are ints and reals are real numbers
    ("draw_sizes", "lo", 20.0, TypeError, "lo must be an int, not float"),
    ("draw_arrivals", "horizon", "0.02", TypeError, "horizon must be a real number, not str"),
]

# each entry's arguments by name, in order
PARAMETERS = {
    "run_pipeline": ("t", "sizes", "bps", "b", "restart", "tie_s", "proc", "prop_s", "out",
                     "served"),
    "seed_state": ("entropy", "out"),
    "draw_arrivals": ("entropy", "onoff", "rate", "burst_len", "gap", "off_mean", "horizon",
                      "out", "rng"),
    "draw_sizes": ("rng", "exponential", "lo", "hi", "mean", "out"),
}


def contents(value):
    """A buffer's bytes, or the value itself."""
    if isinstance(value, np.ndarray):
        return value.tobytes()
    return bytes(value) if isinstance(value, (bytes, bytearray)) else value


class TestEntries:
    """Each entry checks its buffers and counts before it reads or writes
    any buffer, and raises naming the entry and the argument."""

    @pytest.mark.parametrize("entry, name, bad, error, message", BAD_ARGUMENTS,
                             ids=[f"{e}-{n}-{m}" for e, n, _, _, m in BAD_ARGUMENTS])
    def test_a_bad_argument_is_refused_and_nothing_is_written(self, entry, name, bad, error,
                                                               message):
        args = valid_calls()[entry]
        args[PARAMETERS[entry].index(name)] = bad
        # every buffer's bytes, the bad one's too
        before = [contents(a) for a in args]
        with pytest.raises(error, match=f"^{entry}: {re.escape(message)}"):
            getattr(native.LIBRARY, entry)(*args)
        assert [contents(a) for a in args] == before

    @pytest.mark.parametrize("entry", sorted(PARAMETERS))
    def test_a_call_with_too_few_arguments_is_refused(self, entry):
        want = len(PARAMETERS[entry])
        with pytest.raises(TypeError, match=f"^{entry} takes {want} arguments \\({want - 1} "
                                            f"given\\)$"):
            getattr(native.LIBRARY, entry)(*valid_calls()[entry][:-1])
