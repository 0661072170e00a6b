"""The loader of the compiled per-packet passes: its cache, and the
ImportError that names why it can neither build nor load them.
`test_simulator.py` checks the passes against the reference loops."""
import os
import re
import shutil
import subprocess
import sys
import warnings
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
        other = tmp_path / "pipeline.c"
        other.write_text("void seed_state(void) {}\n")
        monkeypatch.setattr(native, "SOURCE", other)
        refused(r"/pipeline-[0-9a-f]{16}\.so has no entry 'run_pipeline'$")

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
        # another source gets another file: an entry that only says it ran
        other = tmp_path / "pipeline.c"
        other.write_text("#include <stdint.h>\n"
                         "int64_t run_pipeline(const double *t, const double *sizes,"
                         " const double *bps, int64_t edges, int64_t n, int64_t b,"
                         " int64_t restart, double tie_s, double proc, double prop_s,"
                         " double *out, uint8_t *served) { return -7; }\n"
                         "uint32_t seed_state(const uint32_t *entropy, int64_t n,"
                         " uint32_t *out, int64_t n_words) { return 7; }\n"
                         "int64_t draw_arrivals(void) { return 0; }\n"
                         "void draw_sizes(void) {}\n")
        real = native.SOURCE
        monkeypatch.setattr(native, "SOURCE", other)
        fake = load_quietly()
        assert fake.run_pipeline(0, 0, 0, 0, 0, 1, 1, 0.0, 1.0, 0.0, 0, 0) == -7
        assert fake.seed_state(b"", 0, None, 0) == 7
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
        m = lib.run_pipeline(t.ctypes.data, sizes.ctypes.data, bps.ctypes.data, 1, 3, 1, 256,
                             simulator.TIE_S, 1.0, 0.5, out.ctypes.data, served.ctypes.data)
        assert m == 2 and served.tolist() == [1, 0, 1]
        assert out[:m].tolist() == [((0.5 + 1.0 - 0.0) + 0.5) * 1000.0,
                                    ((1.5 + 1.0 - 0.75) + 0.5) * 1000.0]
        # seed 0's Poisson stream 0 at 300/s over 0.02 s: its arrivals into
        # room for 64, then its sizes, 20 bytes or 21, from the state left
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([0, 0])))
        want = np.cumsum(rng.exponential(1.0 / 300.0, 64))
        want = want[want < 0.02]
        arrivals, state = np.empty(64), np.empty(5, dtype=np.uint64)
        n = lib.draw_arrivals(np.array([0, 0], dtype=np.uint32).tobytes(), 2, 0, 300.0, 0.0, 0.0,
                              0.0, 0.02, arrivals.ctypes.data, 64, state.ctypes.data)
        assert n == want.size and arrivals[:n].tolist() == want.tolist()
        sizes = np.empty(n)
        lib.draw_sizes(state.ctypes.data, 0, 20, 21, 0.0, sizes.ctypes.data, n)
        assert sizes.tolist() == rng.integers(20, 22, n, dtype=np.int32).tolist()
        # the words (0, 7001, 0), the seed_base of seed 0's first gradient,
        # which test_oracle pins; with an out, the state's first 3 words
        words = np.array([0, 7001, 0], dtype=np.uint32)
        state = np.empty(3, dtype=np.uint32)
        assert lib.seed_state(words.tobytes(), 3, state.ctypes.data, 3) == 51449577
        assert state.tolist() == np.random.SeedSequence([0, 7001, 0]).generate_state(3).tolist()

    def test_loading_from_the_cache_imports_no_subprocess(self):
        code = ("import sys, numpy\nimport slicelab.simulator\n"
                "print('subprocess' in sys.modules, 'hashlib' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["False", "False"]
