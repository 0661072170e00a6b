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
        other.write_text("void expand_bursts(void) {}\n")
        monkeypatch.setattr(native, "SOURCE", other)
        refused(r"/pipeline-[0-9a-f]{16}\.so has no pass 'link_pass'$")

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
        load_quietly()
        assert len(cached(home)) == 1
        # another source gets another file: passes that only say they ran
        other = tmp_path / "pipeline.c"
        other.write_text("#include <stdint.h>\n"
                         "int64_t link_pass(const double *t, const double *sizes, double bps,"
                         " double *dep, int64_t n, int64_t b, int64_t restart, double tie_s)"
                         " { return -7; }\n"
                         "int64_t server_pass(const double *t, const double *created,"
                         " double proc, double prop_s, double *out, int64_t n) { return -8; }\n"
                         "void expand_bursts(const double *starts, const int64_t *counts,"
                         " int64_t nb, double gap, double *out) {}\n")
        real = native.SOURCE
        monkeypatch.setattr(native, "SOURCE", other)
        fake = load_quietly()
        assert fake.link_pass(0, 0, 1.0, 0, 0, 1, 1, 0.0) == -7
        assert fake.server_pass(0, 0, 1.0, 0.0, 0, 0) == -8
        assert len(cached(home)) == 2
        monkeypatch.setattr(native, "SOURCE", real)
        monkeypatch.setattr(native, "COMMAND", native.COMMAND + ("-O1",))
        load_quietly()
        assert len(cached(home)) == 3
        # with no compiler left, the real source's file loads from the cache
        monkeypatch.setattr(native, "COMMAND", native.COMMAND[:-1])
        a_path_with(tmp_path, monkeypatch)
        lib = load_quietly()
        # at 1 byte/s a packet's tx is its size: arrival 1 finds the one-packet
        # buffer full, and arrival 2 finds the link idle
        t, sizes, dep = np.array([0.0, 0.25, 0.75]), np.full(3, 0.5), np.empty(3)
        blocked = lib.link_pass(t.ctypes.data, sizes.ctypes.data, 1.0, dep.ctypes.data,
                                3, 1, 256, simulator.TIE_S)
        assert blocked == 1 and dep[0] == 0.5 and np.isnan(dep[1]) and dep[2] == 1.25
        # the packet that leaves the link at 1.25 s, created at 0.25 s, takes
        # 1 s at the server and 0.5 s to propagate
        departed, created, out = dep[2:], t[1:2], np.empty(1)
        assert lib.server_pass(departed.ctypes.data, created.ctypes.data, 1.0, 0.5,
                               out.ctypes.data, 1) == 0
        assert out[0] == ((1.25 + 1.0 - 0.25) + 0.5) * 1000.0
        starts, counts, out = np.array([1.0, 5.0]), np.array([2, 1]), np.empty(3)
        lib.expand_bursts(starts.ctypes.data, counts.ctypes.data, 2, 0.5, out.ctypes.data)
        assert out.tolist() == [1.0, 1.5, 5.0]

    def test_loading_from_the_cache_imports_no_subprocess(self):
        code = ("import sys, numpy\nimport slicelab.simulator\n"
                "print('subprocess' in sys.modules, 'hashlib' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["False", "False"]
