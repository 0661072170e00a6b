"""The loader of the compiled per-packet passes: its cache, and its fallback
to numpy. `test_simulator.py` checks the two paths agree."""
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from slicelab import native, simulator

ROOT = Path(__file__).resolve().parent.parent


def test_the_kernel_loads_where_a_compiler_is_found():
    # with a C compiler on PATH, numpy's fallback must not run unnoticed
    if shutil.which(native.COMMAND[0]) is not None:
        assert simulator._PIPELINE is not None


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


class TestLoader:
    def test_no_compiler_falls_back(self, home, tmp_path, monkeypatch):
        a_path_with(tmp_path, monkeypatch)
        assert load_quietly() is None
        assert not (home / ".cache").exists()

    def test_a_failing_compile_falls_back_and_leaves_nothing(self, home, tmp_path, monkeypatch):
        a_path_with(tmp_path, monkeypatch, "echo 'cc: error' >&2; exit 1")
        assert load_quietly() is None
        assert cached(home) == []

    def test_a_built_file_that_does_not_load_falls_back(self, home, tmp_path, monkeypatch):
        # the "compiler" writes a file no loader accepts
        a_path_with(tmp_path, monkeypatch, 'while [ "$1" != -o ]; do shift; done; echo x > "$2"')
        assert load_quietly() is None

    @pytest.mark.parametrize("blocker", ["home", ".cache"])
    def test_an_unwritable_cache_falls_back(self, home, blocker):
        # a file where the cache's directory must go: no directory can be
        # made there, even by root
        if blocker == "home":
            home.rmdir()
            home.write_text("")
        else:
            (home / ".cache").write_text("")
        assert load_quietly() is None

    @pytest.mark.skipif(shutil.which(native.COMMAND[0]) is None, reason="no C compiler")
    def test_a_build_is_cached_and_keyed_by_source_and_command(self, home, tmp_path, monkeypatch):
        assert load_quietly() is not None and len(cached(home)) == 1
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
        # a source without every pass does not load
        other.write_text("void expand_bursts(void) {}\n")
        assert load_quietly() is None
        monkeypatch.setattr(native, "SOURCE", real)
        monkeypatch.setattr(native, "COMMAND", native.COMMAND + ("-O1",))
        load_quietly()
        assert len(cached(home)) == 4
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

    @pytest.mark.skipif(simulator._PIPELINE is None, reason="no compiled pipeline loaded")
    def test_loading_from_the_cache_imports_no_subprocess(self):
        code = ("import sys, numpy\nimport slicelab.simulator as s\n"
                "print(s._PIPELINE is not None, 'subprocess' in sys.modules,"
                " 'hashlib' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["True", "False", "False"]
