"""The loader of the compiled overflow episode: its cache, and its fallback
to numpy's block loop. `test_simulator.py` checks the two paths agree."""
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
        assert simulator._EPISODE is not None


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
        return native.load_episode()


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
        episode = load_quietly()
        assert episode is not None and len(cached(home)) == 1
        # another source gets another file: a kernel that only says it ran
        other = tmp_path / "episode.c"
        other.write_text("#include <stdint.h>\nint64_t overflow_episode(const double *t,"
                         " const double *tie, const double *tx, double *dep, int64_t k,"
                         " int64_t n, int64_t b) { return -7; }\n")
        real = native.SOURCE
        monkeypatch.setattr(native, "SOURCE", other)
        assert load_quietly()(0, 0, 0, 0, 1, 1, 1) == -7
        monkeypatch.setattr(native, "SOURCE", real)
        monkeypatch.setattr(native, "COMMAND", native.COMMAND + ("-O1",))
        load_quietly()
        assert len(cached(home)) == 3
        # with no compiler left, the real source's file loads from the cache
        monkeypatch.setattr(native, "COMMAND", native.COMMAND[:-1])
        a_path_with(tmp_path, monkeypatch)
        dep = np.array([0.5, np.nan, np.nan])
        t = np.array([0.0, 0.25, 0.75])
        tx = np.full(3, 0.5)
        tie = t + simulator.TIE_S
        end = load_quietly()(*(a.ctypes.data for a in (t, tie, tx, dep)), 1, 3, 1)
        # arrival 1 finds the buffer full; arrival 2 finds the link idle
        assert end == 2 and np.isnan(dep[1])

    @pytest.mark.skipif(simulator._EPISODE is None, reason="no compiled episode loaded")
    def test_loading_from_the_cache_imports_no_subprocess(self):
        code = ("import sys, numpy\nimport slicelab.simulator as s\n"
                "print(s._EPISODE is not None, 'subprocess' in sys.modules,"
                " 'hashlib' in sys.modules)")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True).stdout
        assert out.split() == ["True", "False", "False"]
