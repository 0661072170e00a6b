"""The simulator's per-packet passes, the seeding of every random stream and
the drawing of each, compiled from `pipeline.c` as a CPython extension
module.

`LIBRARY` is the one loaded module, loaded when this module is imported.
Every caller reads it here when it calls, so replacing it (as the
sanitizer and mutant plugins in `tools/` do) routes every call.
`load_pipeline` builds `pipeline.c` once with the system C compiler,
against the interpreter's headers, into the per-user cache
`~/.cache/slicelab` and imports it from there. The draws call numpy's own
distribution code, so the build links `ARCHIVE`, the static library of it
that numpy's wheel ships for C extensions, after the source. The file's
name holds a digest of the source, of the compile command, of the archive's
path and bytes and of the interpreter's extension suffix, so an edit of any
builds a new file, a file built from another source is never loaded, and
interpreters that share one home never load each other's build. No build
is ever removed, on purpose: checkouts of two sources that share one home,
as when a benchmark alternates a parent commit and its change, each load
their own file, and pruning the other's would make each side build again on
its next import, inside its set-up time. A C compiler (`cc`), the Python
headers (`Python.h`) and the archive are required: where the module can be
neither built nor loaded, `load_pipeline` raises ImportError naming the
cause, so `import slicelab` fails.

Loading imports nothing numpy has not loaded already (it finds the archive
from numpy's package directory, and never imports `numpy.random`); building
imports `subprocess` and `sysconfig`.
"""
import os
import shutil
import tempfile
import zlib
from importlib import machinery, util
from pathlib import Path

import numpy

SOURCE = Path(__file__).with_name("pipeline.c")
# numpy's distributions for C extensions, found without importing numpy.random
ARCHIVE = Path(numpy.__file__).parent / "random" / "lib" / "libnpyrandom.a"
# no fast-math, and no fused multiply-add: each sum rounds as written
COMMAND = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
# the module's name, which its PyInit_pipeline gives it
_MODULE = "pipeline"
_COMPILE_TIMEOUT_S = 120


def load_pipeline():
    """The extension module of `run_pipeline`, `seed_state`, `draw_arrivals`
    and `draw_sizes`, the calls slicelab makes, from the cache, built there
    first if missing (their arguments: `pipeline.c`). Raises ImportError
    naming the cause: no `cc` on PATH, no `Python.h`, no ARCHIVE, a failed
    or timed out compile, a cache that cannot be written, a file that does
    not load, or a module without one of the four."""
    try:
        archive = ARCHIVE.read_bytes()
    except OSError as err:
        raise ImportError(f"slicelab needs numpy's C distributions library to build "
                          f"{SOURCE.name}: cannot read {ARCHIVE}: {err.strerror}") from None
    suffix = machinery.EXTENSION_SUFFIXES[0]
    key = b"\0".join((SOURCE.read_bytes(), "\0".join(COMMAND).encode(), bytes(ARCHIVE),
                      archive, suffix.encode()))
    name = f"{_MODULE}-{zlib.crc32(key):08x}{zlib.adler32(key):08x}{suffix}"
    try:
        path = Path.home() / ".cache" / "slicelab" / name
    except RuntimeError as err:  # no home directory
        raise ImportError(f"cannot place the build cache of {SOURCE.name}: {err}") from None
    if not path.is_file():
        _build(path)
    loader = machinery.ExtensionFileLoader(_MODULE, str(path))
    try:
        module = util.module_from_spec(util.spec_from_file_location(_MODULE, path,
                                                                    loader=loader))
        loader.exec_module(module)
    except ImportError as err:
        raise ImportError(f"cannot load {path}: {err}") from None
    for entry in ("run_pipeline", "seed_state", "draw_arrivals", "draw_sizes"):
        if not hasattr(module, entry):
            raise ImportError(f"{path} has no entry {entry!r}")
    return module


def _include_dir():
    """The directory of the interpreter's C headers, where `Python.h` is."""
    import sysconfig

    return Path(sysconfig.get_paths()["include"])


def _build(path):
    """Compile SOURCE against the interpreter's headers, linked with ARCHIVE
    and libm, to path, written whole by one rename from a temporary file
    beside it, so a reader never sees a partial file; ImportError names why
    it could not."""
    compiler = shutil.which(COMMAND[0])
    if compiler is None:
        raise ImportError(f"slicelab needs a C compiler to build {SOURCE.name}: "
                          f"no {COMMAND[0]!r} on PATH")
    include = _include_dir()
    if not (include / "Python.h").is_file():
        raise ImportError(f"slicelab needs the Python headers to build {SOURCE.name}: "
                          f"no Python.h in {include}")
    import subprocess

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
    except OSError as err:
        raise ImportError(f"cannot write the build cache {path.parent}: {err}") from None
    os.close(fd)
    try:
        run = subprocess.run([compiler, *COMMAND[1:], f"-I{include}", "-o", tmp, str(SOURCE),
                              str(ARCHIVE), "-lm"],
                             capture_output=True, timeout=_COMPILE_TIMEOUT_S)
        if run.returncode != 0:
            raise ImportError(f"{COMMAND[0]} exited with status {run.returncode} building "
                              f"{SOURCE.name}: {run.stderr.decode(errors='replace').strip()}")
        os.replace(tmp, path)
    except subprocess.TimeoutExpired:
        raise ImportError(f"{COMMAND[0]} did not build {SOURCE.name} within "
                          f"{_COMPILE_TIMEOUT_S} s") from None
    finally:
        if os.path.exists(tmp):  # not renamed: the build failed
            os.unlink(tmp)


LIBRARY = load_pipeline()
