"""The simulator's per-packet passes, the seeding of every random stream and
the drawing of each stream, compiled from `pipeline.c`, through ctypes.

`LIBRARY` is the one loaded library, loaded when this module is imported.
Every caller reads it here when it calls, so replacing it (as the
sanitizer and mutant plugins in `tools/` do) routes every call.
`load_pipeline` builds `pipeline.c` once with the system C compiler into the
per-user cache `~/.cache/slicelab` and loads it from there. The draws call
numpy's own distribution code, so the build links `ARCHIVE`, the static
library of it that numpy's wheel ships for C extensions, after the source.
The file's name holds a digest of the source, of the compile command and of
the archive's path and bytes, so an edit of any builds a new file, and a
file built from another source is never loaded. No build is ever removed,
on purpose: checkouts of two sources that share one home, as when a
benchmark alternates a parent commit and its change, each load their own
file, and pruning the other's would make each side build again on its next
import, inside its set-up time. A C compiler (`cc`) and the archive are
required: where the library can be neither built nor loaded,
`load_pipeline` raises ImportError naming the cause, so `import slicelab`
fails.

Loading imports nothing numpy has not loaded already (it finds the archive
from numpy's package directory, and never imports `numpy.random`); building
imports `subprocess`.
"""
import ctypes
import os
import shutil
import tempfile
import zlib
from pathlib import Path

import numpy

SOURCE = Path(__file__).with_name("pipeline.c")
# numpy's distributions for C extensions, found without importing numpy.random
ARCHIVE = Path(numpy.__file__).parent / "random" / "lib" / "libnpyrandom.a"
# no fast-math, and no fused multiply-add: each sum rounds as written
COMMAND = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
_COMPILE_TIMEOUT_S = 120


def load_pipeline():
    """The library of `run_pipeline`, `seed_state`, `draw_arrivals` and
    `draw_sizes`, the calls slicelab makes, from the cache, built there first
    if missing (their contracts: `pipeline.c`). Raises ImportError naming the
    cause: no `cc` on PATH, no ARCHIVE, a failed or timed out compile, a
    cache that cannot be written, a file that does not load, or a library
    without one of the four. Arrays pass as raw addresses or bytes
    (c_void_p): a data_as pointer per call costs more."""
    try:
        archive = ARCHIVE.read_bytes()
    except OSError as err:
        raise ImportError(f"slicelab needs numpy's C distributions library to build "
                          f"{SOURCE.name}: cannot read {ARCHIVE}: {err.strerror}") from None
    key = b"\0".join((SOURCE.read_bytes(), "\0".join(COMMAND).encode(), bytes(ARCHIVE),
                      archive))
    name = f"pipeline-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so"
    try:
        path = Path.home() / ".cache" / "slicelab" / name
    except RuntimeError as err:  # no home directory
        raise ImportError(f"cannot place the build cache of {SOURCE.name}: {err}") from None
    if not path.is_file():
        _build(path)
    try:
        lib = ctypes.CDLL(str(path))
    except OSError as err:
        raise ImportError(f"cannot load {path}: {err}") from None
    address, count, real = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
    signatures = {
        "run_pipeline": ((address, address, address, count, count, count, count, real, real,
                          real, address, address), count),
        "seed_state": ((address, count, address, count), ctypes.c_uint32),
        "draw_arrivals": ((address, count, count, real, real, real, real, real, address, count,
                           address), count),
        "draw_sizes": ((address, count, count, count, real, address, count), None),
    }
    for symbol, (argtypes, restype) in signatures.items():
        try:
            function = getattr(lib, symbol)
        except AttributeError:
            raise ImportError(f"{path} has no entry {symbol!r}") from None
        function.argtypes, function.restype = argtypes, restype
    return lib


def _build(path):
    """Compile SOURCE, linked with ARCHIVE and libm, to path, written whole
    by one rename from a temporary file beside it, so a reader never sees a
    partial file; ImportError names why it could not."""
    compiler = shutil.which(COMMAND[0])
    if compiler is None:
        raise ImportError(f"slicelab needs a C compiler to build {SOURCE.name}: "
                          f"no {COMMAND[0]!r} on PATH")
    import subprocess

    try:
        path.parent.mkdir(parents=True, exist_ok=True)
        fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
    except OSError as err:
        raise ImportError(f"cannot write the build cache {path.parent}: {err}") from None
    os.close(fd)
    try:
        run = subprocess.run([compiler, *COMMAND[1:], "-o", tmp, str(SOURCE), str(ARCHIVE),
                              "-lm"],
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
