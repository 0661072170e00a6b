"""The simulator's per-packet passes compiled from `pipeline.c`, through ctypes.

`load_pipeline` builds `pipeline.c` once with the system C compiler into the
per-user cache `~/.cache/slicelab` and loads it from there. The file's name
holds a digest of the source and of the compile command, so an edit of
either builds a new file, and a file built from another source is never
loaded. A C compiler (`cc`) is required: where the library can be neither
built nor loaded, `load_pipeline` raises ImportError naming the cause, so
`import slicelab` fails.

Loading imports nothing numpy has not loaded already; building imports
`subprocess`.
"""
import ctypes
import os
import shutil
import tempfile
import zlib
from pathlib import Path

SOURCE = Path(__file__).with_name("pipeline.c")
# no fast-math, and no fused multiply-add: each sum rounds as written
COMMAND = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
_COMPILE_TIMEOUT_S = 120


def load_pipeline():
    """The library of `link_pass`, `server_pass` and `expand_bursts` from
    the cache, built there first if missing (their contracts: `pipeline.c`).
    Raises ImportError naming the cause: no `cc` on PATH, a failed or timed
    out compile, a cache that cannot be written, a file that does not load,
    or a library without one of the passes. Arrays pass as raw addresses
    (c_void_p): a data_as pointer per call costs more."""
    key = SOURCE.read_bytes() + "\0".join(COMMAND).encode()
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
        "link_pass": ((address, address, real, address, count, count, count, real), count),
        "server_pass": ((address, address, real, real, address, count), count),
        "expand_bursts": ((address, address, count, real, address), None),
    }
    for symbol, (argtypes, restype) in signatures.items():
        try:
            function = getattr(lib, symbol)
        except AttributeError:
            raise ImportError(f"{path} has no pass {symbol!r}") from None
        function.argtypes, function.restype = argtypes, restype
    return lib


def _build(path):
    """Compile SOURCE to path, written whole by one rename from a temporary
    file beside it, so a reader never sees a partial file; ImportError
    names why it could not."""
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
        run = subprocess.run([compiler, *COMMAND[1:], "-o", tmp, str(SOURCE)],
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
