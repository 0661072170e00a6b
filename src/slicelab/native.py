"""The simulator's per-packet passes compiled from `pipeline.c`, through ctypes.

`load_pipeline` builds `pipeline.c` once with the system C compiler into the
per-user cache `~/.cache/slicelab` and loads it from there. The file's name
holds a digest of the source and of the compile command, so an edit of
either builds a new file, and a file built from another source is never
loaded. Where no compiler is found, or the build or the load fails, it
returns None and the simulator runs each pass in numpy instead.

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
# no fast-math, and no fused multiply-add: each sum rounds as numpy's does
COMMAND = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
_COMPILE_TIMEOUT_S = 120


def load_pipeline():
    """The library of `link_pass`, `server_pass` and `expand_bursts` from
    the cache, built there first if missing (their contracts: `pipeline.c`),
    or None. Arrays pass as raw addresses (c_void_p): a data_as pointer per
    call costs more."""
    try:
        key = SOURCE.read_bytes() + "\0".join(COMMAND).encode()
        path = (Path.home() / ".cache" / "slicelab"
                / f"pipeline-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so")
        if not (path.is_file() or _built(path)):
            return None
        lib = ctypes.CDLL(str(path))
        address, count, real = ctypes.c_void_p, ctypes.c_int64, ctypes.c_double
        signatures = {
            "link_pass": ((address, address, real, address, count, count, count, real), count),
            "server_pass": ((address, address, real, real, address, count), count),
            "expand_bursts": ((address, address, count, real, address), None),
        }
        for name, (argtypes, restype) in signatures.items():
            function = getattr(lib, name)
            function.argtypes, function.restype = argtypes, restype
    except (OSError, AttributeError, RuntimeError):  # RuntimeError: no home directory
        return None
    return lib


def _built(path):
    """Whether SOURCE compiled to path, written whole by one rename from
    a temporary file beside it, so a reader never sees a partial file."""
    compiler = shutil.which(COMMAND[0])
    if compiler is None:
        return False
    import subprocess

    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(suffix=".so", dir=path.parent)
    os.close(fd)
    try:
        run = subprocess.run([compiler, *COMMAND[1:], "-o", tmp, str(SOURCE)],
                             capture_output=True, timeout=_COMPILE_TIMEOUT_S)
        if run.returncode == 0:
            os.replace(tmp, path)
        return run.returncode == 0
    except subprocess.SubprocessError:  # the compiler timed out
        return False
    finally:
        if os.path.exists(tmp):  # not renamed: the build failed
            os.unlink(tmp)
