"""The link stage's overflow episode compiled from `episode.c`, through ctypes.

`load_episode` builds `episode.c` once with the system C compiler into the
per-user cache `~/.cache/slicelab` and loads it from there. The file's name
holds a digest of the source and of the compile command, so an edit of
either builds a new file, and a file built from another source is never
loaded. Where no compiler is found, or the build or the load fails, it
returns None and the simulator runs numpy's block loop instead.

Loading imports nothing numpy has not loaded already; building imports
`subprocess`.
"""
import ctypes
import os
import shutil
import tempfile
import zlib
from pathlib import Path

SOURCE = Path(__file__).with_name("episode.c")
# no fast-math, and no fused multiply-add: each sum rounds as numpy's does
COMMAND = ("cc", "-O2", "-shared", "-fPIC", "-ffp-contract=off")
_COMPILE_TIMEOUT_S = 120


def load_episode():
    """`overflow_episode(t, tie, tx, dep, k, n, b)` from the cache, built
    there first if missing (its contract: `episode.c`), or None."""
    try:
        key = SOURCE.read_bytes() + "\0".join(COMMAND).encode()
        path = (Path.home() / ".cache" / "slicelab"
                / f"episode-{zlib.crc32(key):08x}{zlib.adler32(key):08x}.so")
        if not (path.is_file() or _built(path)):
            return None
        episode = ctypes.CDLL(str(path)).overflow_episode
    except (OSError, RuntimeError):  # RuntimeError: no home directory
        return None
    # raw addresses as c_void_p: a data_as pointer per call costs more
    episode.argtypes = (ctypes.c_void_p,) * 4 + (ctypes.c_int64,) * 3
    episode.restype = ctypes.c_int64
    return episode


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
