"""A pytest plugin that runs the tests on `pipeline.c` built with the
address and undefined-behaviour sanitizers.

    LD_PRELOAD="$(cc -print-file-name=libasan.so) $(cc -print-file-name=libubsan.so)" \
    ASAN_OPTIONS=detect_leaks=0 PYTHONPATH=src:tools \
    python -m pytest -q --capture=sys -p sanitized_pipeline tests/test_simulator.py

The sanitized build is the same extension module, cached beside the
plain one under its own name, and links numpy's distributions archive as
the plain one does, so the entries' buffer checks and the stream draws run
sanitized too (the archive itself is numpy's build, not instrumented).
Every compiled pass, the seeding of every stream and every draw read
`native.LIBRARY` when they are called, so replacing it routes every call
through the sanitized module. A bad access aborts the run with the
sanitizer's report on stderr, which `--capture=sys` leaves uncaptured
(pytest's default capture would take the report down with the process).
Without the runtimes preloaded, the run stops as the module loads, with
ASan's message that its runtime must come first.
"""
from slicelab import native

# added to the plain build's command; the first report ends the run
FLAGS = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all")


def pytest_configure(config):
    native.COMMAND = (*native.COMMAND, *FLAGS)
    native.LIBRARY = native.load_pipeline()
