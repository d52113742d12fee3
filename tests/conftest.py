"""Pin the hash seed: the tests run under PYTHONHASHSEED=0.

randgen's draws iterate frozensets, so the instance that case_rng(seed,
case) yields depends on the hash seed.  Under any other seed, pytest is
started again with the same arguments and PYTHONHASHSEED=0, so a draw in
a test, and a failure on it, replays from one run to the next.
"""

import os
import sys

HASH_SEED = "0"


def pytest_configure(config):
    if os.environ.get("PYTHONHASHSEED") == HASH_SEED:
        return
    # give the terminal back before the process is replaced
    capture = config.pluginmanager.getplugin("capturemanager")
    if capture is not None:
        capture.stop_global_capturing()
    sys.stdout.flush()
    sys.stderr.flush()
    os.chdir(config.invocation_params.dir)
    os.execve(sys.executable,
              [sys.executable, "-m", "pytest", *config.invocation_params.args],
              dict(os.environ, PYTHONHASHSEED=HASH_SEED))
