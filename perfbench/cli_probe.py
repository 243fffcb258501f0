"""One pkmkin CLI call in a fresh process, split into its set-up parts.

Usage (with PYTHONPATH pointing at pkmkin's source):
    python3 perfbench/cli_probe.py <cli arguments, geometry file second>

Prints one JSON line: import time of pkmkin.cli, one read_geometry_file
call, and the whole first cli.main call (which parses the geometry again,
solves and formats).  The CLI's own output is discarded.
"""

import contextlib
import io
import json
import sys
import time

t0 = time.perf_counter()
from pkmkin import cli, geometry  # noqa: E402  (the import is what is timed)
t1 = time.perf_counter()
geometry.read_geometry_file(sys.argv[2])
t2 = time.perf_counter()
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[1:])
t3 = time.perf_counter()
print(json.dumps({"import_s": t1 - t0, "read_geometry_us": 1e6 * (t2 - t1),
                  "first_call_us": 1e6 * (t3 - t2), "exit_code": code}))
sys.exit(0 if code in (0, 2) else 1)
