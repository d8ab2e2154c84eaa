"""numpy stays the only third-party module the program needs at run time."""

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

# the top-level modules that importing the CLI and every module its stages
# load adds; modules that the interpreter's site setup loaded before it are
# not the program's
PROBE = """
import json, sys
before = set(sys.modules)
import sanctionflow.cli
from sanctionflow import (community, events, hodge, netbuild, rank, report,
                          synth, table)
print(json.dumps(sorted({m.partition(".")[0]
                         for m in set(sys.modules) - before})))
"""


def test_cli_loads_only_the_standard_library_and_numpy():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env, check=True,
                         capture_output=True, text=True).stdout
    loaded = json.loads(out)
    assert {"numpy", "sanctionflow"} <= set(loaded)
    allowed = set(sys.stdlib_module_names) | {"numpy", "sanctionflow"}
    assert [m for m in loaded if m not in allowed] == []
