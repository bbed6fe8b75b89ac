"""Cold start: only nsm loads numpy and the thread pool.

conftest.py imports numpy, so the check runs in a fresh interpreter.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import ccc

SRC = str(Path(ccc.__file__).resolve().parent.parent)

EXACT_COMMANDS = [
    ["presets"],
    ["info", "--preset", "example5"],
    ["lattice", "--preset", "dplus5"],
    ["theorem1", "--preset", "dplus4"],
    ["spectrum", "--preset", "example3", "--center", "1", "--r2max", "16"],
    ["eds", "--preset", "dplus5"],
    ["gu", "--preset", "dplus5"],
    ["gu-search", "--preset", "example1"],
    ["partner", "--preset", "example1", "--mode", "lemma1", "--x", "0,0", "--y", "1,1", "--xp", "1,1"],
    ["dplus", "--n", "7"],
]
NSM = ["nsm", "--preset", "dplus4", "--samples", "20000", "--format", "json"]

SCRIPT = """
import contextlib, io, json, sys
import ccc
import ccc.cli

lazy = ("numpy", "concurrent.futures")
out = {"after_import": [m for m in lazy if m in sys.modules], "exact": [], "nsm": []}
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()):
        code = ccc.cli.main(argv)
    out["exact"].append([argv[0], code, [m for m in lazy if m in sys.modules]])
for threads in ("1", "2"):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = ccc.cli.main(json.loads(sys.argv[2]) + ["--threads", threads])
    out["nsm"].append([code, buf.getvalue()])
out["after_nsm"] = [m for m in lazy if m in sys.modules]
print(json.dumps(out))
"""

# nsm --preset dplus4 --samples 20000 as the eager-import build printed it
NSM_REPORT = """{
  "command": "nsm",
  "input": {
    "L": 2,
    "digest": "e29f115cb1f3036ca0b93d3970620a83274283596776cd796b4bcdf8a7ee216e",
    "n": 4,
    "preset": "dplus4"
  },
  "results": {
    "covolume": "16/1",
    "samples": 20000,
    "seed": 0,
    "stderr": 0.0002609798501028076,
    "value": 0.08316070295358904
  },
  "seed": 0
}
"""


def test_only_nsm_loads_numpy_and_the_thread_pool():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("CCC_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(EXACT_COMMANDS), json.dumps(NSM)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["after_import"] == []
    assert out["exact"] == [[argv[0], 1 if argv[0] == "lattice" else 0, []] for argv in EXACT_COMMANDS]
    assert out["nsm"] == [[0, NSM_REPORT], [0, NSM_REPORT]]
    assert "numpy" in out["after_nsm"]
    # three batches at --threads 2 start a pool wherever there is a second core
    assert ("concurrent.futures" in out["after_nsm"]) == ((os.cpu_count() or 1) > 1)
