"""Cold start: ``import ccc`` loads no submodule, each command loads only the
modules it runs, only nsm loads numpy, and no command loads
``concurrent.futures`` or ``dataclasses`` (or, short of numpy, ``inspect``).

conftest.py imports numpy and most of ``ccc``, so the checks run in fresh
interpreters.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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

lazy = ("numpy", "concurrent.futures", "dataclasses", "inspect")
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


def fresh_python(script: str, *args) -> dict:
    """What ``script`` prints as JSON, run with JSON ``args`` in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    env.pop("CCC_THREADS", None)
    proc = subprocess.run(
        [sys.executable, "-c", script, *map(json.dumps, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_only_nsm_loads_numpy_and_the_thread_pool():
    out = fresh_python(SCRIPT, EXACT_COMMANDS, NSM)
    assert out["after_import"] == []
    # the exact commands load none of the four, dataclasses and inspect included
    assert out["exact"] == [[argv[0], 1 if argv[0] == "lattice" else 0, []] for argv in EXACT_COMMANDS]
    assert out["nsm"] == [[0, NSM_REPORT], [0, NSM_REPORT]]
    assert "numpy" in out["after_nsm"]
    assert "dataclasses" not in out["after_nsm"]  # numpy loads inspect itself, but not dataclasses
    # three batches at --threads 2 start plain threads wherever there is a second core
    assert "concurrent.futures" not in out["after_nsm"]


LOADED = """
import contextlib, io, json, sys
import ccc
argv = json.loads(sys.argv[1])
code = None
if argv is not None:
    import ccc.cli
    if argv:
        with contextlib.redirect_stdout(io.StringIO()):
            code = ccc.cli.main(argv)
print(json.dumps({"code": code, "modules": sorted(m for m in sys.modules if m.split(".")[0] == "ccc")}))
"""

# Submodules each command must not load, and its exit code.
NOT_LOADED = [
    (["presets"], 0, {"lattice", "uniformity", "quantizer", "chainfile"}),
    (["lattice", "--preset", "dplus5"], 1, {"uniformity", "quantizer"}),
    (["theorem1", "--preset", "dplus4"], 0, {"uniformity", "quantizer"}),
    (["eds", "--preset", "dplus5"], 0, {"lattice", "uniformity", "quantizer"}),
    (["spectrum", "--preset", "example3", "--center", "1", "--r2max", "16"], 0, {"lattice", "uniformity"}),
    (["gu", "--preset", "dplus5"], 0, {"lattice", "quantizer"}),
    (["gu-search", "--preset", "example1"], 0, {"lattice"}),
    (["nsm", "--preset", "dplus4", "--samples", "20000"], 0, {"lattice", "uniformity"}),
    (["dplus", "--n", "7"], 0, {"lattice", "uniformity", "quantizer"}),
]


def test_import_ccc_loads_no_submodule():
    assert fresh_python(LOADED, None)["modules"] == ["ccc"]


@pytest.mark.parametrize("argv, code, absent", NOT_LOADED, ids=[argv[0] for argv, _, _ in NOT_LOADED])
def test_each_command_loads_only_its_modules(argv, code, absent):
    out = fresh_python(LOADED, argv)
    assert out["code"] == code
    assert sorted({f"ccc.{m}" for m in absent} & set(out["modules"])) == []


def test_cli_loads_the_modules_the_benchmark_cache_meter_reads():
    # perfbench/run.py's CacheMeter reads both from sys.modules right after importing ccc.cli
    assert {"ccc.constellation", "ccc.spectrum"} <= set(fresh_python(LOADED, [])["modules"])


# The package's public names, by defining module.
PUBLIC = {
    "constellation": [
        "CodeChain", "Point", "ResidueSet", "contains", "cw_members", "decompose", "points_in_box", "residues",
    ],
    "f2": [
        "BinaryCode", "Word", "code_from_words", "is_linear", "is_nested", "schur", "schur_closed_chain", "span",
        "xor_add",
    ],
    "lattice": [
        "EquivalenceReport", "IntegerLattice", "NestedBasis", "construction_d", "equivalence_report",
        "is_lattice_direct", "select_nested_basis", "smallest_lattice",
    ],
    "presets": ["dplus_chain"],
    "quantizer": ["NsmEstimate", "covolume", "nearest", "nsm_estimate"],
    "spectrum": [
        "EdsWitness", "SpectrumTable", "cw_count", "cw_equidistant", "eds_check", "kissing_stats", "spectrum_at",
    ],
    "uniformity": [
        "GuCertificate", "GuSearchResult", "GuTwoLevelResult", "IsometryCandidate", "PartnerTrace", "ReflectionMap",
        "euclidean_partner_all", "euclidean_partner_bruteforce", "gu_check_two_level", "gu_subgroup_search",
        "partner_bruteforce", "partner_construct", "reflection_for",
    ],
}
PUBLIC_NAMES = {name for names in PUBLIC.values() for name in names}


def test_public_names_are_the_defining_modules_objects():
    assert len(PUBLIC_NAMES) == 50
    for module, names in PUBLIC.items():
        mod = importlib.import_module(f"ccc.{module}")
        for name in names:
            assert getattr(ccc, name) is getattr(mod, name), name
    assert ccc.__version__ == "0.1.0"
    # dplus_chain moved to presets; its former home still resolves it
    assert ccc.quantizer.dplus_chain is ccc.dplus_chain


def test_star_import_and_dir_list_the_public_names():
    namespace: dict = {}
    exec("from ccc import *", namespace)
    assert set(namespace) - {"__builtins__"} == PUBLIC_NAMES
    assert PUBLIC_NAMES | {"__version__"} <= set(dir(ccc))


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(ccc, "nosuch")
    with pytest.raises(AttributeError) as info:
        ccc.nosuch
    assert not isinstance(info.value, ImportError)


FIRST_READ = """
import json, sys
import ccc
before = ["eds_check" in vars(ccc), "ccc.spectrum" in sys.modules]
module = ccc.spectrum
fn = ccc.eds_check
print(json.dumps({
    "before": before,
    "module": module is sys.modules["ccc.spectrum"],
    "stored": vars(ccc).get("eds_check") is fn is module.eds_check,
}))
"""


def test_first_read_imports_the_module_and_stores_the_name():
    assert fresh_python(FIRST_READ) == {"before": [False, False], "module": True, "stored": True}
