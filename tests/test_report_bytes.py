"""Every command's JSON report, pinned byte for byte across versions.

Criterion 10 compares two runs of one build; this table compares a run with
the bytes an earlier build wrote, so a refactor that changes a single report
byte (a key, a list written differently, a dropped field) fails here.  Each
row is the command line, its exit code and the sha256 of its stdout.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from ccc.cli import main

ROOT = Path(__file__).resolve().parent.parent
E8 = str(ROOT / "tests" / "chains" / "e8.chain")
NESTED6 = str(ROOT / "perfbench" / "chains" / "nested6.chain")

PINNED = [
    ("lattice --preset example1", 1, "2b84072b961b454c8a3d486b6331a6ba06ca4b77341e2f3bdf4ef13cf88ea1f1"),
    ("lattice --preset example3", 1, "312f7fd46039280682f05cdbd97caddf8a72ac0a41cb13296516beb827a63827"),
    ("lattice --preset example5", 1, "4a446810d40fd0c387c5a39c2728d29a6f443d9d9b849dc3d36773f04b20922b"),
    ("lattice --preset dplus11", 1, "4f5011749b85fbfef6d14eccf5e88d9ec5fb661d33012992638cec6110c49887"),
    ("theorem1 --preset example5", 1, "dfa7b42ea08d9a92b61aea583223aaad6c1358c28d830b5708604c168f1dd83c"),
    ("theorem1 --preset dplus10", 0, "9a577ca134c613499b3d9e143bfa36140d08cd57cbc1b58fa5862bb1b3055d74"),
    ("theorem1 E8", 0, "30c285d2cc6e35973b02e754aa81a7154edf1daa25d0248d1e205fb7bc445a6c"),
    ("eds --preset example3", 1, "e71e98d15e25c24afc0d5e9ed3d0819ec339160878b8c6403e57d152b3e47126"),
    ("eds --preset example5", 1, "a81bb7a59f87966efc889d8359caf1a9f9f67a35f65a2b41337032027cd599c0"),
    ("eds --preset dplus9", 0, "7c658f47e4921bbc8c861c0669d0c6e4b682f5f2c8aed372fa82576913eedd4e"),
    ("eds NESTED6", 0, "dde3bb97b933feb36959582758f60782abb03170c7c82e6640df75ba3bc37502"),
    ("gu --preset example1", 0, "0638824cb5965c4d4522c29d6b0c9a01092918c963ff4fd0b05d17b6ca41a5f9"),
    ("gu --preset dplus9", 0, "5796eb0774055034f3c65f680b64a8fd76426752187272749c271ea3820b9e3b"),
    ("gu-search --preset example1", 0, "55ecfe61168f135661c5c3a413eee8318134ad113e6015146f6b4013d7490c4f"),
    ("gu-search --preset example3", 1, "62d1d06e7739aac74825b2bf659137c8e3f6af23a5d290f237745c8656010fdb"),
    ("gu-search --preset example5", 1, "82a729da2bb8812b637c243267013080313bc5cd91619b43b056326cce8ccbc9"),
    ("gu-search NESTED6", 0, "3ec8b08dc08f3ee9a1f8a51d63f1c3bfbc809bd049450ac19dc7c0dffef8f225"),
    ("spectrum --preset example5 --center 0,0,0 --r2max 40", 0, "e83f0bedaf658f5404cd8a68b61dc41e2661473998f847a37439634a1edf7f5d"),
    ("partner --preset dplus4 --mode lemma1 --x 0,0,0,0 --y 1,1,1,1 --xp 3,3,1,1", 0, "543510d821944f1ce292ae4bffe63788eb18e4f80896abde4480c784272fd6af"),
    ("partner --preset example3 --mode cw-brute --x 0 --y 3 --xp 9", 1, "467d74662af7339e83b6fd5f375e0b280e5a36f6b72093c7a263010c7b3300a4"),
    ("partner --preset example5 --mode euclid-brute --x 0,0,0 --y 2,2,0 --xp 1,1,0", 0, "3b291dde62fd082538196da08eadd901f1ffe8222ff7c283bcfb3181e03986d2"),
    ("nsm --preset dplus7 --samples 30000", 0, "440dae59b386e6a3170e1cf5b9ea23a15cd1b11aa72d6a838ad9822f70b53f9b"),
    ("info --preset example5", 0, "7dad05e1849d67ef529fce176eafb1b757ddc3ddf016db0ef8270c0a8858235d"),
]


@pytest.mark.parametrize("line, exit_code, digest", PINNED, ids=[row[0] for row in PINNED])
def test_json_report_bytes(line, exit_code, digest):
    argv = [{"E8": E8, "NESTED6": NESTED6}.get(word, word) for word in line.split()]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv + ["--format", "json"])
    assert (code, hashlib.sha256(out.getvalue().encode()).hexdigest()) == (exit_code, digest)
