"""The record types: equality and hashing by value, positional and keyword
construction, read-only fields, reprs, pickle and deepcopy round trips, and
the validating constructors' messages."""

import copy
import pickle
import re
from fractions import Fraction

import pytest

from ccc.constellation import CodeChain
from ccc.f2 import BinaryCode, Record
from ccc.lattice import EquivalenceReport, IntegerLattice, NestedBasis
from ccc.quantizer import NsmEstimate
from ccc.spectrum import EdsWitness, SpectrumTable
from ccc.uniformity import (
    GuCertificate,
    GuSearchResult,
    GuTwoLevelResult,
    IsometryCandidate,
    PartnerTrace,
    ReflectionMap,
)

REP2 = BinaryCode(n=2, words=frozenset({(0, 0), (1, 1)}))
FULL2 = BinaryCode(n=2, words=frozenset({(0, 0), (0, 1), (1, 0), (1, 1)}))
WITNESS_FIELDS = {"center_a": (0, 0), "center_b": (1, 0), "d2": 1, "count_a": 0, "count_b": 2}
WITNESS = EdsWitness(**WITNESS_FIELDS)

# (type, fields, (a field, another value for it), [(bad fields, the constructor's message)])
RECORDS = [
    (BinaryCode, {"n": 2, "words": REP2.words}, ("words", FULL2.words), [
        ({"n": 2, "words": frozenset()}, "a code must contain at least one word"),
        ({"n": 0, "words": frozenset({()})}, "code length must be in 1..24, got 0"),
        ({"n": 2, "words": frozenset({(0, 0, 0)})}, "word (0, 0, 0) does not have length 2"),
        ({"n": 2, "words": frozenset({(0, 2)})}, "word entries must be 0 or 1, got 2"),
    ]),
    (CodeChain, {"codes": (FULL2, REP2)}, ("codes", (REP2, FULL2)), [
        ({"codes": ()}, "a chain needs at least one level"),
        ({"codes": (REP2, BinaryCode(n=1, words=frozenset({(0,)})))}, "all codes in a chain must share one length"),
    ]),
    (IntegerLattice, {"n": 2, "basis": ((2, 1), (0, 4)), "determinant": 8}, ("basis", ((2, 0), (0, 4))), [
        ({"n": 2, "basis": ((2, 1, 0), (0, 4)), "determinant": 8}, "basis rows must have length n"),
        ({"n": 2, "basis": ((2, 1), (1, 4)), "determinant": 8}, "basis is not in row Hermite Normal Form"),
        ({"n": 2, "basis": ((2, 1), (0, 4)), "determinant": 9}, "determinant does not match the basis diagonal"),
        ({"n": 2, "basis": ((2, 1),), "determinant": 2}, "basis must have n rows"),
        ({"n": 1, "basis": ((2,), (0,)), "determinant": 2}, "basis must have n rows"),
    ]),
    (NsmEstimate, {"value": 0.08, "stderr": 0.001, "samples": 1000, "seed": 3, "covolume": Fraction(16)},
     ("seed", 4), [
        ({"value": 0.0, "stderr": 0.001, "samples": 1000, "seed": 3, "covolume": Fraction(16)}, "estimate out of range"),
        ({"value": 0.08, "stderr": -1.0, "samples": 1000, "seed": 3, "covolume": Fraction(16)}, "estimate out of range"),
    ]),
    (ReflectionMap, {"signs": (1, -1)}, ("signs", (-1, 1)), [
        ({"signs": (1, 0)}, "reflection signs must be +1 or -1"),
    ]),
    (NestedBasis, {"rows": ((1, 1), (0, 1)), "dims": (1, 2)}, ("dims", (2, 2)), []),
    (EquivalenceReport, {"is_lattice": True, "equals_smallest_lattice": True, "schur_closed": True,
                         "equals_construction_d": True}, ("schur_closed", False), []),
    (EdsWitness, WITNESS_FIELDS, ("d2", 2), []),
    (SpectrumTable, {"center": (0, 0), "r2max": 4, "counts": {2: 4, 4: 4}}, ("counts", {2: 4}), []),
    (GuCertificate, {"x": (1, 1), "signs": (-1, -1)}, ("x", (0, 0)), []),
    (GuTwoLevelResult, {"uniform": True, "certificates": (GuCertificate((1, 1), (-1, -1)),), "failing": None},
     ("uniform", False), []),
    (IsometryCandidate, {"permutation": (1, 0), "signs": (1, -1), "translation": (0, 3)},
     ("translation", (0, 1)), []),
    (GuSearchResult, {"verdict": "refuted_by_eds", "eds_witness": WITNESS, "isometries": (), "unresolved": None},
     ("verdict", "inconclusive"), []),
    (PartnerTrace, {"e1": (1, 0), "e2": (0, 1), "e1p": (-1, 0), "e2p": (0, 1), "delta": (0, 0), "zbar": (0, 0),
                    "yprime": (1, 2)}, ("delta", (1, 0)), []),
]
HASH_AS_THE_FIELD = {CodeChain, ReflectionMap}  # the other records hash as the tuple of their fields


@pytest.mark.parametrize("cls, fields, other, bad", RECORDS, ids=[case[0].__name__ for case in RECORDS])
def test_record_semantics(cls, fields, other, bad):
    record = cls(**fields)
    twin = cls(**copy.deepcopy(fields))
    assert cls(*fields.values()) == record == twin
    name, value = other
    assert cls(**dict(fields, **{name: value})) != record
    if issubclass(cls, Record):  # equal only to a record of exactly its type
        twin_of_a_subclass = type(f"Sub{cls.__name__}", (cls,), {})(**fields)
        assert twin_of_a_subclass != record and record != twin_of_a_subclass
    assert repr(record) == f"{cls.__name__}({', '.join(f'{f}={v!r}' for f, v in fields.items())})"
    hashable = cls is not SpectrumTable  # its counts are a dict, as before
    if hashable:
        values = tuple(fields.values())
        assert hash(twin) == hash(record) == hash(values[0] if cls in HASH_AS_THE_FIELD else values)
    else:
        with pytest.raises(TypeError):
            hash(record)
    for copied in (pickle.loads(pickle.dumps(record)), copy.deepcopy(record)):
        assert type(copied) is cls and copied == record
        if hashable:
            assert hash(copied) == hash(record)
    for field in fields:
        assert getattr(record, field) == fields[field]
        with pytest.raises(AttributeError):
            setattr(record, field, fields[field])
        with pytest.raises(AttributeError):
            delattr(record, field)
    assert record == twin  # unchanged by the refused writes
    for kwargs, message in bad:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            cls(**kwargs)


def test_constructors_coerce_and_the_basis_is_computed_once(monkeypatch):
    import ccc.f2

    code = BinaryCode(2, [(1, 1), (0, 0), (1, 1)])
    assert code == REP2 and isinstance(code.words, frozenset)
    chain = CodeChain([FULL2, code])
    assert chain == CodeChain.of(FULL2, REP2) and isinstance(chain.codes, tuple)
    for signs in ([1, -1], (s for s in (1, -1))):
        reflection = ReflectionMap(signs)
        assert reflection == ReflectionMap((1, -1)) and hash(reflection) == hash((1, -1))
    for basis in ([[2, 1], [0, 4]], (list(row) for row in ((2, 1), (0, 4)))):
        lattice = IntegerLattice(2, basis, 8)
        assert isinstance(lattice.basis, tuple) and all(isinstance(row, tuple) for row in lattice.basis)
        assert lattice == IntegerLattice(2, ((2, 1), (0, 4)), 8) and hash(lattice) == hash((2, lattice.basis, 8))
    built = []

    class CountingTracker(ccc.f2.SpanTracker):
        def __init__(self, n):
            built.append(n)
            super().__init__(n)

    monkeypatch.setattr(ccc.f2, "SpanTracker", CountingTracker)
    assert code.basis == ((1, 1),)
    assert code.basis is code.basis
    assert built == [2]
