"""Multi-level constellations from binary code chains: lattice tests,
uniformity certificates, exact distance spectra, and coset quantization.

Importing the package loads no submodule.  The first read of a public name,
or of one of the submodules below, imports the module that defines it (PEP
562) and stores the value here, so later reads are plain attribute reads.
"""

from importlib import import_module as _import_module

__version__ = "0.1.0"

# Public names by defining submodule.
_EXPORTS = {
    "constellation": (
        "CodeChain", "Point", "ResidueSet", "contains", "cw_members", "decompose", "points_in_box", "residues",
    ),
    "f2": (
        "BinaryCode", "Word", "code_from_words", "is_linear", "is_nested", "schur", "schur_closed_chain", "span",
        "xor_add",
    ),
    "lattice": (
        "EquivalenceReport", "IntegerLattice", "NestedBasis", "construction_d", "equivalence_report",
        "is_lattice_direct", "select_nested_basis", "smallest_lattice",
    ),
    "presets": ("dplus_chain",),
    "quantizer": ("NsmEstimate", "covolume", "nearest", "nsm_estimate"),
    "spectrum": (
        "EdsWitness", "SpectrumTable", "cw_equidistant", "eds_check", "kissing_stats", "spectrum_at",
    ),
    "uniformity": (
        "GuCertificate", "GuSearchResult", "GuTwoLevelResult", "IsometryCandidate", "PartnerTrace", "ReflectionMap",
        "euclidean_partner_all", "gu_check_two_level", "gu_subgroup_search",
        "partner_bruteforce", "partner_construct", "reflection_for",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name: str):
    if name in _EXPORTS:
        return _import_module(f"{__name__}.{name}")  # the import binds it here as well
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(_import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
