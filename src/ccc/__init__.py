"""Multi-level constellations from binary code chains: lattice tests,
uniformity certificates, exact distance spectra, and coset quantization."""

from .constellation import CodeChain, Point, ResidueSet, contains, cw_members, decompose, points_in_box, residues
from .f2 import BinaryCode, Word, code_from_words, is_linear, is_nested, schur, schur_closed_chain, span, xor_add
from .lattice import (
    EquivalenceReport,
    IntegerLattice,
    NestedBasis,
    construction_d,
    equivalence_report,
    hnf,
    is_lattice_direct,
    select_nested_basis,
    smallest_lattice,
)
from .quantizer import NsmEstimate, covolume, dplus_chain, nearest, nsm_estimate
from .spectrum import EdsWitness, SpectrumTable, cw_count, cw_equidistant, eds_check, kissing_stats, spectrum_at
from .uniformity import (
    GuSearchResult,
    GuTwoLevelResult,
    IsometryCandidate,
    PartnerTrace,
    ReflectionMap,
    euclidean_partner_all,
    euclidean_partner_bruteforce,
    gu_check_two_level,
    gu_subgroup_search,
    partner_bruteforce,
    partner_construct,
    reflection_for,
)

__version__ = "0.1.0"
