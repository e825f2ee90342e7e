"""Critical-set degeneracy analysis, cubical GF(2) homology, filtered
spectral sequences, and Maslov indices on sampled data."""

from .cubical import GridMask, betti, betti_of_mask, betti_product_check, build_complex
from .fields import ScalarField, c1_distance, gradient
from .graphlag import GraphSection, flow_translate, isolation_scan, zero_section_intersection
from .maslov import LagrangianLinePath, concat, conjugate, index_shift, maslov
from .morse import (CriticalSet, DegeneracyReport, SubmanifoldChart, Tolerances,
                    build_rho, check_flattened_degenerate,
                    check_minimally_degenerate, check_qmd, classify,
                    construct_tau, detect_critical_set, flatten,
                    flatten_along_chart, index_preserved, negative_index,
                    verify_thickening)
from .specseq import (FilteredComplex, Generator, Page, QMDDescriptor, QMDPiece,
                      build_from_qmd, converge, directed_limit_check, page,
                      truncate_by_action)

__version__ = "0.1.0"
