"""Spectral rank, multiplicities, trace, determinant, and factored
characteristic polynomials for finite direct sums of complex matrix blocks,
plus seedable verification campaigns for the identities they satisfy."""

from .algebra import (FINITE, INFINITE_SOCLE, AlgebraShape, CompressedView,
                      Element, NotInvertibleError, ProjectionElement,
                      ShapeMismatchError, ViewError, compressed_view, identity,
                      inverse, nonzero_spectrum, norm, random_element,
                      random_socle_element, riesz_element, spectrum, zero)
from .charpoly import (CharPoly, ConvergenceRecord, DiagonalizationError,
                       approximation_sequence, cayley_hamilton_residual,
                       char_poly, char_poly_maximal, det_plus_one,
                       diagonalize_maximal, eval_element, eval_scalar,
                       naive_det_demo, trace)
from .config import DEFAULT_TOLS, Tolerances
from .multiplicity import (MultiplicityRecord, SpectrumDomainError,
                           UnstableMultiplicityError, multiplicities,
                           multiplicity, multiplicity_oracle,
                           multiplicity_riesz, spectral_gap)
from .numkernel import (ClusteredSpectrum, ContourError, ConvergenceError,
                        NonFiniteError, SpecrankError, classical_charpoly,
                        cluster, eig, hausdorff, mat_rank, riesz_projection)
from .propsuite import (CampaignReport, CampaignSettings, PropertyReport,
                        PropertySpec, ShapePolicy, run_campaign, run_property)
from .rank import (IllConditionedError, RankCertificate, UncertifiedRankError,
                   assumes_rank_at, is_maximal, make_maximal, rank_oracle,
                   spectral_rank)

__version__ = "0.1.0"
