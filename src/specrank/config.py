"""Centralized numeric tolerances and sampling policy.

The thresholds a campaign can set live in one :class:`Tolerances` record:
distinctness of spectral values, rank cutoffs and the identity checks. Every
other setting, the Riesz contour's among them, is a module constant here,
read at call time.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    """Numeric thresholds shared across all modules.

    The clustering tolerance is scale-invariant: two spectral values are
    considered distinct when they are more than ``tau(rho)`` apart, where
    ``rho`` is a spectral radius estimate for the element at hand.
    """

    cluster_floor: float = 1e-9
    cluster_rel: float = 1e-8
    # singular values below rank_rel * max(s_max, 1) count as zero
    rank_rel: float = 1e-8
    # normalized annihilation residual accepted in campaigns
    residual: float = 1e-6
    # relative tolerance for determinant/trace identities
    identity_rel: float = 1e-8
    # inverse acceptance: ||a a^-1 - 1|| <= inverse_rel * cond estimate
    inverse_rel: float = 1e-8

    def tau(self, rho: float) -> float:
        """Distinctness tolerance for spectra with spectral radius ``rho``."""
        return max(self.cluster_floor, self.cluster_rel * rho)


DEFAULT_TOLS = Tolerances()

# Rank certification: sample count and escalation cap when the sampled rank
# falls short of the classical-rank oracle.
RANK_SAMPLES = 8
RANK_SAMPLES_ESCALATED = 32

# Multiplicity voting: accepted perturbation samples per decision, and the
# escalation cap when the first round is not unanimous.
VOTE_SAMPLES = 5
VOTE_SAMPLES_MAX = 15

# Perturbations x = 1 + eps*G use eps = min(gap / (EPS_GAP_DIV * (|a|+1)), EPS_CAP)
EPS_GAP_DIV = 8.0
EPS_CAP = 0.05

# Counting disks get radius gap/3; Riesz contours get radius gap/2. Distinct
# on purpose: counting disks must stay disjoint, contours want clearance.
COUNT_DISK_DIV = 3.0
RIESZ_RADIUS_DIV = 2.0

# A contour with an eigenvalue within CONTOUR_CLEARANCE * radius of its
# circle is rejected before solving.
CONTOUR_CLEARANCE = 0.1
# Projection acceptance: ||p^2 - p|| <= PROJECTION_IDEM * (1 + ||p||).
PROJECTION_IDEM = 1e-8
# The trace of a spectral projector must sit this close to an integer.
PROJECTION_TRACE = 1e-6
# Newton's sign iteration gives up after SIGN_MAX_STEPS steps: a contour
# whose iterate has not met the step test by then is rejected. The step
# test: a step moves no entry by more than SIGN_STEP_REL times the largest
# entry of the new iterate; one more step follows it.
SIGN_MAX_STEPS = 60
SIGN_STEP_REL = 1e-4

# Condition-number cap when drawing random similarity transforms.
SIMILARITY_COND_CAP = 1e6

# Retries before giving up on conditioned sampling (rank-assuming draws).
CONDITION_RETRIES = 20
