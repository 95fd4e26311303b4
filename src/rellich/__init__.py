"""Numerical certification of Hardy/Rellich-type inequalities on
constant-curvature space forms via Riccati and dual Riccati pairs."""

from .expr import (Bindings, Expr, differentiate, evaluate, fd_check,  # noqa: F401
                   parse)
from .geometry import (RadialTestFunction, SpaceForm, big_l, ct,  # noqa: F401
                       make_bump, separated_laplacian, volume_weight)
from .pairs import (PairSpec, Scan, positivity_polynomial_roots,  # noqa: F401
                    disconjugacy_check, dual_to_primal, e1_expr, e2_expr,
                    e1_terms, e2_terms, from_bessel_pair, from_bessel_potential,
                    primal_to_dual, bessel_pairs_from_potential, residual_expr,
                    residual_terms, scan_positivity)
from .catalog import (build_entry, classical_euclidean, ell_potential,  # noqa: F401
                      final_combined, hyperbolic_interpolation,
                      hyperbolic_lower, iterated_log_potential,
                      chain_from_potential, entry_chain, entry_pair)
from .verify import (BatchSpec, InequalityCase, QuadratureResult,  # noqa: F401
                     Sides, VerificationReport, integrate, shape_sides, side,
                     verify_case)
from .sharpness import (SharpnessEstimate, estimate_constant,  # noqa: F401
                        rayleigh_quotient)

__version__ = "0.1.0"
