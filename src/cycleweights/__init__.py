"""Random permutations under multiplicative cycle-weight measures.

Exact computation, exact sampling and saddle-point asymptotics for the
measure on permutations proportional to prod_k theta_k^{C_k} with
polynomially growing weights, plus statistical verification of the
Poisson-process and longest-cycle limit behaviour.
"""

from .weights import WeightSequence, ewens, g_theta_partial, polynomial, table
from .oracle import (CycleType, HTable, ScaledReal, build_h_table,
                     corollary_bound_check, enumerate_cycle_types,
                     exact_statistic_pmf, h_exact, longest_cycle_cdf,
                     mgf_series, tail_count_mean)
from .sampler import CycleTypeSampler, SamplerConfig, sample_batch, sample_cycle_type
from .asymptotics import (SaddleData, admissibility_diagnostics, ell_n,
                          expected_tail_count, partial_sum_asymp,
                          polylog_asymp, saddle_h_estimate, solve_saddle,
                          threshold_x)
from .stats import (VerificationReport, bn_event_frequency,
                    cumulative_profile, ks_distance, verify_gumbel,
                    verify_poisson_increments)

__version__ = "0.1.0"
