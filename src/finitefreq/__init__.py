"""Finite-frequency input-output analysis for LTI and LPV systems."""

from .model import (AffineMatrixFunction, DimensionError, FrequencyRange, LpvSystem,
                    ParameterBox, THETA, THETA_D, frequency_weight, load_system,
                    system_from_dict, transfer_function)
from .sdp import (AffineSymmetricForm, FeasibilityResult, max_eig_neg,
                  real_embedding, solve_feasibility)
from .lmi import (GammaResult, LmiProblem, UasCertificate, build_problem, min_gamma,
                  uas_certificate, verify_on_grid)
from .gramians import (ShiftedTraceBound, gramian_lpv_frozen, gramian_lpv_shifted,
                       gramian_lpv_weighted, gramian_set, shifted_trace_bound, state_transition)
from .enlargement import (EnlargementResult, delta_squared, enlarge_range, gap,
                          recommend_range, uniform_spectral_radius)
from .simulation import (BandLimitedSignal, IqcReport, ScheduleTrajectory,
                         SimulationResult, iqc_value, performance_ratio,
                         sample_signal, simulate, spectrum_fraction)

__version__ = "0.1.0"
