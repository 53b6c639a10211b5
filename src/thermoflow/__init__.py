"""Numerics for transfer-operator thermodynamic formalism, suspension flows,
rank-3 holonomy variations at the hyperbolic base point, and the disk
angular-integral vanishing recursions."""

from .sft import (DepthKFunction, PeriodicOrbit, Sft, admissible_words, birkhoff_sum,
                  coboundary, constant_function, full_shift, golden_mean_shift,
                  indicator, livsic_coboundary_test, new_sft, periodic_orbits,
                  random_function)
from .transfer import (MarkovMeasure, RpfData, RuelleMatrix, equilibrium_measure,
                       normalize_potential, pressure, rpf, ruelle_matrix)
from .correlations import (CorrelationReport, EquilibriumContext, birkhoff_moment,
                           covariance, project_mean_zero, triple_covariance, variance)
from .derivatives import (PotentialFamily, fd_oracle, measure_derivative, pressure_d1,
                          pressure_d2, pressure_d2_mixed, pressure_d3, pressure_d3_mixed,
                          pressure_metric, pressure_metric_d1, pressure_metric_d1_terms)
from .suspension import (FlowFamily, FlowFunction, SuspensionFlow, flow_measure_factor,
                         flow_pressure, flow_pressure_derivative_transfer, hat_function)
from .holonomy import (BaseFrame, ConnectionFamily, FourierSampler, OrbitData,
                       ShootingSolution, cubic_direction, eigenvalue_derivative_fd,
                       eta_cc, parallel_transport, psi_cc, psi_cq, quadratic_direction,
                       reassemble_trace_cc, reassemble_trace_cq,
                       second_variation_trace_cc, second_variation_trace_cq,
                       trace_derivative, variation_ode_closed_form)
from .diskgeom import (UnitTangent, flow_contraction_ratio, geodesic_flow,
                       sasaki_distance)
from .diskseries import (AngularReduction, DifferentialExpansion, angular_triple_reduce,
                         quadrature_triple)
from .recursions import (REFERENCE_COUPLINGS, RecursionSystem, VanishingVerdict,
                         build_completed_relations, build_relations, named_relation,
                         solve_vanishing)

__all__ = [name for name in dir() if not name.startswith("_")]
