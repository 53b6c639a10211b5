"""The thermoflow entry points the workloads call, keyed by span name.

Each name is `<module>.<entry>`; methods of returned objects carry the class
name too. The traced run reports `<name>.s` and `<name>.calls` for every key.
"""
from __future__ import annotations


def entry_points() -> dict:
    from thermoflow import (cli, correlations, derivatives, diskgeom, diskseries, holonomy,
                            ratseries, recursions, sft, suspension, transfer)
    return {
        "sft.periodic_orbits": sft.periodic_orbits,
        "sft.livsic_coboundary_test": sft.livsic_coboundary_test,
        "transfer.ruelle_matrix": transfer.ruelle_matrix,
        "transfer.rpf": transfer.rpf,
        "transfer.pressure": transfer.pressure,
        "transfer.normalize_potential": transfer.normalize_potential,
        "transfer.equilibrium_measure": transfer.equilibrium_measure,
        "correlations.EquilibriumContext": correlations.EquilibriumContext,
        "correlations.project_mean_zero": correlations.project_mean_zero,
        "correlations.variance": correlations.variance,
        "correlations.covariance": correlations.covariance,
        "correlations.triple_covariance": correlations.triple_covariance,
        "correlations.birkhoff_moment": correlations.birkhoff_moment,
        "derivatives.pressure_d1": derivatives.pressure_d1,
        "derivatives.pressure_d2": derivatives.pressure_d2,
        "derivatives.pressure_d3": derivatives.pressure_d3,
        "derivatives.fd_oracle": derivatives.fd_oracle,
        "suspension.hat_function": suspension.hat_function,
        "suspension.flow_pressure": suspension.flow_pressure,
        "suspension.flow_pressure_derivative_transfer":
            suspension.flow_pressure_derivative_transfer,
        "holonomy.trace_derivative": holonomy.trace_derivative,
        "holonomy.eigenvalue_derivative_fd": holonomy.eigenvalue_derivative_fd,
        "holonomy.parallel_transport": holonomy.parallel_transport,
        "holonomy.variation_ode_closed_form": holonomy.variation_ode_closed_form,
        "holonomy.VariationSolution.values_on_grid": holonomy.VariationSolution.values_on_grid,
        "holonomy.VariationSolution.ode_residual": holonomy.VariationSolution.ode_residual,
        "holonomy.VariationSolution.boundary_residual":
            holonomy.VariationSolution.boundary_residual,
        "holonomy.ShootingSolution": holonomy.ShootingSolution,
        "holonomy.ShootingSolution.values_on_grid": holonomy.ShootingSolution.values_on_grid,
        "holonomy.second_variation_trace_cc": holonomy.second_variation_trace_cc,
        "holonomy.second_variation_trace_cq": holonomy.second_variation_trace_cq,
        "holonomy.reassemble_trace_cc": holonomy.reassemble_trace_cc,
        "holonomy.psi_cc": holonomy.psi_cc,
        "holonomy.psi_cq": holonomy.psi_cq,
        "holonomy.eta_cc": holonomy.eta_cc,
        "diskgeom.flow_contraction_ratio": diskgeom.flow_contraction_ratio,
        "recursions.build_relations": recursions.build_relations,
        "recursions.build_completed_relations": recursions.build_completed_relations,
        "recursions.solve_vanishing": recursions.solve_vanishing,
        "recursions.RecursionSystem.to_json": recursions.RecursionSystem.to_json,
        "ratseries.tanh_multiple": ratseries.tanh_multiple,
        "diskseries.angular_triple_reduce": diskseries.angular_triple_reduce,
        "diskseries.quadrature_triple": diskseries.quadrature_triple,
        "diskseries.AngularReduction.value": diskseries.AngularReduction.value,
        "cli.main": cli.main,
    }
