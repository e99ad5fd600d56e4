"""Shared numeric tolerance table.

Every fixed tolerance used by the library and its self-checks lives here so
that there is a single place to audit them.
"""

from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    # set membership / feasibility of strategies after algorithm steps
    membership: float = 1e-9
    # projection idempotence, per coordinate
    idempotence: float = 1e-12
    # nonexpansiveness and variational-inequality slack
    nonexpansive: float = 1e-12
    variational: float = 1e-9
    # exact-potential identity, relative
    potential_exact: float = 1e-9
    # finite-difference gradient check, relative
    gradient_fd: float = 1e-6
    # best-response optimality slack
    optimality: float = 1e-9
    # Lipschitz inequality slack
    lipschitz: float = 1e-12
    # per-round potential monotonicity slack (best-response dynamics)
    monotonicity: float = 1e-12
    # update-metric level treated as a literal fixed point (see engine.run)
    fixed_point: float = 0.0
    # metric level below which near-consensus is expected to hold
    fixed_point_report: float = 1e-18
    consensus_at_fixed_point: float = 1e-6
    # default stopping threshold on the consensus metric
    convergence_threshold: float = 1e-5
    # off-diagonal Frobenius tolerance of the Jacobi eigensolver, times min(1, ||A||_F)
    jacobi_offdiag: float = 1e-12
    # eigenvalue level separating "connected" from "disconnected"
    connectivity: float = 1e-9


DEFAULT = Tolerances()
