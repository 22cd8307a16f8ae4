"""The Dirichlet lift, the oracle for manufactured solutions with nonzero
data on the Dirichlet circle.

``fem.solve`` poses the probe's problem alone: u = 0 on the Dirichlet
circle and the load M f.  A manufactured solution needs its trace g on
that circle and a surface load on the impedance circle, so the lift is
formed here from the assembled matrices: S_ff u_f = rhs_f - S_fd g,
solved with the system's own factor and held to the package's
backward-error contract against S_ff.
"""

import numpy as np

from elastab import fem


def lifted_solve(system, f, dirichlet_values, surface_load):
    """The nodal field u (Nn, 2) with S u = M f + surface_load on the free
    rows and u = dirichlet_values on the Dirichlet circle; f and
    dirichlet_values are nodal fields (Nn, 2), surface_load a dual vector
    (2 Nn,).  SolverError if the solve misses the contract."""
    free = system.free
    dirichlet = np.setdiff1d(np.arange(system.n_dofs), free)
    u = np.asarray(dirichlet_values, dtype=complex).reshape(-1).copy()
    rhs = system.mass @ np.asarray(f, dtype=complex).reshape(-1) + surface_load
    s_f = system.system_matrix()[free]
    rhs_f = rhs[free] - s_f[:, dirichlet] @ u[dirichlet]
    u[free] = system.lu.solve(rhs_f)
    fem._check_solve(system.s_ff, system.free_norm, rhs_f, u[free])
    return u.reshape(-1, 2)
