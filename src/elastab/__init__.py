"""elastab: frequency-explicit stability laboratory for time-harmonic
elastodynamics in heterogeneous, nearly incompressible media.

Four capabilities, one per subpackage concern:

* closed-form stability constants (``elastab.bounds``) driven by the
  dimensionless groups of ``elastab.core``;
* the homogeneous 3D problem solved by the fundamental solution with
  numerical verification of the whole-space bound (``elastab.greens``);
* a 2D finite-element probe measuring empirical resolvent constants on an
  annulus with an absorbing outer boundary (``elastab.fem``);
* numerical audits of every integration-by-parts identity and inequality
  the stability proofs rest on (``elastab.identities``).

Importing the package loads none of them; import the one you use
(``from elastab import fem``).  Only ``fem`` and ``identities`` need scipy.
"""

__version__ = "0.1.0"
