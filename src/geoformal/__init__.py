"""geoformal: exact geometric-formality probes and realization certificates.

Modules:
  exterior   exact rational exterior algebra on R^n, n <= 16
  lie        su(n) for n >= 2, Chevalley sl(3), Killing forms, reductive splits
  invariant  invariant de Rham complexes, Betti numbers, formality probes
  ring       finitely presented graded-commutative algebras over Q
  realize    pointwise realization problems, residual search
  certify    infeasibility certificates and their independent verifier
  cli        command-line reproductions and the acceptance suite
"""

__version__ = "0.1.0"
