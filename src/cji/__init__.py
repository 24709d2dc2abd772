"""Conjugate guided samplers for linear inverse problems.

Matrix-free degradation operators, analytic score/velocity oracles, and
exponential-integrator samplers whose measurement-consistency drift is
absorbed into a projector-valued transform.  Each name is imported from its
module (``from cji.samplers import sample``); the package itself loads none.
"""

__version__ = "0.1.0"
