"""heislab: a laboratory for Heisenberg-type group diffusions.

Finite-dimensional Heisenberg-type groups built from a symplectic pairing;
their reduced (vertical-periodic) quotients; left-invariant calculus for
cylinder functions; hypoelliptic Brownian endpoints with deterministic
counter-based sampling; log-Sobolev functionals; and the closed-form
optimal polygon for the horizontal distance.

The package exports every name in its modules' ``__all__`` lists.
"""

__version__ = "0.1.0"

from . import calculus, config, diffusion, distance, group, lsi, model

_MODULES = (model, group, calculus, diffusion, lsi, distance, config)

__all__ = ["__version__", *(name for module in _MODULES for name in module.__all__)]
globals().update({name: getattr(module, name) for module in _MODULES for name in module.__all__})
