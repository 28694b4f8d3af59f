"""Photon-counting and diffusive readout of a driven cavity qubit.

The package follows one thread: a monitored cavity (or a three-level atom
standing in for it) evolves deterministically between detector clicks, the
click times carry the qubit information, and the distribution of the next
click is everything the experimenter can use.  Modules:

- numerics: truncated Fock vectors, the exp-action exp(A t) y, named RNG
  streams.
- trajectories: generic no-click flow, inverse-transform jump sampling,
  telegraph records, trajectory-vs-density-matrix consistency.
- cavity: closed-form coherent flows of the damped driven cavity and their
  no-click survival law.
- atom3: the three-level telegraph atom with a strong and a weak branch.
- transmon: bright/dark level widths, dark-block spectrum and the
  memory-kernel decay of the slow state.
- heterodyne: diffusive conditional evolution along a noise record and
  measurement-current ensembles.
- readout: next-click versus averaged-current error curves.
- validation: the numbered acceptance checks behind ``nextjump validate``.
- cli: the ``nextjump`` command-line front end.
"""

from . import (atom3, cavity, heterodyne, numerics, readout, trajectories,
               transmon, validation)
from .atom3 import Atom3Params
from .cavity import CavityParams
from .heterodyne import HeterodyneParams, NoisePath
from .numerics import FockVector, RngStream
from .trajectories import EffectiveModel, NullFlow
from .transmon import TransmonParams

__version__ = "0.1.0"

__all__ = [
    "Atom3Params",
    "CavityParams",
    "EffectiveModel",
    "FockVector",
    "HeterodyneParams",
    "NoisePath",
    "NullFlow",
    "RngStream",
    "TransmonParams",
    "__version__",
    "atom3",
    "cavity",
    "heterodyne",
    "numerics",
    "readout",
    "trajectories",
    "transmon",
    "validation",
]
