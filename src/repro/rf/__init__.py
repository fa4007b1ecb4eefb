"""RF models: the planar elliptical UWB antenna (Fig. 2)."""

from repro.rf.antenna import PlanarEllipticalAntenna

__all__ = ["PlanarEllipticalAntenna"]
