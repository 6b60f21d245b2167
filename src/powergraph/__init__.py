"""Power graphs of the two-generator family <s, r>: matrices, spectra, dimensions."""

__version__ = "0.1.0"
