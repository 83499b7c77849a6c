"""Exact spectra, splitting fields and algebraic degrees of Cayley colour graphs.

Import what you need from the modules: `cayspec.groups` builds groups,
`cayspec.colour` colour functions on them, `cayspec.spectra` their spectra,
`cayspec.galois` splitting fields and degrees, `cayspec.search` the search
over normal connection sets, and `cayspec.cli` is the command line.
"""

__version__ = "0.1.0"
