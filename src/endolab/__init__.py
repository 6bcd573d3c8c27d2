"""Computational laboratory for the dynamics of polynomial endomorphisms
of C^n: periodic-point classification, Julia-set approximation along
independent characterizations, combinatorial chain-recurrence (Morse)
decompositions, and minimal-norm jet-interpolation perturbations.
Import each name from its module: the package imports none of them."""

__version__ = "0.1.0"
