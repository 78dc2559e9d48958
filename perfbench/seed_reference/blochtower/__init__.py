"""Exact computational algebra for Bloch groups of small finite fields.

The package computes pre-Bloch and refined Bloch groups of finite fields as
modules over the square-class group ring, models the specialization map over
truncated Laurent-series fields, and predicts the decomposition of the third
homology of SL(2) (with 2 inverted) for towers of discretely valued fields.
Everything is exact integer/finite-field arithmetic; no floats anywhere.
"""

__version__ = "0.1.0"
