"""Exact computation with multiplicatively twisted near-linear spaces.

The package builds scalar bases (small Galois fields, the reals, the
complexes, and the order-9 Dickson near-field), the multiplicative
automorphisms that twist them, and finite-support spaces whose coordinate
additions and scalar actions are twisted per label.  Closed-form results
(quasi-kernel, regular decomposition, canonical forms, product regrouping)
ship next to brute-force oracles that recheck them from the definitions.
This module imports nothing: each name is imported from its own module.
"""
