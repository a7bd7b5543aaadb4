"""Exact matrix realizations of degenerate quantum general linear groups.

The package builds concrete representations of the Hopf algebra attached to a
pair (m, n) over the field of rational functions in q, verifies its defining
relations and structural identities as exact matrix identities, constructs the
finite dimensional simple modules in the (2, 1) case, and computes the HOMFLY
link invariant from the associated braid-group representation via a Markov
trace.  Everything is exact: scalars live in Q(q), never floats.
"""

__version__ = "0.1.0"
