"""Frontend: guest-source capture, typed IR, lowering, and rule checking.

Only the shape vocabulary is re-exported: :mod:`~repro.frontend.shapes` and
:mod:`~repro.frontend.objectgraph` are what a cache hit needs, while
``ir`` / ``lower`` / ``rules`` / ``verify`` / ``source`` belong to the
compile stack and are imported by name, by the first miss (DESIGN.md,
"Import layers").
"""

from repro.frontend.shapes import ArrayShape, ObjShape, PrimShape, Shape  # noqa: F401
