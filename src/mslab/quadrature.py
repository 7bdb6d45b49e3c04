"""Empty module, kept only so that traced bench runs can import it.

No computation in mslab integrates numerically: every arc mass is the
closed form ``(Phi(hi) - Phi(lo))/2pi``.  ``bench/tracer.py`` still lists
``"quadrature"`` in its ``LAYERS`` and imports each listed module when a
traced run starts, so this module stays, with nothing in it, until the
bench rebuild (ROADMAP item 1) drops it from ``LAYERS``; then it goes.
"""
