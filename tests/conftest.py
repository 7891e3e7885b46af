"""One Hypothesis profile for the whole suite.

Examples run geodesic and matrix-exponential work whose time varies with
the load on the host, so no example has a deadline.  Each property still
sets its own ``max_examples``.
"""

from hypothesis import settings

settings.register_profile("geochaos", deadline=None)
settings.load_profile("geochaos")
