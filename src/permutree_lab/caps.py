"""Size caps for the enumerative operations.

Each cap counts its own unit and is checked before the enumeration it
bounds.  An explicit ``cap=N`` (``--cap N`` on the command line) raises
every cap the call reaches to at least N and never lowers one.
"""

from .errors import ResourceCapError

DEFAULT_CAPS = {
    "reduced_words": 300_000,
    "rotation_lattice_n": 7,
    "s_trees": 40_320,
    "max_cliques_routes": 256,
    "cliques": 65_536,
    "generating_tree_n": 7,
    "routes": 65536,
    "lidskii_terms": 1_000_000,
    "permutree_count_sections": 10_000,
    "conjecture_terms": 65_536,
    "kostant_states": 100_000,
}


def cap_for(name, override=None):
    """The cap in force: the default, raised to the override if that is larger."""
    return max(DEFAULT_CAPS[name], override or 0)


def require_cap(name, value, override=None):
    cap = cap_for(name, override)
    if value > cap:
        raise ResourceCapError(
            f"{name}: requested size {value} exceeds cap {cap} "
            f"(raise it with --cap or cap=)"
        )
    return cap
