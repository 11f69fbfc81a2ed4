"""Size caps for the enumerative operations.

Defaults are desk-scale; each counts its own unit, and an explicit ``cap=``
argument (``--cap`` on the command line) raises the one cap a call uses.
"""

from .errors import ResourceCapError

DEFAULT_CAPS = {
    "reduced_words_n": 8,
    "rotation_lattice_n": 7,
    "s_hasse_total": 10,
    "max_cliques_routes": 256,
    "cliques": 65_536,
    "generating_tree_n": 7,
    "realize_vertices": 5040,
    "routes": 65536,
    "lidskii_terms": 1_000_000,
    "permutree_count_sections": 10_000,
    "conjecture_terms": 65_536,
    "kostant_states": 100_000,
}


def cap_for(name, override=None):
    """The cap in force: the explicit override, else the default."""
    return DEFAULT_CAPS[name] if override is None else int(override)


def require_cap(name, value, override=None):
    cap = cap_for(name, override)
    if value > cap:
        raise ResourceCapError(
            f"{name}: requested size {value} exceeds cap {cap} "
            f"(raise it with --cap or cap=)"
        )
    return cap
