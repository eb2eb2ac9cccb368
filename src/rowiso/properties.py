"""The names of the pair properties :func:`rowiso.search.search` sweeps for.

Kept apart from :mod:`rowiso.search`, which keys its predicates by
them, so that the command line lists its ``--property`` choices
without loading the search.
"""

PROPERTIES = ("no-slocinski", "doubly-commuting", "S-shift-T-unitary")
