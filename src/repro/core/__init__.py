"""The modern filter API the tutorial advocates.

This package is the paper's "primary contribution" rendered as code: a
unified interface hierarchy covering the whole §2 taxonomy (static /
semi-dynamic / dynamic, counting, adaptive, expandable, maplets, range
filters), closed-form space/FPR analysis, and a factory + feature matrix.
"""

from repro.core.analysis import (
    bloom_bits_per_key,
    cuckoo_bits_per_key,
    information_lower_bound_bits_per_key,
    quotient_bits_per_key,
    ribbon_bits_per_key,
    xor_bits_per_key,
    xor_plus_bits_per_key,
)
from repro.core.errors import (
    ChecksumError,
    FilterError,
    FilterFullError,
    ImmutableFilterError,
    NotExpandableError,
)
from repro.core.interfaces import (
    AdaptiveFilter,
    CountingFilter,
    DynamicFilter,
    ExpandableFilter,
    Filter,
    Maplet,
    RangeFilter,
    StaticFilter,
)
from repro.core.bloofi import BloofiLookup, BloofiTree
from repro.core.registry import FEATURE_MATRIX, available_filters, make_filter

__all__ = [
    "AdaptiveFilter",
    "BloofiLookup",
    "BloofiTree",
    "ChecksumError",
    "CountingFilter",
    "DynamicFilter",
    "ExpandableFilter",
    "FEATURE_MATRIX",
    "Filter",
    "FilterError",
    "FilterFullError",
    "ImmutableFilterError",
    "Maplet",
    "NotExpandableError",
    "RangeFilter",
    "StaticFilter",
    "available_filters",
    "bloom_bits_per_key",
    "cuckoo_bits_per_key",
    "information_lower_bound_bits_per_key",
    "make_filter",
    "quotient_bits_per_key",
    "ribbon_bits_per_key",
    "xor_bits_per_key",
    "xor_plus_bits_per_key",
]
