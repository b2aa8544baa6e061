"""Growth and skew-growth series of cancellative monoids.

The package enumerates a monoid up to a degree cutoff, computes its growth
series P (element counts) and the tower-based skew-growth series N as exact
truncated series, and verifies the inversion P * N == 1.
"""

from .checks import (
    CheckReport,
    check_cancellative,
    check_inversion,
    check_lcm_reduction,
    check_recursion,
    run_all_checks,
)
from .dirichlet import (
    KeyKind,
    Series,
    growth_series,
    series_from_json,
    series_invert,
    series_mul,
    series_one,
    series_to_json,
)
from .divisibility import DivPoset
from .errors import SkewGrowthError
from .models import ElementTable, MultIntegerModel, RewriteModel
from .mp_family import MpModel, MpSpec, family_presentation
from .presentation import Generator, Presentation, Relation, parse_presentation
from .presets import builtin, parse_preset
from .towers import (
    Tower,
    TowerForest,
    enumerate_towers,
    forest_to_dot,
    forest_to_json,
    skew_growth,
)

__version__ = "0.1.0"

__all__ = [
    "CheckReport",
    "DivPoset",
    "ElementTable",
    "Generator",
    "KeyKind",
    "MpModel",
    "MpSpec",
    "MultIntegerModel",
    "Presentation",
    "Relation",
    "RewriteModel",
    "Series",
    "SkewGrowthError",
    "Tower",
    "TowerForest",
    "builtin",
    "check_cancellative",
    "check_inversion",
    "check_lcm_reduction",
    "check_recursion",
    "enumerate_towers",
    "family_presentation",
    "forest_to_dot",
    "forest_to_json",
    "growth_series",
    "parse_presentation",
    "parse_preset",
    "run_all_checks",
    "series_from_json",
    "series_invert",
    "series_mul",
    "series_one",
    "series_to_json",
    "skew_growth",
]
