"""polyinj: exact-arithmetic laboratory for polynomial injections on Q."""

__version__ = "0.1.0"

from .collide import (
    CollisionReport,
    SearchSpace,
    enumerate_inputs,
    find_collisions,
    naive_collisions,
)
from .ffield import (
    FpRatFun,
    ff_collision_search,
    ff_eval_injection,
    is_pth_power,
    verify_injection,
)
from .localfields import PadicApprox, RealPoint, padic_collision, real_collision
from .parser import ParseError, lower, parse, parse_poly
from .pipeline import (
    ConstructionTrace,
    build_injection,
    choose_prime,
    make_G,
    make_f,
    twist,
)
from .poly import BinaryForm, MultiPoly
from .rationals import (
    FINGERPRINT_PRIMES,
    Rational,
    fingerprint,
    height,
    pth_root,
    rat_from_str,
    rat_to_str,
)
from .surface import PointSet, ProjPoint, classify, is_trivial_point, scan_surface

__all__ = [
    "BinaryForm",
    "CollisionReport",
    "ConstructionTrace",
    "FINGERPRINT_PRIMES",
    "FpRatFun",
    "MultiPoly",
    "PadicApprox",
    "ParseError",
    "PointSet",
    "ProjPoint",
    "RealPoint",
    "Rational",
    "SearchSpace",
    "build_injection",
    "choose_prime",
    "classify",
    "enumerate_inputs",
    "ff_collision_search",
    "ff_eval_injection",
    "find_collisions",
    "fingerprint",
    "height",
    "is_pth_power",
    "is_trivial_point",
    "lower",
    "make_G",
    "make_f",
    "naive_collisions",
    "padic_collision",
    "parse",
    "parse_poly",
    "pth_root",
    "rat_from_str",
    "rat_to_str",
    "real_collision",
    "scan_surface",
    "twist",
    "verify_injection",
]
