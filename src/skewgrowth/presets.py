"""Built-in models and the ``name:params`` preset strings the CLI accepts.

Builtins:

    free      free monoid; params: count (required), degrees (optional)
    example3  <a, b | a^2 = b^2, ab = ba>
    braid3    <a, b | aba = bab>
    zpos      positive integers under multiplication; params: nmax (required)
    mp        the normal-form family; params: p=.. (list or "pow2") and K
"""
from __future__ import annotations

import string
from fractions import Fraction

from .dirichlet import KeyKind, exact_rational, parse_key
from .errors import InvalidParamsError, MalformedKeyError, UnknownBuiltinError
from .models import MultIntegerModel, RewriteModel, _integer
from .mp_family import MpModel, MpSpec
from .presentation import Generator, Presentation, parse_presentation

_FREE_NAMES = string.ascii_lowercase


def _free(params: dict):
    try:
        count = _integer("free count", params.pop("count"))
    except KeyError:
        raise InvalidParamsError("free requires count") from None
    if count < 1 or count > len(_FREE_NAMES):
        raise InvalidParamsError(f"free count must be 1..{len(_FREE_NAMES)}, got {count}")
    degrees = params.pop("degrees", None)
    if degrees is None:
        degrees = [Fraction(1)] * count
    else:
        if not isinstance(degrees, (list, tuple)):
            degrees = [degrees]  # 'degrees=2' parses to a scalar
        degrees = [exact_rational(d, "free degrees", InvalidParamsError) for d in degrees]
        if len(degrees) != count:
            raise InvalidParamsError("free degrees must match count")
    generators = tuple(
        Generator(_FREE_NAMES[i], degrees[i]) for i in range(count)
    )
    presentation = Presentation(generators, ())
    return RewriteModel(presentation, name=f"free:{count}")


_EXAMPLE3 = """
gen a : 1
gen b : 1
rel a a = b b
rel a b = b a
"""

_BRAID3 = """
gen a : 1
gen b : 1
rel a b a = b a b
"""


def _example3(params: dict):
    return RewriteModel(parse_presentation(_EXAMPLE3), name="example3")


def _braid3(params: dict):
    return RewriteModel(parse_presentation(_BRAID3), name="braid3")


def _zpos(params: dict):
    try:
        nmax = params.pop("nmax")
    except KeyError:
        raise InvalidParamsError("zpos requires nmax") from None
    return MultIntegerModel(nmax)


def _mp(params: dict):
    p = params.pop("p", None)
    depth = params.pop("K", None)
    if p is None:
        raise InvalidParamsError("mp requires p (a list, or the string 'pow2')")
    if p == "pow2":
        if depth is None:
            raise InvalidParamsError("mp with p=pow2 requires K")
        p = [2 ** (k + 2) for k in range(_integer("mp K", depth))]
    else:
        if not isinstance(p, (list, tuple)):
            p = [p]  # 'p=4' parses to a scalar
        if depth is not None and _integer("mp K", depth) != len(p):
            raise InvalidParamsError(f"mp got K={depth} but p has {len(p)} entries")
    return MpModel(MpSpec(tuple(p)))


_BUILTINS = {
    "free": _free,
    "example3": _example3,
    "braid3": _braid3,
    "zpos": _zpos,
    "mp": _mp,
}


def builtin(name: str, **params):
    """Construct a builtin model by name; unused params are rejected."""
    try:
        factory = _BUILTINS[name]
    except KeyError:
        known = ", ".join(sorted(_BUILTINS))
        raise UnknownBuiltinError(f"unknown builtin {name!r}; known: {known}") from None
    params = dict(params)
    model = factory(params)
    if params:
        raise InvalidParamsError(
            f"unexpected params for {name}: {', '.join(sorted(params))}"
        )
    return model


def parse_preset(text: str):
    """Parse a preset string like ``free:2``, ``zpos:50``,
    ``mp:p=4,8,16:K=3`` or ``mp:p=pow2:K=3`` into a model."""
    parts = text.split(":")
    name = parts[0].strip()
    params: dict = {}
    positional = []
    for raw in parts[1:]:
        raw = raw.strip()
        if not raw:
            continue
        if "=" in raw:
            key, value = raw.split("=", 1)
            params[key.strip()] = _parse_value(value.strip())
        else:
            positional.append(_parse_value(raw))
    if positional:
        slot = {"free": "count", "zpos": "nmax"}.get(name)
        if slot is None:
            raise InvalidParamsError(
                f"preset {text!r}: positional params are only 'free:N' and 'zpos:N'"
            )
        if len(positional) > 1 or slot in params:
            raise InvalidParamsError(f"preset {text!r}: {slot} is given twice")
        params[slot] = positional[0]
    return builtin(name, **params)


def _parse_value(raw: str):
    if raw == "pow2":
        return raw
    if "," in raw:
        return [_parse_scalar(part) for part in raw.split(",") if part.strip()]
    return _parse_scalar(raw)


def _parse_scalar(raw: str):
    try:
        return parse_key(KeyKind.RATIONAL, raw)
    except MalformedKeyError as exc:
        raise InvalidParamsError(f"preset value: {exc}") from None
