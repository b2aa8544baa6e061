"""Workload definitions: which models each workload verifies, at which cutoff.

Every workload is a short list of model inputs.  Variant 0 is the input the
workload is named after; variants 1..7 are neighbours of the same shape and
cost (a permuted presentation, a bound or cutoff moved by a hair), so a claim
can be rechecked on a held-out seed.  Seed 0 selects variant 0; any other seed
draws one of the neighbours.

Each variant also has a smoke scale, the same models at tiny cutoffs.  The
benchmark warms up on the smoke scale before it measures the full one.

This module does not import skewgrowth at load time: the worker times that
import as part of set-up.
"""
from __future__ import annotations

import hashlib
import random
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path

WORKLOADS = ("words", "dense-poset", "zpos", "mp-rational")

VARIANTS = 8
ZPOS_SHIFTS = (-4, -3, -2, -1, 1, 2, 3)     # added to the zpos bound
MP_SHIFTS = (-4, -3, -2, -1, 1, 2, 3)       # sixteenths added to the mp cutoff
MP_P = (4, 8, 16)


@dataclass(frozen=True)
class ModelInput:
    """One `skewgrowth verify` input: a preset, or a presentation file.

    ``oracle`` names the closed form the benchmark checks the series against:
    ``mobius`` (zpos), ``free2`` or ``braid3``; every model is also checked
    for P*N == 1 by a naive convolution.
    """

    preset: str | None
    stem: str | None          # file name stem (the CLI's model name)
    text: str | None          # presentation file contents
    max_degree: str | None    # None: the model's default cutoff
    oracle: str | None = None

    @property
    def key(self) -> str:
        """Identity of the input, used to look up its reference verdict."""
        if self.preset is not None:
            source = f"preset:{self.preset}"
        else:
            source = f"file:{self.stem}:{_digest(self.text)}"
        return f"{source}@{self.max_degree}"

    def path(self, workdir: Path) -> Path:
        return Path(workdir) / _digest(self.text) / f"{self.stem}.txt"

    def write(self, workdir: Path) -> None:
        if self.text is not None:
            target = self.path(workdir)
            target.parent.mkdir(parents=True, exist_ok=True)
            target.write_text(self.text, encoding="utf-8")

    def argv(self, workdir: Path) -> list[str]:
        """`skewgrowth verify` arguments for this input, JSON output."""
        if self.preset is not None:
            source = ["--preset", self.preset]
        else:
            source = ["--file", str(self.path(workdir))]
        cutoff = [] if self.max_degree is None else ["--max-degree", self.max_degree]
        return ["verify", *source, *cutoff, "--format", "json"]

    def to_json(self) -> dict:
        return asdict(self)


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]


def variant_for_seed(seed: int) -> int:
    if seed == 0:
        return 0
    return 1 + random.Random(seed).randrange(VARIANTS - 1)


def model_inputs(workload: str, variant: int, smoke: bool) -> list[ModelInput]:
    """The models one verify sample of *workload* runs, in order."""
    if not 0 <= variant < VARIANTS:
        raise ValueError(f"variant must be 0..{VARIANTS - 1}, got {variant}")
    rng = random.Random(f"{workload}:{variant}")
    if workload == "words":
        return [
            _presented("example3", "example3", 6 if smoke else 20, variant, rng),
            _presented("mp-twin", None, 8 if smoke else 22, variant, rng),
        ]
    if workload == "dense-poset":
        return [
            _presented("free:2", "free2", 5 if smoke else 12, variant, rng),
            _presented("braid3", "braid3", 6 if smoke else 13, variant, rng),
        ]
    if workload == "zpos":
        bound = (60 if smoke else 1500) + _shift(ZPOS_SHIFTS, variant)
        return [ModelInput(f"zpos:{bound}", None, None, None, "mobius")]
    if workload == "mp-rational":
        cutoff = (8 if smoke else 40) + Fraction(_shift(MP_SHIFTS, variant), 16)
        preset = "mp:p=" + ",".join(map(str, MP_P))
        return [ModelInput(preset, None, None, _render(cutoff))]
    raise KeyError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def _shift(shifts, variant: int) -> int:
    return 0 if variant == 0 else shifts[variant - 1]


def _render(value: Fraction) -> str:
    return str(value.numerator) if value.denominator == 1 else str(value)


def _presented(preset: str, oracle: str | None, cutoff: int, variant: int,
               rng: random.Random) -> ModelInput:
    """Variant 0 of a builtin is the preset itself (the mp twin has no preset
    and is always a file); a neighbour is the same monoid as a file whose
    generators and relations are declared in a shuffled order, with relation
    sides swapped at random.  That changes the shortlex order and every label,
    not the work."""
    from skewgrowth import MpSpec, Presentation, Relation, builtin, family_presentation
    from skewgrowth.presentation import render_presentation

    if preset == "mp-twin":
        presentation, stem = family_presentation(MpSpec(MP_P)), "mp-twin"
    else:
        name, _, count = preset.partition(":")
        params = {"count": int(count)} if count else {}
        presentation, stem = builtin(name, **params).presentation, name + count
        if variant == 0:
            return ModelInput(preset, None, None, str(cutoff), oracle)
    if variant:
        generators = list(presentation.generators)
        relations = [Relation(r.rhs, r.lhs) if rng.random() < 0.5 else r
                     for r in presentation.relations]
        rng.shuffle(generators)
        rng.shuffle(relations)
        presentation = Presentation(tuple(generators), tuple(relations))
    return ModelInput(None, stem, render_presentation(presentation), str(cutoff), oracle)
