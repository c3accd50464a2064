"""Deterministic bit stream generators for the CLI and the test battery."""

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .bits import validate_bits
from .errors import SpecParseError


@dataclass(frozen=True)
class SourceSpec:
    kind: str  # prng | bernoulli | champernowne | file | literal
    seed: Optional[int] = None
    p: Optional[Fraction] = None
    path: Optional[str] = None
    bits: Optional[str] = None


def champernowne_bits(length: int) -> str:
    """Concatenated binary numerals 1, 10, 11, 100, ... truncated to length."""
    out = []
    total = 0
    k = 1
    while total < length:
        chunk = format(k, "b")
        out.append(chunk)
        total += len(chunk)
        k += 1
    return "".join(out)[:length]


def generate_bits(spec: SourceSpec, length: int) -> str:
    """Bit-exact deterministic stream for a source spec."""
    if spec.kind == "literal":
        s = validate_bits(spec.bits or "")
        if len(s) < length:
            raise SpecParseError(f"literal source has {len(s)} bits, {length} requested")
        return s[:length]
    if spec.kind == "file":
        with open(spec.path, errors="replace") as fh:  # an undecodable byte fails validate_bits
            s = "".join(fh.read().split())
        validate_bits(s)
        if len(s) < length:
            raise SpecParseError(f"file source has {len(s)} bits, {length} requested")
        return s[:length]
    if spec.kind == "champernowne":
        return champernowne_bits(length)
    if spec.kind == "prng":
        rng = random.Random(spec.seed)
        return "".join("1" if rng.random() < 0.5 else "0" for _ in range(length))
    if spec.kind == "bernoulli":
        rng = random.Random(spec.seed)
        p = float(spec.p)
        return "".join("1" if rng.random() < p else "0" for _ in range(length))
    raise SpecParseError(f"unknown source kind {spec.kind!r}")
