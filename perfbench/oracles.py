"""Series oracles that share no code with skewgrowth.

Series arrive as plain ``{key: coefficient}`` dicts with the cutoff and a flag
for multiplicative keys (key n stands for t^(log n), so keys multiply).
"""
from __future__ import annotations

from fractions import Fraction


def mobius_upto(n: int) -> list[int]:
    """mu[k] for 0 <= k <= n (mu[0] unused), by a sieve over primes."""
    mu = [1] * (n + 1)
    composite = [False] * (n + 1)
    for p in range(2, n + 1):
        if composite[p]:
            continue
        for m in range(p, n + 1, p):
            if m > p:
                composite[m] = True
            mu[m] = -mu[m]
        for m in range(p * p, n + 1, p * p):
            mu[m] = 0
    return mu


def naive_product(f: dict, g: dict, cutoff, multiplicative: bool) -> dict:
    """Every pair of terms, combined and truncated at *cutoff*."""
    out: dict = {}
    for ka, ca in f.items():
        for kb, cb in g.items():
            key = ka * kb if multiplicative else ka + kb
            if key <= cutoff:
                out[key] = out.get(key, 0) + ca * cb
    return {k: c for k, c in out.items() if c}


def series_problems(growth: dict, skew: dict, cutoff, multiplicative: bool,
                    oracle: str | None) -> list[str]:
    """What is wrong with the program's P (*growth*) and N (*skew*); empty
    when both match every oracle that applies."""
    problems = []
    one = {1 if multiplicative else Fraction(0): 1}
    if naive_product(growth, skew, cutoff, multiplicative) != one:
        problems.append("naive convolution: P*N != 1")
    if oracle == "mobius":
        mu = mobius_upto(cutoff)
        if growth != {k: 1 for k in range(1, cutoff + 1)}:
            problems.append("zpos: P is not all ones")
        if skew != {k: mu[k] for k in range(1, cutoff + 1) if mu[k]}:
            problems.append("zpos: N is not the Moebius function")
    elif oracle == "free2":
        if skew != {Fraction(0): 1, Fraction(1): -2}:
            problems.append("free:2: N != 1 - 2t")
    elif oracle == "braid3":
        if skew != {Fraction(0): 1, Fraction(1): -2, Fraction(3): 1}:
            problems.append("braid3: N != 1 - 2t + t^3")
    return problems
