"""Deterministic and seeded generators for structured sets.

Recipe literals (CLI): ``qr:p=13``, ``subgroup:p=13,t=3``,
``random:N=256,delta=0.1,seed=7``, ``interval:n=16``,
``interval:n=16,N=64``, ``ap:base=0,gens=3;5,lens=4;2``, ``convex:n=8``,
``sidon:n=8``.

All randomness comes from Python's Mersenne Twister seeded with the
recipe's ``seed``; identical recipe + seed always yields the same set.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

import numpy as np

from . import groups
from .groups import GroupSpec, InvariantError
from .gset import GSet


class RecipeError(ValueError):
    pass


@dataclass(frozen=True)
class SetRecipe:
    kind: str
    params: tuple[tuple[str, object], ...]
    seed: int = 0

    def param(self, name: str, default=None):
        for k, v in self.params:
            if k == name:
                return v
        return default


def recipe(kind: str, seed: int = 0, **params) -> SetRecipe:
    return SetRecipe(kind, tuple(sorted(params.items())), seed)


def parse_recipe(text: str) -> SetRecipe:
    head, _, rest = text.strip().partition(":")
    params = {}
    seed = 0
    if rest:
        for item in rest.split(","):
            if not item:
                continue
            key, _, val = item.partition("=")
            key = key.strip()
            val = val.strip()
            if key == "seed":
                seed = int(val)
            elif key == "delta":
                params[key] = float(val)
            elif ";" in val:
                params[key] = tuple(int(x) for x in val.split(";"))
            else:
                try:
                    params[key] = int(val)
                except ValueError:
                    params[key] = val
    return recipe(head, seed=seed, **params)


# ---------------------------------------------------------------------------
# number-theoretic helpers


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in range(2, int(math.isqrt(n)) + 1):
        if n % p == 0:
            return False
    return True


def _prime_factors(n: int) -> list[int]:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def primitive_root(p: int) -> int:
    """Smallest primitive root mod a prime p."""
    if not is_prime(p):
        raise RecipeError(f"{p} is not prime")
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for g in range(2, p):
        if all(pow(g, (p - 1) // q, p) != 1 for q in factors):
            return g
    raise InvariantError("no primitive root found")  # unreachable for prime p


def mult_subgroup(p: int, t: int) -> GSet:
    """The multiplicative subgroup of Z/p^* of order t (t must divide p-1)."""
    if not is_prime(p):
        raise RecipeError(f"{p} is not prime")
    if t < 1 or (p - 1) % t != 0:
        raise RecipeError(f"order {t} does not divide p - 1 = {p - 1}")
    h = pow(primitive_root(p), (p - 1) // t, p)
    return GSet(groups.cyclic(p), [pow(h, l, p) for l in range(t)])


def quadratic_residues(p: int) -> GSet:
    if not is_prime(p) or p == 2:
        raise RecipeError(f"{p} is not an odd prime")
    return GSet(groups.cyclic(p), [pow(x, 2, p) for x in range(1, p)])


def multiplicative_order_elements(gamma: GSet) -> tuple[int, int]:
    """Validate that gamma is a multiplicative subgroup of Z/p^*; return (p, t).
    Z/p^* is cyclic: its order-t subgroup is {x : x^t = 1}, for each t | p - 1."""
    g = gamma.group
    if not (g.is_cyclic and len(g.moduli) == 1):
        raise ValueError("multiplicative subgroups live in a single Z/p")
    p = g.moduli[0]
    if not is_prime(p):
        raise ValueError(f"{p} is not prime")
    vals = gamma.coords[:, 0]
    if 0 in vals or 1 not in vals:
        raise ValueError("subgroup must contain 1 and avoid 0")
    if p >= 1 << 31:   # keeps every product of two residues inside int64
        raise ValueError(f"multiplicative subgroups need p < 2^31, got {p}")
    t = len(vals)
    if (p - 1) % t or any(pow(x, t, p) != 1 for x in vals.tolist()):
        raise ValueError("set is not multiplicatively closed")
    return p, t


def subgroup_cosets(gamma: GSet) -> np.ndarray:
    """The cosets g^j Gamma, j < (p - 1)/t, of the order-t subgroup Gamma of Z/p^*
    (g a primitive root) as the rows of one read-only int64 matrix, each row
    sorted, rows ordered by their smallest member; kept on Gamma."""
    return gamma.kept("cosets", lambda: _cosets(gamma))


def _cosets(gamma: GSet) -> np.ndarray:
    p, t = multiplicative_order_elements(gamma)
    root = primitive_root(p)
    steps = np.array([pow(root, j, p) for j in range((p - 1) // t)], dtype=np.int64)
    rows = np.sort(np.multiply.outer(steps, gamma.coords[:, 0]) % p, axis=1)
    rows = rows[np.argsort(rows[:, 0])]
    rows.flags.writeable = False
    return rows


def invariant_union(gamma: GSet, coset_index: tuple[int, ...]) -> GSet:
    """Union of chosen cosets: a Gamma-invariant subset of Z/p^*."""
    rows = subgroup_cosets(gamma)
    return GSet(gamma.group, rows[np.asarray(coset_index, dtype=np.int64) % len(rows)].ravel())


# ---------------------------------------------------------------------------
# generators


def gen(r: SetRecipe) -> GSet:
    builder = _BUILDERS.get(r.kind)
    if builder is None:
        raise RecipeError(f"unknown recipe kind {r.kind!r}")
    return builder(r)


def _ambient(r: SetRecipe) -> GroupSpec:
    n = r.param("N")
    return groups.lattice(1) if n is None else groups.cyclic(int(n))


def _gen_interval(r: SetRecipe) -> GSet:
    n = int(r.param("n", 8))
    start = int(r.param("start", 0))
    return GSet(_ambient(r), range(start, start + n))


def _gen_ap(r: SetRecipe) -> GSet:
    """Generalized arithmetic progression base + sum x_i * gens_i, 0 <= x_i < lens_i."""
    base = int(r.param("base", 0))
    gens = r.param("gens", (1,))
    lens = r.param("lens", (int(r.param("n", 8)),))
    gens, lens = ((v,) if isinstance(v, int) else v for v in (gens, lens))
    if len(gens) != len(lens):
        raise RecipeError("gens and lens must have matching length")
    return GSet(_ambient(r), [base + sum(x * d for x, d in zip(xs, gens))
                              for xs in itertools.product(*(range(l) for l in lens))])


def _gen_random_density(r: SetRecipe) -> GSet:
    n = int(r.param("N", 64))
    delta = float(r.param("delta", 0.25))
    rng = random.Random(r.seed)
    elems = [x for x in range(n) if rng.random() < delta]
    return GSet(groups.cyclic(n), elems or [0])   # generated sets are nonempty


def _gen_subgroup(r: SetRecipe) -> GSet:
    return mult_subgroup(int(r.param("p")), int(r.param("t")))


def _gen_qr(r: SetRecipe) -> GSet:
    return quadratic_residues(int(r.param("p")))


def _gen_convex(r: SetRecipe) -> GSet:
    """Strictly convex integer set: consecutive gaps strictly increase."""
    n = int(r.param("n", 8))
    jitter = int(r.param("jitter", 0))
    rng = random.Random(r.seed)
    pts = [0]
    gap = 1
    for _ in range(n - 1):
        pts.append(pts[-1] + gap)
        gap += 1 + (rng.randrange(jitter + 1) if jitter else 0)
    return GSet(groups.lattice(1), pts)


def _gen_sidon(r: SetRecipe) -> GSet:
    """Greedy Sidon set: extend by the smallest integer keeping all pairwise
    differences distinct."""
    n = int(r.param("n", 8))
    pts = [0]
    diffs = set()
    while len(pts) < n:
        c = pts[-1] + 1
        while True:
            new = {c - x for x in pts}
            if len(new) == len(pts) and not (new & diffs):
                break
            c += 1
        diffs |= {c - x for x in pts} | {x - c for x in pts}
        pts.append(c)
    return GSet(groups.lattice(1), pts)


_BUILDERS = {
    "interval": _gen_interval,
    "ap": _gen_ap,
    "random": _gen_random_density,
    "subgroup": _gen_subgroup,
    "qr": _gen_qr,
    "convex": _gen_convex,
    "sidon": _gen_sidon,
}

