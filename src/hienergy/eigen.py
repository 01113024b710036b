"""Spectral machinery: the pattern Gram |(B-y) n (B-y')|^k on A x A, its
eigenvalues (LAPACK `eigvalsh`, certified against the Gram's exact integer
diagonal and Frobenius norm), lower bounds for magnification ratios, and the
restricted operator whose eigenfunctions on a multiplicative subgroup are
the multiplicative characters.  On a subgroup Gamma that operator's matrix
is the pattern Gram of (Gamma, B, k), built in integers: no float transform
runs here."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import groups, moments
from .genset import multiplicative_order_elements, primitive_root
from .groups import InvariantError
from .gset import GSet
from .setops import CapExceededError

INVARIANT_RTOL = 1e-8
EIG_SLACK = 1e-9
RESIDUAL_TOL = 1e-8
GRAM_CAP = 512   # |A| bound of build_gram's pattern Gram


# ---------------------------------------------------------------------------
# pattern Gram


@dataclass
class PatternGram:
    """The Gram of (A, B, k)."""
    k: int
    b_size: int
    gram: np.ndarray  # |A| x |A| symmetric nonnegative integers
    frobenius_sq: int  # E_(2k+1)(A, B), the exact squared Frobenius norm of gram


def build_gram(a: GSet, b: GSet, k: int) -> PatternGram:
    """Gram(y, y') = |(B-y) n (B-y')|^k = (B o B)(y'-y)^k on A x A, built on
    every call from the kept B o B, its array read-only.

    Refuses |A| above GRAM_CAP, and validates every diagonal entry = |B|^k
    and squared Frobenius norm = E_{2k+1}(A, B) at construction.
    """
    if a.group != b.group:
        raise groups.GroupError("pattern Gram needs sets in one group")
    k = groups.integral_order(k, 1, "a pattern Gram")
    if not a or not b:
        raise ValueError("pattern Gram needs nonempty sets")
    if len(a) > GRAM_CAP:
        raise CapExceededError(f"|A| = {len(a)} exceeds Gram cap {GRAM_CAP}")
    return _gram(a, b, k)


def _gram(a: GSet, b: GSet, k: int) -> PatternGram:
    n, top = len(a), len(b) ** k
    if top >= 1 << 63:   # |B|^k is the largest entry, on the diagonal
        raise OverflowError(f"Gram entries |B|^k = {top} exceed int64")
    diffs = (a.coords[None, :] - a.coords[:, None]).reshape(n * n, -1)   # row i n + j: y_j - y_i
    gram = moments.correlate(b, b).values_at(diffs).reshape(n, n) ** k
    gram.flags.writeable = False
    if (np.diagonal(gram) != top).any():   # so the trace is |A||B|^k
        raise InvariantError(f"Gram diagonal values {np.unique(np.diagonal(gram)).tolist()} != |B|^k = {top}")
    frob = moments._square_sum(gram.reshape(1, -1), top)
    expected = moments.energy_k_pair(a, b, 2 * k + 1)
    if frob != expected:
        raise InvariantError(f"Gram Frobenius^2 {frob} != E_(2k+1)(A,B) = {expected}")
    return PatternGram(k=k, b_size=len(b), gram=gram, frobenius_sq=expected)


def singular_spectrum(pg: PatternGram) -> np.ndarray:
    """Descending eigenvalues lambda_j^2 of the Gram; invariants re-checked.
    The all-ones Rayleigh quotient floors lambda_1^2: the sum of the entries
    is E_(k+1)(A, B) = sum_x (A o A)(x) (B o B)(x)^k."""
    gram = pg.gram.astype(np.float64)
    lam2 = np.clip(np.linalg.eigvalsh(gram)[::-1], 0.0, None)
    n = len(gram)
    trace = float(n * pg.b_size ** pg.k)
    if not math.isclose(float(lam2.sum()), trace, rel_tol=INVARIANT_RTOL):
        raise InvariantError("sum of lambda^2 drifted from |A||B|^k")
    if not math.isclose(float((lam2 ** 2).sum()), float(pg.frobenius_sq), rel_tol=INVARIANT_RTOL):
        raise InvariantError("sum of lambda^4 drifted from E_(2k+1)(A,B)")
    floor = float(gram.sum()) / n
    if lam2[0] < floor * (1 - EIG_SLACK) - EIG_SLACK:
        raise InvariantError(f"lambda_1^2 = {lam2[0]} below E_(k+1)(A,B)/|A| = {floor}")
    return lam2


def magnification_lower_bounds(a: GSet, b: GSet, k: int) -> dict[str, float]:
    """|B|^2k / lambda_1^2 and |B|^2k / sqrt(E_(2k+1)(A,B)); the first
    dominates the second."""
    pg = build_gram(a, b, k)
    lam2 = singular_spectrum(pg)
    bk = float(len(b)) ** (2 * k)
    bound_eig = bk / float(lam2[0])
    bound_energy = bk / math.sqrt(float(pg.frobenius_sq))
    if bound_eig < bound_energy * (1 - EIG_SLACK):
        raise InvariantError(f"eigenvalue bound {bound_eig} below energy bound {bound_energy}")
    return {"bound_eig": bound_eig, "bound_energy": bound_energy}


# ---------------------------------------------------------------------------
# multiplicative subgroups


@dataclass
class SubgroupEigenReport:
    p: int
    t: int
    k: int
    eigenvalues: list[float]
    residuals: list[float]
    max_at_trivial: bool
    measured_max: float
    claimed_max: float
    claimed_ratio: float
    connected_ok: bool


def subgroup_characters(p: int, t: int, h: int) -> np.ndarray:
    """t x t matrix of the multiplicative characters chi_alpha(h^l) = e(alpha l / t)
    of the order-t subgroup <h> of Z/p^*, its columns in the order of the
    subgroup's sorted elements."""
    steps = np.arange(t)
    # the phase 2 pi alpha l / t, rounded step by step in that order
    phases = np.exp(1j * ((2 * np.pi * steps)[:, None] * steps / t))
    return phases[:, np.argsort([pow(h, l, p) for l in range(t)])]


def subgroup_eigencheck(gamma: GSet, k: int = 1, base_set: GSet | None = None) -> SubgroupEigenReport:
    """Verify that the multiplicative characters are eigenfunctions of the
    operator restricted to Gamma, that the trivial one carries the top
    eigenvalue, and the connected quadratic-form inequality.

    The kernel is built on the integer table B o B, B = base_set or Gamma,
    and must be invariant under the generator h of Gamma.  The restricted
    matrix is the exact pattern Gram (B o B)(y' - y)^k on Gamma, and the top
    eigenvalue is compared against E_(k+1)(Gamma, B)/|Gamma|.  The connected
    forms u^T G u, G the Gram of (Gamma, Gamma, 1), are decided in integers:
    G is positive semidefinite with 1_Gamma as an eigenvector, so
    t^2 u^T G u >= (sum u)^2 sum G.
    """
    k = groups.integral_order(k, 1, "a pattern Gram")
    p, t = multiplicative_order_elements(gamma)
    h = pow(primitive_root(p), (p - 1) // t, p)
    b = gamma if base_set is None else base_set
    if b.group != gamma.group:
        raise groups.GroupError("the base set lives in another group")
    table = moments.correlate(b, b).array
    if not np.array_equal(table[h * np.arange(p) % p], table):
        raise ValueError("the kernel is not Gamma-invariant")
    pg = _gram(gamma, b, k)   # not under GRAM_CAP: the character loop is dense in t anyway
    mat = pg.gram.astype(np.complex128)
    claimed = float(moments.energy_k_pair(gamma, b, k + 1)) / t

    eigenvalues: list[float] = []
    residuals: list[float] = []
    for chi in subgroup_characters(p, t, h):
        w = mat @ chi
        mu = complex(np.vdot(chi, w)) / t
        residuals.append(float(np.linalg.norm(w - mu * chi) / (1.0 + np.linalg.norm(w))))
        eigenvalues.append(float(mu.real))
    if max(residuals) >= RESIDUAL_TOL:
        raise InvariantError(f"character eigenfunction residual too large: {max(residuals)}")
    measured_max = max(eigenvalues)
    max_at_trivial = eigenvalues[0] >= measured_max - 1e-8 * max(1.0, abs(measured_max))

    # against Gamma itself at k = 1, mat's own Gram is the Gram of (Gamma, Gamma, 1)
    gram = (pg if b == gamma and k == 1 else _gram(gamma, gamma, 1)).gram
    total = int(gram.sum())
    rng = np.random.default_rng(7)
    draws = np.array([rng.integers(-3, 4, size=t) for _ in range(8)])
    forms = moments._exact_product(draws, gram, 9 * t ** 3) * draws   # |u| <= 3, G <= t: sums <= 9 t^3
    connected_ok = all(t * t * int(f.sum()) >= int(u.sum()) ** 2 * total for f, u in zip(forms, draws))
    return SubgroupEigenReport(
        p=p, t=t, k=k, eigenvalues=eigenvalues, residuals=residuals,
        max_at_trivial=bool(max_at_trivial), measured_max=float(measured_max),
        claimed_max=claimed, claimed_ratio=float(measured_max) / claimed,
        connected_ok=connected_ok)
