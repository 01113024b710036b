"""Spectral machinery: the pattern Gram |(B-y) n (B-y')|^k on A x A, its
eigenvalues (LAPACK `eigvalsh`, certified against the Gram's exact integer
trace and Frobenius norm), lower bounds for magnification ratios, and the
convolution operator whose eigenfunctions on a multiplicative subgroup are
the multiplicative characters."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import groups, moments
from .genset import is_prime
from .groups import GroupSpec, InvariantError
from .gset import GSet
from .setops import CapExceededError, Caps, DEFAULT_CAPS

INVARIANT_RTOL = 1e-8
EIG_SLACK = 1e-9


# ---------------------------------------------------------------------------
# pattern Gram


@dataclass
class PatternGram:
    """The Gram of (A, B, k), holding no set, so that keeping it on A makes no cycle."""
    k: int
    b_size: int
    gram: np.ndarray  # |A| x |A| symmetric nonnegative integers
    frobenius_sq: int  # E_(2k+1)(A, B), the exact squared Frobenius norm of gram


def build_gram(a: GSet, b: GSet, k: int, caps: Caps = DEFAULT_CAPS) -> PatternGram:
    """Gram(y, y') = |(B-y) n (B-y')|^k = (B o B)(y'-y)^k on A x A, kept on
    A per (B, k) with its array read-only.

    Validates trace = |A||B|^k and squared Frobenius norm = E_{2k+1}(A, B)
    at construction.
    """
    if a.group != b.group:
        raise groups.GroupError("pattern Gram needs sets in one group")
    if k < 1:
        raise ValueError("pattern depth k must be >= 1")
    if not a or not b:
        raise ValueError("pattern Gram needs nonempty sets")
    if len(a) > caps.gram:
        raise CapExceededError(f"|A| = {len(a)} exceeds Gram cap {caps.gram}")
    if len(b) ** k >= 1 << 63:   # |B|^k is the largest entry, on the diagonal
        raise OverflowError(f"Gram entries |B|^k = {len(b) ** k} exceed int64")
    return a.kept(("gram", a.partner(b), k), lambda: _gram(a, b, k))


def _gram(a: GSet, b: GSet, k: int) -> PatternGram:
    n, top = len(a), len(b) ** k
    diffs = (a.coords[None, :] - a.coords[:, None]).reshape(n * n, -1)   # row i n + j: y_j - y_i
    gram = moments.correlate(b, b).values_at(diffs).reshape(n, n) ** k
    gram.flags.writeable = False
    trace = int(np.trace(gram.astype(object)))
    if trace != n * top:
        raise InvariantError(f"Gram trace {trace} != |A||B|^k = {n * top}")
    flat = gram.ravel()   # n^2 entries of at most |B|^k
    frob = int(flat @ flat) if n * n * top * top < 1 << 63 else sum(int(v) ** 2 for v in flat.tolist())
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


def spectrum_report(pg: PatternGram, lam2: np.ndarray | None = None) -> dict:
    if lam2 is None:
        lam2 = singular_spectrum(pg)
    return {
        "a_size": len(pg.gram),
        "b_size": pg.b_size,
        "k": pg.k,
        "lambdas_sq": [float(v) for v in lam2],
        "trace_check": float(lam2.sum()) ,
        "frobenius_check": float((lam2 ** 2).sum()),
    }


def magnification_lower_bounds(a: GSet, b: GSet, k: int,
                               caps: Caps = DEFAULT_CAPS) -> dict[str, float]:
    """|B|^2k / lambda_1^2 and |B|^2k / sqrt(E_(2k+1)(A,B)); the first
    dominates the second."""
    pg = build_gram(a, b, k, caps)
    lam2 = singular_spectrum(pg)
    bk = float(len(b)) ** (2 * k)
    bound_eig = bk / float(lam2[0])
    bound_energy = bk / math.sqrt(float(pg.frobenius_sq))
    if bound_eig < bound_energy * (1 - EIG_SLACK):
        raise InvariantError(f"eigenvalue bound {bound_eig} below energy bound {bound_energy}")
    return {"bound_eig": bound_eig, "bound_energy": bound_energy}


def union_family_lower_bound(a1: GSet, family_sizes: Sequence[int], a: GSet, b: GSet,
                             k: int) -> float:
    """(sum_y |B^(y)|)^2 / E_(k+1)(A, B), a lower bound for the union of the
    diagonal translates B^(y) +- Delta(y) over y in A1 <= A."""
    if not a1.issubset(a):
        raise ValueError("A1 must be a subset of A")
    if len(family_sizes) != len(a1):
        raise ValueError("need one family size per element of A1")
    total = float(sum(family_sizes))
    denom = float(moments.energy_k_pair(a, b, k + 1))
    return total ** 2 / denom


# ---------------------------------------------------------------------------
# the operator f -> psi . (phi^c^ * f)


def _flat_function(g: GroupSpec, f) -> np.ndarray:
    """Coerce a GSet / ConvTable / array to a dense complex vector."""
    n = g.order
    if isinstance(f, GSet):
        return f.indicator().astype(np.complex128).ravel()
    if isinstance(f, moments.ConvTable):
        return f.array.astype(np.complex128).ravel()
    arr = np.asarray(f, dtype=np.complex128).ravel()
    if arr.size != n:
        raise ValueError(f"dense function must have {n} entries")
    return arr


def _group_fft(g: GroupSpec, flat: np.ndarray) -> np.ndarray:
    return np.fft.fftn(flat.reshape(g.moduli)).ravel()


def _group_ifft(g: GroupSpec, flat: np.ndarray) -> np.ndarray:
    return np.fft.ifftn(flat.reshape(g.moduli)).ravel()


def _reflect_flat(g: GroupSpec, flat: np.ndarray) -> np.ndarray:
    """x -> flat(-x) on the group."""
    return np.roll(np.flip(flat.reshape(g.moduli)), 1, axis=tuple(range(g.dim))).ravel()   # -i mod n


def operator_apply(g: GroupSpec, phi, psi, f) -> np.ndarray:
    """(T^phi_psi f)(x) = psi(x) (phi^c^ * f)(x) as a dense vector."""
    if not g.is_cyclic:
        raise groups.GroupError("operator needs a finite cyclic product")
    phi_v = _flat_function(g, phi)
    psi_v = _flat_function(g, psi)
    f_v = _flat_function(g, f)
    kernel = _group_fft(g, _reflect_flat(g, phi_v))  # phi^c^
    conv = _group_ifft(g, _group_fft(g, kernel) * _group_fft(g, f_v))
    return psi_v * conv


def restricted_matrix(g: GroupSpec, phi, e_set: GSet) -> np.ndarray:
    """Matrix of the operator restricted to functions supported on E."""
    kernel = _group_fft(g, _reflect_flat(g, _flat_function(g, phi)))
    idx = e_set.flat_indices()
    n = g.order
    diff = (idx[:, None] - idx[None, :]) % n
    return kernel[diff]


def bilinear_residual(g: GroupSpec, phi, e_set: GSet, u, v) -> float:
    """Relative residual of <T^phi_E u, v> = sum_x phi(x) u^(x) conj(v^(x))
    for u, v supported on E."""
    u_v = _flat_function(g, u)
    v_v = _flat_function(g, v)
    mask = np.ones(g.order, dtype=bool)
    mask[e_set.flat_indices()] = False
    if np.abs(u_v[mask]).max(initial=0.0) > 0 or np.abs(v_v[mask]).max(initial=0.0) > 0:
        raise ValueError("u and v must be supported on E")
    lhs = complex(np.vdot(v_v, operator_apply(g, phi, e_set, u_v)))
    phi_v = _flat_function(g, phi)
    rhs = complex((phi_v * _group_fft(g, u_v) * np.conj(_group_fft(g, v_v))).sum())
    scale = max(1.0, abs(lhs), abs(rhs))
    return abs(lhs - rhs) / scale


# ---------------------------------------------------------------------------
# multiplicative subgroups


def multiplicative_order_elements(gamma: GSet) -> tuple[int, int]:
    """Validate that gamma is a multiplicative subgroup of Z/p^*; return (p, t)."""
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
    if not np.isin(np.multiply.outer(vals, vals) % p, vals).all():
        raise ValueError("set is not multiplicatively closed")
    return p, len(vals)


@dataclass
class SubgroupEigenReport:
    p: int
    t: int
    k: int
    eigenvalues: list[float]
    residuals: list[float]
    max_at_trivial: bool
    kernel_transform_nonneg: bool
    measured_max: float
    claimed_max: float | None
    claimed_ratio: float | None
    connected_ok: bool
    connected_equality_at_indicator: bool

    def to_json(self) -> str:
        return json.dumps(self.__dict__, indent=2, sort_keys=True)


def subgroup_characters(gamma: GSet) -> np.ndarray:
    """t x N matrix of multiplicative characters chi_alpha supported on Gamma."""
    from .genset import primitive_root  # late import: genset depends on gset only

    p, t = multiplicative_order_elements(gamma)
    g = gamma.group
    root = primitive_root(p)
    h = pow(root, (p - 1) // t, p)
    order = [pow(h, l, p) for l in range(t)]
    if sorted(order) != gamma.coords[:, 0].tolist():
        raise ValueError("set is not the subgroup generated by a primitive-root power")
    chars = np.zeros((t, p), dtype=np.complex128)
    steps = np.arange(t)
    # the phase 2 pi alpha l / t, rounded step by step in that order
    chars[:, order] = np.exp(1j * ((2 * np.pi * steps)[:, None] * steps / t))
    return chars


def subgroup_eigencheck(gamma: GSet, phi=None, k: int = 1, base_set: GSet | None = None,
                        seed: int = 7, residual_tol: float = 1e-8) -> SubgroupEigenReport:
    """Verify the character eigenfunction structure of the restricted operator.

    phi defaults to Gamma o Gamma.  When base_set B is given instead, phi is
    the kernel whose convolution transform is (B o B)^k, and the maximal
    eigenvalue is compared against E_(k+1)(Gamma, B)/|Gamma|.
    """
    p, t = multiplicative_order_elements(gamma)
    g = gamma.group
    n = g.order
    claimed = None
    if base_set is not None:
        corr = moments.correlate(base_set, base_set).array.astype(np.float64).ravel() ** k
        phi_v = _group_fft(g, corr.astype(np.complex128)) / n
        if np.abs(phi_v.imag).max() > 1e-9:
            raise InvariantError("kernel transform of a symmetric table must be real")
        phi_v = phi_v.real.astype(np.complex128)
        claimed = float(moments.energy_k_pair(gamma, base_set, k + 1)) / t
    elif phi is None:
        phi_v = _flat_function(g, moments.correlate(gamma, gamma))
    else:
        phi_v = _flat_function(g, phi)

    # Gamma-invariance of phi
    for gam in gamma.coords[:, 0].tolist():
        perm = (gam * np.arange(p, dtype=np.int64)) % p
        if np.abs(phi_v[perm] - phi_v).max() > 1e-9 * max(1.0, np.abs(phi_v).max()):
            raise ValueError("phi is not Gamma-invariant")

    mat = restricted_matrix(g, phi_v, gamma)
    idx = gamma.flat_indices()
    chars = subgroup_characters(gamma)[:, :]
    eigenvalues: list[float] = []
    residuals: list[float] = []
    for alpha in range(t):
        chi = chars[alpha][idx]
        w = mat @ chi
        mu = complex(np.vdot(chi, w)) / t
        res = float(np.linalg.norm(w - mu * chi) / (1.0 + np.linalg.norm(w)))
        eigenvalues.append(float(mu.real))
        residuals.append(res)

    kernel_ft = _group_fft(g, phi_v)
    nonneg = bool(kernel_ft.real.min() > -1e-6 * max(1.0, np.abs(kernel_ft).max())
                  and np.abs(kernel_ft.imag).max() < 1e-6 * max(1.0, np.abs(kernel_ft).max()))
    measured_max = max(eigenvalues)
    max_at_trivial = eigenvalues[0] >= measured_max - 1e-8 * max(1.0, abs(measured_max))

    # the quadratic-form inequality for kernels with nonnegative transform
    rng = np.random.default_rng(seed)
    psi_v = _flat_function(g, moments.correlate(gamma, gamma))
    connected_ok = True
    for trial in range(8):
        u = np.zeros(n)
        u[idx] = rng.integers(-3, 4, size=t).astype(np.float64)
        lhs = _quadratic_form(g, psi_v, u)
        corr_g = _quadratic_form(g, psi_v, _flat_function(g, gamma).real)
        rhs = (u[idx].sum() ** 2 / t ** 2) * corr_g
        if lhs < rhs - 1e-6 * max(1.0, abs(rhs)):
            connected_ok = False
    u0 = _flat_function(g, gamma).real
    lhs0 = _quadratic_form(g, psi_v, u0)
    rhs0 = (u0[idx].sum() ** 2 / t ** 2) * _quadratic_form(g, psi_v, u0)
    connected_equality = math.isclose(lhs0, rhs0, rel_tol=1e-9, abs_tol=1e-9)

    if max(residuals) >= residual_tol:
        raise InvariantError(f"character eigenfunction residual too large: {max(residuals)}")

    return SubgroupEigenReport(
        p=p, t=t, k=k,
        eigenvalues=eigenvalues,
        residuals=residuals,
        max_at_trivial=bool(max_at_trivial),
        kernel_transform_nonneg=nonneg,
        measured_max=float(measured_max),
        claimed_max=claimed,
        claimed_ratio=(float(measured_max) / claimed if claimed else None),
        connected_ok=connected_ok,
        connected_equality_at_indicator=connected_equality,
    )


def _quadratic_form(g: GroupSpec, psi_v: np.ndarray, u: np.ndarray) -> float:
    """sum_x psi(x) (u o u)(x) for a real vector u."""
    spec = _group_fft(g, u.astype(np.complex128))
    corr = _group_ifft(g, np.conj(spec) * spec).real  # (u o u) by inversion
    return float((psi_v.real * corr).sum())
