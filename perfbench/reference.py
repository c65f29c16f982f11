"""High-precision references for packet loss (PLR) and time congestion.

Two independent ways to get the exact LCC and OFL values of a load vector:

``mp_reference``
    mpmath at ``DPS`` decimal digits. The generating polynomial
    prod_i (1 + r_i x), r_i = A_i / (1 - A_i), truncated at degree W, is
    built class by class: a class of n equal loads contributes the
    binomial factor (1 + r x)^n, so a one-hot vector (one hot source and
    M-1 equal cold ones) costs O(W) and a vector of M distinct loads
    costs O(M*W). Its coefficients e_0..e_W give

        LCC  PLR  = 1 - (sum_k k e_k / sum_k e_k) / offered
        LCC  time = e_W / sum_k e_k
        OFL  PLR  = (offered - W + sum_{k<W} (W-k) p_k) / offered
        OFL  time = 1 - sum_{k<W} p_k,     p_k = e_k / prod_i (1 + r_i)

    The subtractions cancel about log10(1/PLR) digits, which the working
    precision absorbs for every PLR above 1e-40.

``ld_reference``
    The free Poisson-binomial pmf p_0..p_M of the active-source count N,
    built in extended precision (numpy longdouble) by the PGF product,
    where every operation adds nonnegative terms. Conditioning N on N <= W
    gives the truncated product form, and

        offered - carried_LCC = (F E[(N-W)+] + D P(N>W)) / F,
        F = P(N<=W),  D = sum_{k<=W} (W-k) p_k,

    is a sum of nonnegative terms too, so both PLRs keep a relative error
    near M times the longdouble epsilon at any depth. It costs O(M^2)
    vector work and serves distinct loads at fan-ins where the O(M*W)
    mpmath recurrence does not fit in set-up.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from typing import Sequence

import mpmath
import numpy as np

DPS = 60


@dataclass(frozen=True)
class Reference:
    """Exact values of one load vector on W channels, as Python floats."""

    lcc_plr: float
    lcc_time: float
    ofl_plr: float
    ofl_time: float


def _classes(loads: Sequence[float]) -> list[tuple[float, int]]:
    # Largest class first: multiplying into [1] costs O(W) for it.
    return sorted(Counter(float(a) for a in loads).items(), key=lambda kv: -kv[1])


def _times_binomial(e: list, r, n: int, w: int) -> list:
    """Coefficients of e(x) * (1 + r x)^n, truncated at degree w."""
    if n == 1:
        out = e + [mpmath.mpf(0)] if len(e) <= w else list(e)
        for k in range(len(out) - 1, 0, -1):
            out[k] += r * out[k - 1]
        return out
    b = [mpmath.mpf(1)]
    for k in range(1, min(n, w) + 1):
        b.append(b[-1] * r * (n - k + 1) / k)
    if len(e) == 1:
        return [e[0] * x for x in b]
    out = [mpmath.mpf(0)] * min(len(e) + len(b) - 1, w + 1)
    for i, ei in enumerate(e):
        for j, bj in enumerate(b[:len(out) - i]):
            out[i + j] += ei * bj
    return out


def mp_reference(loads: Sequence[float], w: int) -> Reference:
    """LCC and OFL PLR and time congestion from the mpmath ESP recurrence."""
    m = len(loads)
    if not 1 <= w < m:
        raise ValueError("the reference needs 1 <= W < M")
    with mpmath.workdps(DPS):
        e = [mpmath.mpf(1)]
        offered = mpmath.mpf(0)
        log_norm = mpmath.mpf(0)
        for a, n in _classes(loads):
            if a == 0.0:
                continue
            a = mpmath.mpf(a)
            r = a / (1 - a)
            e = _times_binomial(e, r, n, w)
            offered += n * a
            log_norm += n * mpmath.log1p(r)
        e += [mpmath.mpf(0)] * (w + 1 - len(e))
        z = mpmath.fsum(e)
        carried = mpmath.fsum(k * ek for k, ek in enumerate(e)) / z
        norm = mpmath.exp(log_norm)
        below = [ek / norm for ek in e[:w]]
        ofl_over = offered - w + mpmath.fsum((w - k) * pk for k, pk in enumerate(below))
        return Reference(
            lcc_plr=float((offered - carried) / offered),
            lcc_time=float(e[w] / z),
            ofl_plr=float(ofl_over / offered),
            ofl_time=float(1 - mpmath.fsum(below)),
        )


def poisson_binomial_ld(loads: Sequence[float]) -> np.ndarray:
    """P(N = k), k = 0..M, for independent Bernoulli(A_i), in longdouble."""
    pmf = np.zeros(len(loads) + 1, dtype=np.longdouble)
    pmf[0] = 1
    for i, a in enumerate(loads):
        a = np.longdouble(a)
        pmf[1:i + 2] = pmf[1:i + 2] * (1 - a) + pmf[:i + 1] * a
        pmf[0] *= 1 - a
    return pmf


def ld_reference(loads: Sequence[float], w: int) -> Reference:
    """LCC and OFL PLR and time congestion from nonnegative longdouble sums."""
    m = len(loads)
    if not 1 <= w < m:
        raise ValueError("the reference needs 1 <= W < M")
    p = poisson_binomial_ld(loads)
    k = np.arange(m + 1, dtype=np.longdouble)
    below, above = p[:w + 1], p[w + 1:]
    f = below.sum()
    d = ((w - k[:w + 1]) * below).sum()
    excess = ((k[w + 1:] - w) * above).sum()
    offered = np.longdouble(math.fsum(loads))
    return Reference(
        lcc_plr=float((f * excess + d * above.sum()) / (f * offered)),
        lcc_time=float(p[w] / f),
        ofl_plr=float(excess / offered),
        ofl_time=float(p[w:].sum()),
    )


def classical_reference(s: int, per_source_load: float, w: int) -> Reference:
    """The homogeneous model engset_classical evaluates: S equal loads."""
    return mp_reference([per_source_load] * s, w)
