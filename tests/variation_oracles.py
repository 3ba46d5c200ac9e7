"""Independent r-variation oracles for the package's one V_r engine,
`cubevar.variation.vr_pointwise_values`: a scalar suffix DP in Python
arithmetic, which scales long or extreme sequences as the engine does, and an
exhaustive maximum over index subsets for short ones."""
import itertools
import math

import numpy as np

from cubevar.variation import _check_order


def vr_exact(values, r: float) -> float:
    """Exact r-variation of a finite sequence by a suffix DP over the last
    chosen index.  A real sequence runs in Python floats and a complex one in
    Python complex numbers.  The sequence is first scaled by 2^s, with s from
    its spread max_j |a_j - a_0| so that every |jump| is below 1, and has a_0
    subtracted first where |a_0| 2^s could pass 2^1022; V_r is translation
    invariant and 1-homogeneous, so the value is scaled back by 2^-s."""
    a = np.asarray(values)
    a = a.astype(np.complex128 if np.iscomplexobj(a) else np.float64, copy=False)
    if a.size == 0:
        raise ValueError("variation of an empty sequence is undefined")
    _check_order(r)
    a = a.tolist()
    shift = min(-(math.frexp(max(abs(v - a[0]) for v in a))[1] + 1), 1023)
    if shift > 1021 - math.frexp(abs(a[0]))[1]:
        a = [v - a[0] for v in a]
    scale = math.ldexp(1.0, shift)
    a = [v * scale for v in a]
    m = len(a)
    down = [0.0] * m          # best sum of |jump|^r over chains starting at j
    for j in range(m - 2, -1, -1):
        down[j] = max(abs(a[j] - a[k]) ** r + down[k] for k in range(j + 1, m))
    return math.ldexp(max(down) ** (1.0 / r), -shift)


def vr_bruteforce(values, r: float) -> float:
    """Exhaustive maximum over all index subsets taken as chains."""
    a = np.asarray(values, dtype=np.complex128)
    if a.size == 0:
        raise ValueError("variation of an empty sequence is undefined")
    if a.size > 16:
        raise ValueError("brute force capped at 16 entries")
    _check_order(r)
    best = 0.0
    idx = range(a.size)
    for j in range(2, a.size + 1):
        for chain in itertools.combinations(idx, j):
            s = 0.0
            for i0, i1 in zip(chain, chain[1:]):
                s += abs(a[i0] - a[i1]) ** r
            best = max(best, s)
    return best ** (1.0 / r)
