"""Entropy accounting for CHSH_q protocols.

Covers the pairwise-independent Hadamard-subcode retrieval task, the
per-index mutual information of the noisy sum channel, the binary-output
reduction, and the message-guessing reduction used to bound protocols
with long messages.  All logs are base 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import log2

import numpy as np

from .errors import InvalidInput, InvariantViolation, CapExceeded
from .field import Field, as_elements, as_floats, check_distribution, check_int, check_op_cap
from .boxes import (RegularBox, ErrorDist, check_pow_digits, compose_m, convolve,
                    parse_fraction)
from .geometry import canonical_rows, proj_points


# ---------------------------------------------------------------------------
# entropy and mutual information on explicit tables
# ---------------------------------------------------------------------------

def check_joint(table) -> np.ndarray:
    t = check_distribution(as_floats(table, "joint table must be a table of real numbers"),
                           "joint table must be nonnegative and sum to 1")
    if t.ndim != 2:
        raise InvalidInput("joint table must be 2-d")
    return t


def entropy(dist) -> float:
    """Shannon entropy in bits of a distribution table; 0 log 0 = 0."""
    p = as_floats(dist, "a distribution must be a table of real numbers")
    return _entropy(check_distribution(p, "a distribution must be nonnegative and sum to 1"))


def _entropy(p: np.ndarray) -> float:
    """`entropy` of a float table already checked, or derived from one that is."""
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def mutual_information(joint) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y) for a 2-d joint table."""
    t = check_joint(joint)
    v = _entropy(t.sum(axis=1)) + _entropy(t.sum(axis=0)) - _entropy(t)
    if v < -1e-9:
        raise InvariantViolation("mutual information came out negative")
    return max(v, 0.0)   # clamp float cancellation on near-independent tables


# ---------------------------------------------------------------------------
# the Hadamard subcode task
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class HadamardTask:
    """Index vectors in F_q^m as the rows of a (k, m) integer array: `build_U_m`
    gives `geometry.proj_points(field, m)`, one vector per projective
    direction.  A task built directly holds what it is given, as
    `geometry.Config` does; tasks compare by identity."""
    field: Field
    vectors: np.ndarray


def build_U_m(field: Field, m: int) -> HadamardTask:
    vectors = proj_points(field, m)   # checks m and the q^m cap
    q, m = field.q, vectors.shape[1]
    if len(vectors) != (q ** m - 1) // (q - 1):
        raise InvariantViolation("subcode has wrong size")
    return HadamardTask(field, vectors)


def pairwise_independence_check(task: HadamardTask) -> bool:
    """True iff every codeword <xi, Y> is uniform and every pair of
    codewords is jointly uniform on F_q^2, for Y uniform on F_q^m.

    The check is a rank test, with no q^m-sized object.  The map
    Y -> <xi, Y> is F_q-linear, so it is onto F_q, and each fibre holds
    q^(m-1) points, iff xi != 0.  For two vectors, Y -> (<xi1, Y>, <xi2, Y>)
    is onto F_q^2 iff xi1 and xi2 are linearly independent; every fibre is
    then a coset of the kernel and holds q^(m-2) points, so the pair is
    uniform.  If they are dependent, xi2 = c xi1 and the pair lies on the
    line {(a, c a)}, which is not all of F_q^2 (for m = 1 every pair is
    dependent).  So the task passes iff no vector is zero and no two are
    scalar multiples: the rows of `geometry.canonical_rows` must be nonzero
    and pairwise distinct.  A task with no vectors passes.
    """
    field = task.field
    message = f"index vectors must be the rows of a (k, m) array of integers in [0, {field.q})"
    xis = as_elements(field, task.vectors, message)
    if xis.shape[:1] == (0,):   # no vectors, () among them
        return True
    if xis.ndim != 2:
        raise InvalidInput(message)
    check_int("m", xis.shape[1])
    rows = canonical_rows(field, xis)
    rows = rows[np.lexsort(rows.T)]   # a zero row, the least, sorts first
    return bool(rows[0].any()) and not (rows[1:] == rows[:-1]).all(axis=1).any()


# ---------------------------------------------------------------------------
# per-index channel and the IC sum
# ---------------------------------------------------------------------------

def joint_from_error(field: Field, err: ErrorDist) -> np.ndarray:
    """Joint table of (X, Z) with X uniform and Z = X + e, e ~ err: e = 0
    exactly on the diagonal z = x."""
    check_op_cap(field, "q x q joint tables")
    q = field.q
    joint = np.full((q, q), float(err.p1))
    np.fill_diagonal(joint, float(err.p0))
    joint /= q
    return joint


def _check_m(q: int, m: int) -> int:
    """m as an int: refuse a non-integer or m < 1, and m whose index count
    (q^m - 1)/(q - 1) is past float range, judged from logs: q ** m for a
    huge m would not finish."""
    m = check_int("m", m)
    if min(m, 1025) * log2(q) - log2(q - 1) >= 1024:   # every q >= 2 past m = 1024
        raise CapExceeded(f"IC index count (q^m - 1)/(q - 1) at m = {m} "
                          f"exceeds float range")
    return m


@dataclass(frozen=True)
class IcSumResult:
    m: int
    n_indices: int
    per_index_mi: float
    total: float


def _check_bias(E) -> Fraction:
    E = parse_fraction(E)
    if not 0 <= E <= 1:
        raise InvalidInput("bias must be in [0, 1] for the IC sum")
    return E


def _ic_row(field: Field, m: int, err: ErrorDist) -> IcSumResult:
    """The IC sum at m from the m-fold composed error `err`."""
    mi = mutual_information(joint_from_error(field, err))
    n = (field.q ** m - 1) // (field.q - 1)
    return IcSumResult(m=m, n_indices=n, per_index_mi=mi, total=n * mi)


def ic_sum(field: Field, m: int, E) -> IcSumResult:
    """|U_m| times the MI of the m-fold composed channel, from first
    principles (joint table), not from any closed-form shortcut."""
    E = _check_bias(E)
    m = _check_m(field.q, m)
    return _ic_row(field, m, compose_m(field, RegularBox(field.q, E), m))


@dataclass(frozen=True)
class DichotomyResult:
    rows: tuple[IcSumResult, ...]
    verdict: str    # "bounded" | "growing" | "inconclusive"


def ic_dichotomy_experiment(field: Field, E, m_range) -> DichotomyResult:
    """The rows of `ic_sum` over m, in the order of m_range, and the verdict
    on the tail of the totals.

    The distinct m are composed as one ascending chain: E^m is E^m' (the
    previous m) convolved with E^(m - m'), one convolution per m, where
    `ic_sum` composes each E^m anew.  Exact convolution is associative, so
    every row equals `ic_sum`'s, which is kept as the oracle.  The chain
    starts from the error of E = 1 (no error).  Before it starts, q is
    refused above OP_TABLE_Q_CAP, as `ic_sum`'s joint table would refuse it,
    and the largest m by `check_pow_digits`, as `ic_sum` at that m would.

    "bounded": last three totals nonincreasing; "growing": last three
    strictly increasing with ratio >= 1.1 at each step.  The crossover
    sits at q E^2 = 1, i.e. E = q^(-1/2)."""
    ms = [_check_m(field.q, m) for m in m_range]   # a range past the cap is never listed
    if len(ms) < 3:
        raise InvalidInput("need at least three m values to classify")
    box = RegularBox(field.q, _check_bias(E))
    check_op_cap(field, "q x q joint tables")
    check_pow_digits(box, max(ms))
    by_m, err, prev = {}, RegularBox(field.q, 1).error_dist(), 0
    for m in sorted(set(ms)):
        err = convolve(field, err, compose_m(field, box, m - prev))
        by_m[m], prev = _ic_row(field, m, err), m
    rows = tuple(by_m[m] for m in ms)
    t = [r.total for r in rows[-3:]]
    if t[0] >= t[1] >= t[2]:
        verdict = "bounded"
    elif t[1] >= 1.1 * t[0] and t[2] >= 1.1 * t[1]:
        verdict = "growing"
    else:
        verdict = "inconclusive"
    return DichotomyResult(rows=rows, verdict=verdict)


# ---------------------------------------------------------------------------
# binary-output reduction
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BinaryReduction:
    f: tuple[int, ...]        # indicator of the selected output symbol
    achieved_mi: float        # I(X; f(Y))
    source_mi: float          # I(X; Y)


def binary_reduction_select(joint) -> BinaryReduction:
    """Collapse Y to one bit while keeping a 1/|B| fraction of the MI.

    Requires X uniform.  Writing r_j = Pr[Y=j] and t_j = H(X|Y=j)/H(X),
    the information s = I(X;Y)/H(X) equals sum_j r_j (1 - t_j), so some
    j* has r_j*(1 - t_j*) >= s/|B|; f = [Y = j*] then achieves
    I(X; f(Y)) >= I(X;Y)/|B|."""
    t = check_joint(joint)
    na, nb = t.shape
    row = t.sum(axis=1)
    if not np.allclose(row, 1.0 / na, atol=1e-9):
        raise InvalidInput("X marginal must be uniform")
    source = mutual_information(t)
    hx = log2(na)
    if hx == 0.0:
        return BinaryReduction(f=(0,) * nb, achieved_mi=0.0, source_mi=source)
    r = t.sum(axis=0)
    score = [r[j] * (1.0 - _entropy(t[:, j] / r[j]) / hx) if r[j] > 0 else -1.0
             for j in range(nb)]
    j_star = int(np.argmax(score))
    f = tuple(1 if j == j_star else 0 for j in range(nb))
    collapsed = np.stack([np.delete(t, j_star, axis=1).sum(axis=1), t[:, j_star]], axis=1)
    return BinaryReduction(f=f, achieved_mi=mutual_information(collapsed),
                           source_mi=source)


# ---------------------------------------------------------------------------
# message-guessing reduction (one shared uniform guess at the message)
# ---------------------------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ChannelProtocol:
    """A one-round classical protocol: X ~ x_dist, message alpha ~ msg[x],
    receiver output z ~ dec[alpha].  Each slot is the float64 array that
    `field.as_floats` reads, so |A|, |Sigma| and |Lambda| are the shapes of
    msg and dec; protocols compare by identity."""
    x_dist: np.ndarray    # |A|
    msg: np.ndarray       # |A| x |Sigma| rows
    dec: np.ndarray       # |Sigma| x |Lambda| rows

    def __post_init__(self):
        for name in ("x_dist", "msg", "dec"):
            object.__setattr__(self, name, as_floats(getattr(self, name),
                                                     f"{name} must be a table of real numbers"))
        x, msg, dec = self.x_dist, self.msg, self.dec
        if dec.ndim != 2 or x.ndim != 1 or msg.shape != (len(x), len(dec)):
            raise InvalidInput("msg must have one row per input symbol and one column per dec row")
        for dist in (x, msg, dec):
            check_distribution(dist, "protocol rows must be distributions", axis=-1)

    def joint_xz(self) -> np.ndarray:
        return self.x_dist[:, None] * (self.msg @ self.dec)


def copy_protocol(n: int) -> ChannelProtocol:
    """Noiseless protocol: message = input = output, X uniform on n symbols."""
    n = check_int("n", n)
    return ChannelProtocol(x_dist=np.full(n, 1.0 / n), msg=np.eye(n), dec=np.eye(n))


@dataclass(frozen=True)
class CstarStats:
    samples: int
    p1_hat: float             # empirical Pr[guess matched]
    p1_expected: float        # 1/|Sigma|
    p1_stderr: float
    cond_joint: np.ndarray    # empirical (X, Z~) given a match
    mi_cond: float            # MI of cond_joint
    mi_original: float        # MI of the protocol's true (X, Z)
    mi_tolerance: float       # 3-sigma allowance for |mi_cond - mi_original|


def simulate_cstar(protocol: ChannelProtocol, samples: int = 10 ** 5,
                   seed: int = 0) -> CstarStats:
    """Run the reduction: draw a shared uniform guess at the message,
    hand over the prepared output only when the guess matches, otherwise
    output uniform noise.  Deterministic per seed."""
    if not isinstance(protocol, ChannelProtocol):
        raise InvalidInput("simulate_cstar takes a ChannelProtocol")
    samples, seed = check_int("samples", samples), check_int("seed", seed, 0)
    rng = np.random.default_rng(seed)
    (na, sigma), nl = protocol.msg.shape, protocol.dec.shape[1]

    x = rng.choice(na, size=samples, p=protocol.x_dist)
    guess = rng.integers(0, sigma, size=samples)
    alpha = np.empty(samples, dtype=np.int64)
    for xv in range(na):                      # fixed order keeps this seeded
        mask = x == xv
        alpha[mask] = rng.choice(sigma, size=int(mask.sum()),
                                 p=protocol.msg[xv])
    z_bar = np.empty(samples, dtype=np.int64)
    for av in range(sigma):
        mask = guess == av
        z_bar[mask] = rng.choice(nl, size=int(mask.sum()),
                                 p=protocol.dec[av])
    matched = alpha == guess
    z = np.where(matched, z_bar, rng.integers(0, nl, size=samples))

    n1 = int(matched.sum())
    p1_hat = n1 / samples
    p1 = 1.0 / sigma
    p1_stderr = (p1 * (1 - p1) / samples) ** 0.5

    hist = np.zeros((na, nl))
    np.add.at(hist, (x[matched], z[matched]), 1.0)
    cond = hist / max(n1, 1)
    true_joint = protocol.joint_xz()
    mi_cond = mutual_information(cond) if n1 else 0.0
    mi_orig = mutual_information(true_joint)
    mi_tol = 3.0 * (_llr_std(true_joint) / max(n1, 1) ** 0.5
                    + na * nl / (max(n1, 1) * np.log(2)))
    return CstarStats(samples=samples, p1_hat=p1_hat, p1_expected=p1,
                      p1_stderr=p1_stderr, cond_joint=cond, mi_cond=mi_cond,
                      mi_original=mi_orig, mi_tolerance=mi_tol)


def _llr_std(joint: np.ndarray) -> float:
    """Std of log2(p(x,z)/(p(x)p(z))) under the joint: the per-sample
    fluctuation of the plug-in MI estimate (zero for a noiseless copy)."""
    px, pz = joint.sum(axis=1), joint.sum(axis=0)
    mask = joint > 0
    llr = np.zeros_like(joint)
    llr[mask] = np.log2(joint[mask] / (px[:, None] * pz[None, :])[mask])
    mean = (joint * llr).sum()
    var = (joint * (llr - mean) ** 2).sum()
    return float(var ** 0.5)
