"""Entropy accounting for CHSH_q protocols.

Covers the pairwise-independent Hadamard-subcode retrieval task, the
per-index mutual information of the noisy sum channel, the binary-output
reduction, and the message-guessing reduction used to bound protocols
with long messages.  All logs are base 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import log2

import numpy as np

from .errors import InvalidInput, InvariantViolation, CapExceeded
from .field import OP_TABLE_Q_CAP, Field
from .boxes import RegularBox, ErrorDist, compose_m

QM_CAP = 1 << 20   # largest input space q^m whose U_m is listed


# ---------------------------------------------------------------------------
# entropy and mutual information on explicit tables
# ---------------------------------------------------------------------------

def check_joint(table) -> np.ndarray:
    t = np.asarray(table, dtype=float)
    if (t < 0).any():
        raise InvalidInput("joint table has negative entries")
    if abs(t.sum() - 1.0) > 1e-12:
        raise InvalidInput("joint table does not sum to 1")
    return t


def entropy(dist) -> float:
    """Shannon entropy in bits; 0 log 0 = 0."""
    p = np.asarray(dist, dtype=float).ravel()
    p = p[p > 0]
    return float(-(p * np.log2(p)).sum())


def mutual_information(joint) -> float:
    """I(X;Y) = H(X) + H(Y) - H(X,Y) for a 2-d joint table."""
    t = check_joint(joint)
    if t.ndim != 2:
        raise InvalidInput("joint table must be 2-d")
    v = entropy(t.sum(axis=1)) + entropy(t.sum(axis=0)) - entropy(t)
    if v < -1e-9:
        raise InvariantViolation("mutual information came out negative")
    return max(v, 0.0)   # clamp float cancellation on near-independent tables


# ---------------------------------------------------------------------------
# the Hadamard subcode task
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HadamardTask:
    """Index vectors with first nonzero coordinate 1: one per projective
    direction, (q^m - 1)/(q - 1) in total.  The linear forms they induce
    on a uniform Y in F_q^m are pairwise independent."""
    field: Field
    m: int
    vectors: tuple[tuple[int, ...], ...]


def build_U_m(field: Field, m: int) -> HadamardTask:
    if m < 1:
        raise InvalidInput("m must be >= 1")
    q = field.q
    # q >= 2 puts every m past log2(QM_CAP) over the cap, so the power is
    # taken at most that far: q ** m for a huge m would not finish
    if q ** min(m, QM_CAP.bit_length()) > QM_CAP:
        raise CapExceeded(f"q^m exceeds enumeration cap {QM_CAP}")
    vectors = []
    for lead in range(m):
        for suffix in product(range(q), repeat=m - lead - 1):
            vectors.append((0,) * lead + (1,) + suffix)
    expected = (q ** m - 1) // (q - 1)
    if len(vectors) != expected:
        raise InvariantViolation("subcode has wrong size")
    return HadamardTask(field, m, tuple(vectors))


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
    scalar multiples: each vector is scaled by the inverse of its first
    nonzero entry, and the scaled rows must be pairwise distinct.
    """
    field, m = task.field, task.m
    q = field.q
    if m < 1:
        raise InvalidInput("m must be >= 1")
    if any(len(xi) != m for xi in task.vectors):
        raise InvalidInput(f"index vectors must have m = {m} coordinates")
    xis = np.asarray(task.vectors).reshape(-1, m)
    if not xis.size:
        return True
    if xis.dtype.kind not in "iu" or xis.min() < 0 or xis.max() >= q:
        raise InvalidInput(f"index vector entries must be integers in [0, {q})")
    nonzero = xis != 0
    if not nonzero.any(axis=1).all():
        return False
    lead = xis[np.arange(len(xis)), nonzero.argmax(axis=1)]
    rows = field.vec.mul(field.vec.inv(lead)[:, None], xis)
    rows = rows[np.lexsort(rows.T)]
    return not (rows[1:] == rows[:-1]).all(axis=1).any()


# ---------------------------------------------------------------------------
# per-index channel and the IC sum
# ---------------------------------------------------------------------------

def joint_from_error(field: Field, err: ErrorDist) -> np.ndarray:
    """Joint table of (X, Z) with X uniform and Z = X + e, e ~ err: e = 0
    exactly on the diagonal z = x."""
    q = field.q
    if q > OP_TABLE_Q_CAP:
        raise CapExceeded(f"q x q joint tables capped at q <= {OP_TABLE_Q_CAP}")
    joint = np.full((q, q), float(err.p1))
    np.fill_diagonal(joint, float(err.p0))
    joint /= q
    return joint


def _check_m(q: int, m: int) -> None:
    """Refuse m < 1, and m whose index count (q^m - 1)/(q - 1) is past float
    range, judged from logs: q ** m for a huge m would not finish."""
    if m < 1:
        raise InvalidInput("m must be >= 1")
    if min(m, 1025) * log2(q) - log2(q - 1) >= 1024:   # every q >= 2 past m = 1024
        raise CapExceeded(f"IC index count (q^m - 1)/(q - 1) at m = {m} "
                          f"exceeds float range")


@dataclass(frozen=True)
class IcSumResult:
    m: int
    n_indices: int
    per_index_mi: float
    total: float


def ic_sum(field: Field, m: int, E) -> IcSumResult:
    """|U_m| times the MI of the m-fold composed channel, from first
    principles (joint table), not from any closed-form shortcut."""
    E = Fraction(E)
    if not 0 <= E <= 1:
        raise InvalidInput("bias must be in [0, 1] for the IC sum")
    _check_m(field.q, m)
    err = compose_m(field, RegularBox(field.q, E), m)
    mi = mutual_information(joint_from_error(field, err))
    n = (field.q ** m - 1) // (field.q - 1)
    return IcSumResult(m=m, n_indices=n, per_index_mi=mi, total=n * mi)


@dataclass(frozen=True)
class DichotomyResult:
    rows: tuple[IcSumResult, ...]
    verdict: str    # "bounded" | "growing" | "inconclusive"


def ic_dichotomy_experiment(field: Field, E, m_range) -> DichotomyResult:
    """Sweep ic_sum over m and classify the tail of the totals.

    "bounded": last three totals nonincreasing; "growing": last three
    strictly increasing with ratio >= 1.1 at each step.  The crossover
    sits at q E^2 = 1, i.e. E = q^(-1/2)."""
    ms = []
    for m in m_range:   # a range past the cap is refused before it is listed
        _check_m(field.q, m)
        ms.append(m)
    if len(ms) < 3:
        raise InvalidInput("need at least three m values to classify")
    rows = tuple(ic_sum(field, m, E) for m in ms)
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
    if t.ndim != 2:
        raise InvalidInput("joint table must be 2-d")
    na, nb = t.shape
    row = t.sum(axis=1)
    if not np.allclose(row, 1.0 / na, atol=1e-9):
        raise InvalidInput("X marginal must be uniform")
    source = mutual_information(t)
    hx = log2(na)
    if hx == 0.0:
        return BinaryReduction(f=(0,) * nb, achieved_mi=0.0, source_mi=source)
    r = t.sum(axis=0)
    score = np.full(nb, -1.0)
    for j in range(nb):
        if r[j] <= 0:
            continue
        tj = entropy(t[:, j] / r[j]) / hx
        score[j] = r[j] * (1.0 - tj)
    j_star = int(np.argmax(score))
    f = tuple(1 if j == j_star else 0 for j in range(nb))
    collapsed = np.stack([t[:, [j for j in range(nb) if f[j] == 0]].sum(axis=1),
                          t[:, [j for j in range(nb) if f[j] == 1]].sum(axis=1)],
                         axis=1)
    return BinaryReduction(f=f, achieved_mi=mutual_information(collapsed),
                           source_mi=source)


# ---------------------------------------------------------------------------
# message-guessing reduction (one shared uniform guess at the message)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ChannelProtocol:
    """A one-round classical protocol: X ~ x_dist, message alpha ~ msg[x],
    receiver output z ~ dec[alpha]."""
    x_dist: tuple[float, ...]
    msg: tuple[tuple[float, ...], ...]    # |A| x |Sigma| rows
    dec: tuple[tuple[float, ...], ...]    # |Sigma| x |Lambda| rows

    def __post_init__(self):
        if len(self.msg) != len(self.x_dist):
            raise InvalidInput("msg needs one row per input symbol")
        widths = {len(r) for r in self.msg}
        if len(widths) != 1 or widths.pop() != len(self.dec):
            raise InvalidInput("msg columns must match dec rows")
        for dist in (self.x_dist, *self.msg, *self.dec):
            if any(v < 0 for v in dist) or abs(sum(dist) - 1.0) > 1e-12:
                raise InvalidInput("protocol rows must be distributions")

    @property
    def n_messages(self) -> int:
        return len(self.dec)

    @property
    def n_outputs(self) -> int:
        return len(self.dec[0])

    def joint_xz(self) -> np.ndarray:
        x = np.array(self.x_dist)
        m = np.array(self.msg)
        d = np.array(self.dec)
        return x[:, None] * (m @ d)


def copy_protocol(n: int) -> ChannelProtocol:
    """Noiseless protocol: message = input = output, X uniform on n symbols."""
    eye = tuple(tuple(1.0 if i == j else 0.0 for j in range(n)) for i in range(n))
    return ChannelProtocol(x_dist=(1.0 / n,) * n, msg=eye, dec=eye)


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
    if samples < 1:
        raise InvalidInput("samples must be >= 1")
    rng = np.random.default_rng(seed)
    na = len(protocol.x_dist)
    sigma = protocol.n_messages
    nl = protocol.n_outputs

    x = rng.choice(na, size=samples, p=np.array(protocol.x_dist))
    guess = rng.integers(0, sigma, size=samples)
    alpha = np.empty(samples, dtype=np.int64)
    for xv in range(na):                      # fixed order keeps this seeded
        mask = x == xv
        alpha[mask] = rng.choice(sigma, size=int(mask.sum()),
                                 p=np.array(protocol.msg[xv]))
    z_bar = np.empty(samples, dtype=np.int64)
    for av in range(sigma):
        mask = guess == av
        z_bar[mask] = rng.choice(nl, size=int(mask.sum()),
                                 p=np.array(protocol.dec[av]))
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
    px = joint.sum(axis=1)
    pz = joint.sum(axis=0)
    mask = joint > 0
    llr = np.zeros_like(joint)
    llr[mask] = np.log2(joint[mask] / (px[:, None] * pz[None, :])[mask])
    mean = (joint * llr).sum()
    var = (joint * (llr - mean) ** 2).sum()
    return float(var ** 0.5)
