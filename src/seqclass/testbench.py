"""The universal two-phase sequential test and the fixed-length test,
instantiated for the three sequential classification setups.

A classification trial observes three sequences: the testing sequence X
(law P0 or P1, unknown which) and two training sequences T0 ~ P0, T1 ~ P1.
A setup declares which sequences are fixed-length and which keep growing,
by arranging them in an order where the first `ell` blocks are fixed:

* Semi1     — order (T0, T1, X), ell = 2: training fixed, testing sequential
* Semi2     — order (X, T0, T1), ell = 1: testing fixed, training sequential
* FullySeq  — order (T0, T1, X), ell = 0: everything sequential
* FixedLength — no stopping time; a single n-sample decision

The test looks at the empirical tuple at time n-1.  If it is eta_n-close to
either hypothesis class it stops and decides by the sign of g1; otherwise
it defers to time n^2 where a fixed-length rule with n-weighted sequential
blocks (g_n) decides.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import divergence as dv
from .exponents import g1
from .simplex import type_rows


class SetupKind(Enum):
    FixedLength = "fixed"
    Semi1 = "semi1"
    Semi2 = "semi2"
    FullySeq = "fullyseq"


def eta_n(n, alpha, beta, d):
    """Typicality margin for the classification lambda-sets at time n-1.

    [(d+2)*log2 n + d*log2(ceil(alpha*n)+1) + d*log2(ceil(beta*n)+1)] / (n-1).
    Counts the type classes the union bound must pay for; vanishes as n grows.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    return (
        (d + 2) * math.log2(n)
        + d * math.log2(math.ceil(alpha * n) + 1)
        + d * math.log2(math.ceil(beta * n) + 1)
    ) / (n - 1)


@dataclass(frozen=True)
class TestOutcome:
    decision: int
    tau: int
    phase: str  # "early" | "late"
    capped: bool = False


@dataclass(frozen=True)
class HypothesisModel:
    """The block layout of a sequential setup.

    A trial's three sequences form blocks in setup order: `blocks` names
    each one ("t0", "t1" or "x"), the first `ell` are fixed-length, and
    block i draws alphas[i] samples per time step.
    """

    inst: object
    ell: int
    alphas: tuple  # per-block sampling ratios, setup order
    blocks: tuple  # "t0", "t1", "x" in setup order

    def laws(self, theta):
        """The law of each block in setup order when X ~ P_theta."""
        law = {"t0": self.inst.p0, "t1": self.inst.p1, "x": self.inst.p1 if theta else self.inst.p0}
        return tuple(law[b] for b in self.blocks)

    def unpack(self, tup):
        """The (T0, T1, X) entries of a tuple given in setup order."""
        return tuple(tup[self.blocks.index(b)] for b in ("t0", "t1", "x"))


def make_model(setup, inst):
    if setup is SetupKind.FixedLength:
        raise ValueError("FixedLength has no sequential model; use fixed_length_test")
    a, b = inst.alpha, inst.beta
    if setup is SetupKind.Semi2:
        ell, alphas, blocks = 1, (1.0, a, b), ("x", "t0", "t1")
    elif setup is SetupKind.Semi1:
        ell, alphas, blocks = 2, (a, b, 1.0), ("t0", "t1", "x")
    else:
        ell, alphas, blocks = 0, (a, b, 1.0), ("t0", "t1", "x")
    return HypothesisModel(inst=inst, ell=ell, alphas=alphas, blocks=blocks)


def stream_sizes(model, n, late_cap=None):
    """How many samples of each block a two-phase trial reads.

    Returns (early, late, tau, capped): the per-block counts in setup order
    read at time n - 1 and at the late time tau, which is n^2, or late_cap
    when that is smaller (then capped is True).  At time t a fixed block
    has ceil(alpha_i * n) samples and a sequential one ceil(alpha_i * t).
    Raises ValueError when the late time would read fewer samples of a
    block than the early phase does.
    """
    if n < 2:
        raise ValueError("n must be >= 2")
    tau = n * n
    capped = late_cap is not None and late_cap < tau
    if capped:
        tau = late_cap
    early, late = [], []
    for i, a in enumerate(model.alphas):
        fixed = i < model.ell
        early.append(math.ceil(a * (n if fixed else n - 1)))
        late.append(math.ceil(a * (n if fixed else tau)))
        if early[i] > late[i]:
            raise ValueError("stream exhausted: needs %d samples, has %d" % (early[i], late[i]))
    return tuple(early), tuple(late), tau, capped


def fixed_length_test(Phat, P0hat, P1hat, inst):
    """Decide 0 iff the empirical tuple scores g1 < 0 (ties go to 1).

    Takes one tuple of distributions and returns an int, or (T, d) stacks
    of tuples and returns one decision per row.
    """
    dec = np.where(g1(Phat, P0hat, P1hat, inst) < 0, 0, 1)
    return dec if np.ndim(Phat) == 2 else int(dec)


def early_phase(tup, n, model):
    """The early-phase rule at time n-1 over a tuple of (T, d) type stacks
    in setup order.  Returns (stop, decision), two length-T arrays.

    A row stops when it lies eta_n-close to either hypothesis class: the
    GJS distance of (T0, X) is below eta_n (H0) or that of (T1, X) is (H1).
    Inside the H1-typical shell the sign of g1 decides (overlaps with the
    H0 shell resolve by the sign as well); in the H0 shell alone the
    decision is 0.  A row of the H1 shell stops whatever its (T0, X)
    distance, so that distance is taken only off the shell.
    """
    inst = model.inst
    t0, t1, x = model.unpack(tup)
    eta = eta_n(n, inst.alpha, inst.beta, inst.d)
    shell = dv.weighted_join(inst.beta, t1, 1.0, x) < eta
    rest = ~shell
    stop = shell.copy()
    stop[rest] = dv.weighted_join(inst.alpha, t0[rest], 1.0, x[rest]) < eta
    decision = np.zeros(stop.size, dtype=np.intp)
    if shell.any():
        decision[shell] = np.where(g1(x[shell], t0[shell], t1[shell], inst) < 0, 0, 1)
    return stop, decision


def late_score(tup, n, model):
    """g_n of each row of a tuple of (T, d) type stacks in setup order: g1
    with the sequential blocks counted n-fold."""
    w0, w1, wx = model.unpack([a if i < model.ell else a * n for i, a in enumerate(model.alphas)])
    t0, t1, x = model.unpack(tup)
    return g1(x, t0, t1, model.inst, weights=(wx, w0, w1))


def late_phase(tup, n, model):
    """The late-phase rule at time tau over a tuple of (T, d) type stacks in
    setup order: decide 0 where g_n < 0 (ties go to 1), one decision per row."""
    return np.where(late_score(tup, n, model) < 0, 0, 1)


def _types(streams, counts, d):
    """The (1, d) type of the first counts[i] samples of each stream."""
    out = []
    for s, k in zip(streams, counts):
        head = np.asarray(s)[:k]
        if head.size < k:
            raise ValueError("stream too short: needs %d samples, has %d" % (k, head.size))
        if head.min() < 0 or head.max() >= d:
            raise ValueError("sample index out of range")
        out.append(type_rows(head[None, :], d))
    return tuple(out)


def two_phase_test(streams, n, model, late_cap=None):
    """Run one two-phase sequential classification trial.

    streams: three integer index sequences in setup order, each at least as
    long as stream_sizes says the phases read (the late counts are needed
    only when the early phase defers).  Returns a TestOutcome.
    """
    early, late, tau, capped = stream_sizes(model, n, late_cap)
    d = model.inst.d
    stop, decision = early_phase(_types(streams, early, d), n, model)
    if stop[0]:
        return TestOutcome(decision=int(decision[0]), tau=n - 1, phase="early")
    decision = late_phase(_types(streams, late, d), n, model)
    return TestOutcome(decision=int(decision[0]), tau=tau, phase="late", capped=capped)
