"""The universal two-phase sequential test and the fixed-length test,
instantiated for the four classification setups.

A classification trial observes three sequences: the testing sequence X
(law P0 or P1, unknown which) and two training sequences T0 ~ P0, T1 ~ P1.
A setup declares which sequences are fixed-length and which keep growing,
by arranging them in an order where the first `ell` blocks are fixed
(`LAYOUTS`).

The two-phase test looks at the empirical tuple at time n-1.  If it is
eta_n-close to either hypothesis class it stops and decides by the sign of
g1; otherwise it defers to time n^2 (or an earlier cap, never before n)
where a fixed-length rule with n-weighted sequential blocks (g_n) decides.
"""

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import divergence as dv
from .exponents import g1
from .optimizer import SearchConfig
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


#: each setup's blocks in setup order and `ell`, how many of them lead as
#: fixed-length: Semi1 fixes the training sequences, Semi2 the testing one,
#: FullySeq none and FixedLength all three
LAYOUTS = {
    SetupKind.FixedLength: (("x", "t0", "t1"), 3),
    SetupKind.Semi1: (("t0", "t1", "x"), 2),
    SetupKind.Semi2: (("x", "t0", "t1"), 1),
    SetupKind.FullySeq: (("t0", "t1", "x"), 0),
}


@dataclass(frozen=True)
class HypothesisModel:
    """A setup's row of LAYOUTS on an instance, and the solver of its g1."""

    inst: object
    blocks: tuple
    ell: int
    solver: SearchConfig

    @property
    def alphas(self):
        """The samples each block draws per time step: X 1, T0 alpha, T1 beta."""
        ratio = {"x": 1.0, "t0": self.inst.alpha, "t1": self.inst.beta}
        return tuple(ratio[b] for b in self.blocks)

    def laws(self, theta):
        """The law of each block in setup order when X ~ P_theta."""
        law = {"t0": self.inst.p0, "t1": self.inst.p1, "x": self.inst.p1 if theta else self.inst.p0}
        return tuple(law[b] for b in self.blocks)

    def unpack(self, tup):
        """The (T0, T1, X) entries of a tuple given in setup order."""
        return tuple(tup[self.blocks.index(b)] for b in ("t0", "t1", "x"))


def make_model(setup, inst, solver=SearchConfig()):
    return HypothesisModel(inst, *LAYOUTS[setup], solver)


def stream_sizes(model, n, late_cap=None):
    """How many samples of each block a trial reads.

    Returns (early, late, tau, capped): the per-block counts in setup order
    read at time n - 1 and at the late time tau, which is n^2, or late_cap
    when that is smaller (then capped is True).  At time t a fixed block
    has ceil(alpha_i * n) samples and a sequential one ceil(alpha_i * t).
    The late time follows the early one: a tau before n raises ValueError,
    so a trial stopped at n - 1 exactly when it stopped early, and every
    block reads at least its early samples.  A layout with no sequential
    block (FixedLength) decides once, at time n: its late counts are its
    early ones, tau is n and capped is False, whatever late_cap is.
    """
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    tau, capped = n * n, False
    if model.ell == len(model.blocks):
        tau = n
    elif late_cap is not None and late_cap < tau:
        if late_cap < n:
            raise ValueError(f"stream exhausted: late_cap {late_cap} ends the late phase before n = {n}")
        tau, capped = late_cap, True

    def counts(t):
        return tuple(math.ceil(a * (n if i < model.ell else t)) for i, a in enumerate(model.alphas))

    return counts(n - 1), counts(tau), tau, capped


def early_phase(tup, n, model):
    """The early-phase rule at time n-1 over a tuple of (T, d) type stacks
    in setup order.  Returns (stop, decision), two length-T arrays.

    A row stops when it lies eta_n-close to either hypothesis class: the
    GJS distance of (T0, X) is below eta_n (H0) or that of (T1, X) is (H1).
    Inside the H1-typical shell the sign of g1 decides (overlaps with the
    H0 shell resolve by the sign as well); in the H0 shell alone the
    decision is 0.  Every rule is scored on the whole chunk, each row from
    its own types, so a row's stop and decision do not depend on the rest
    of its chunk.
    """
    inst = model.inst
    t0, t1, x = model.unpack(tup)
    eta = eta_n(n, inst.alpha, inst.beta, inst.d)
    shell = dv.weighted_join(inst.beta, t1, 1.0, x) < eta
    stop = shell | (dv.weighted_join(inst.alpha, t0, 1.0, x) < eta)
    decision = np.where(shell & ~(g1(x, t0, t1, inst, model.solver) < 0), 1, 0)
    return stop, decision


def late_score(tup, n, model):
    """g_n of each row of a tuple of (T, d) type stacks in setup order: g1
    with the sequential blocks counted n-fold."""
    w0, w1, wx = model.unpack([a if i < model.ell else a * n for i, a in enumerate(model.alphas)])
    t0, t1, x = model.unpack(tup)
    return g1(x, t0, t1, model.inst, model.solver, weights=(wx, w0, w1))


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
    only when the early phase defers).  Returns a TestOutcome.  A layout
    with no sequential block (FixedLength) has no early phase: it is
    refused, and decided by late_phase at time n instead.
    """
    if model.ell == len(model.blocks):
        raise ValueError("no sequential block, so no early phase: decide by late_phase at time n")
    early, late, tau, capped = stream_sizes(model, n, late_cap)
    d = model.inst.d
    stop, decision = early_phase(_types(streams, early, d), n, model)
    if stop[0]:
        return TestOutcome(decision=int(decision[0]), tau=n - 1, phase="early")
    decision = late_phase(_types(streams, late, d), n, model)
    return TestOutcome(decision=int(decision[0]), tau=tau, phase="late", capped=capped)
