"""Penultimate-cell combinatorics and the first-extension predictor in type A.

For W = S_n the elements just below the longest cell are w_{i,j}, indexed by
a left/right ascent pair.  Bigrassmannian elements with a fixed descent pair
(i, j) form a Bruhat chain of length 1 + q_{i,j}, matching the graded
occurrences of the corresponding penultimate simple inside the dominant
Verma module.  Walking that dictionary through Bruhat-maximal bigrassmannians
below a fixed w predicts concrete nonzero first extensions, including ones
off the expected edge; in S4 the predictor must never flag an additional one.
"""

from __future__ import annotations

from dataclasses import dataclass

from .coxeter import CoxeterSystem


def _require_type_a(system: CoxeterSystem) -> int:
    """The symmetric group degree n for a type A system."""
    if not system.type_label.startswith("A"):
        raise ValueError("type A only; got %s" % system.type_label)
    return system.rank + 1


@dataclass(frozen=True)
class PenultimateIndex:
    """The elements and multiplicity count attached to a descent pair (i, j)."""

    n: int
    i: int
    j: int
    w_hat: int   # bigrassmannian with left descent s_i, right descent s_j
    w_pen: int   # penultimate-cell element w_hat_{i,n-j} * w0
    q: int


def w_hat(system: CoxeterSystem, i: int, j: int) -> int:
    """The bigrassmannian s_i s_{i-1} .. s_j (j <= i) or s_i s_{i+1} .. s_j."""
    n = _require_type_a(system)
    if not (1 <= i <= n - 1 and 1 <= j <= n - 1):
        raise ValueError("indices must lie in 1..n-1")
    step = -1 if j <= i else 1
    word = [k - 1 for k in range(i, j + step, step)]
    return system.from_word(word)


def penultimate_element(system: CoxeterSystem, i: int, j: int) -> PenultimateIndex:
    n = _require_type_a(system)
    hat = w_hat(system, i, j)  # checks the indices
    pen = system.mult(w_hat(system, i, n - j), system.w0)
    q = min(n - 1 - i, n - 1 - j, i - 1, j - 1)
    return PenultimateIndex(n, i, j, hat, pen, q)


def bigrassmannian_chain(system: CoxeterSystem, i: int, j: int) -> list[int]:
    """All bigrassmannians with left descent s_i and right descent s_j,
    sorted by length; they are totally ordered by Bruhat order and there are
    exactly 1 + q_{i,j} of them, the smallest being w_hat."""
    _require_type_a(system)
    li, rj = i - 1, j - 1
    return [
        w
        for w in range(system.order)
        if system.left_descents(w) == frozenset([li])
        and system.right_descents(w) == frozenset([rj])
    ]


def phi_degree(system: CoxeterSystem, i: int, j: int, u: int) -> int:
    """Occurrence degree in the dominant Verma that the chain bijection
    assigns to the bigrassmannian u: the Bruhat-minimal element w_hat gets
    the minimal degree l(w_pen) - 2q and each Bruhat step adds 2."""
    pen = penultimate_element(system, i, j)
    chain = bigrassmannian_chain(system, i, j)
    if u not in chain:
        raise ValueError(
            "%s is not a bigrassmannian with descent pair (%d, %d)"
            % (system.word_name(u), i, j)
        )
    t = chain.index(u)  # 0-based position, Bruhat increasing
    return system.lengths[pen.w_pen] - 2 * pen.q + 2 * t


def bm_set(system: CoxeterSystem, w: int) -> list[int]:
    """Bruhat-maximal elements among the bigrassmannians below w, in index order."""
    _require_type_a(system)
    below = [u for u in system.bruhat_downset(w) if system.is_bigrassmannian(u)]
    return [
        u
        for u in below
        if not any(v != u and system.bruhat_leq(u, v) for v in below)
    ]


@dataclass(frozen=True)
class PredictionRecord:
    """One predicted nonzero first extension from a penultimate-cell Verma.

    degree is the occurrence degree assigned to the witness u; the internal
    shift of the predicted ext^1(pen<shift>, Delta_w) is l(w) - degree, and
    the prediction is expected exactly when -shift = l(w_pen) - l(w) - 2.
    """

    w: int
    witness: int
    i: int
    j: int
    w_pen: int
    degree: int
    shift: int
    expected: bool


def predict_ext1(system: CoxeterSystem, w: int) -> list[PredictionRecord]:
    """All first extensions forced by Bruhat-maximal bigrassmannians under w.

    Records with expected=False are certified additional extensions; none may
    occur in S4, where everything is expected.
    """
    records = []
    for u in bm_set(system, w):
        (li,) = system.left_descents(u)
        (rj,) = system.right_descents(u)
        i, j = li + 1, rj + 1
        pen = penultimate_element(system, i, j)
        if not system.bruhat_leq(w, pen.w_pen):
            continue
        degree = phi_degree(system, i, j, u)
        shift = system.lengths[w] - degree
        expected = (-shift == system.lengths[pen.w_pen] - system.lengths[w] - 2)
        records.append(
            PredictionRecord(
                w=w,
                witness=u,
                i=i,
                j=j,
                w_pen=pen.w_pen,
                degree=degree,
                shift=shift,
                expected=expected,
            )
        )
    records.sort(key=lambda r: (r.w_pen, r.degree))
    return records


def expected_ext1_shift(system: CoxeterSystem, w_pen: int, w: int) -> int:
    """Internal shift of the expected first extension for the pair."""
    return 2 - (system.lengths[w_pen] - system.lengths[w])
