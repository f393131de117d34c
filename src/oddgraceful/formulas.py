"""Closed-form labelers for the three pendant families.

Each labeler applies a fixed set of per-class arithmetic label formulas over
declared index ranges.  The transcription is literal: formulas are used
exactly as declared, on exactly the declared ranges, because the point of
these labelers is auditing the formulas rather than making them work.  Where
the ranges leave a vertex without a formula, that vertex is reported as
uncovered instead of being assigned a guessed value; every judgment call
made while binding formulas to vertex classes is recorded as a note.

The literal schemes contain genuine defects beyond their small verified
instances (scheme 1 duplicates pendant edge labels once n >= 5, scheme 2
collides w_n with v_6 once n >= 4 and u_2 with w_1 at n = 2, scheme 3 leaves
y-pendants uncovered and collides edge labels for k >= 2).  apply_repairs
quarantines conjectured corrections for the hole- and typo-class defects;
each applied repair is recorded as a note.  Labelers never verify their own
output, callers run verify_odd_graceful as a separate step.

Labelers build no graph: q comes from each family's closed form and vertex
ids from the canonical id order of build_theorem1/2/3 (see graphs.py), with
pendant j of the vertex with id x at P0 + x*m + j - 1, where P0 is the
number of skeleton vertices.  Each labeling is a list of length
p = P0*(m+1) indexed by those ids; an uncovered vertex keeps None.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Tuple

from .canon import canonical_dumps
from .graphs import check_theorem_domain, pendant, theorem_q
from .labeling import Labeling


@dataclass(frozen=True)
class FormulaInterpretation:
    """Ledger attached to a labeler output: which reading was applied per
    ambiguous formula, and which vertices the declared ranges never cover."""

    notes: Tuple[Tuple[str, str], ...] = ()
    uncovered: Tuple[str, ...] = ()

    def to_json_obj(self) -> dict:
        return {
            "notes": [[fid, text] for fid, text in self.notes],
            "uncovered": list(self.uncovered),
        }

    def to_json(self) -> str:
        return canonical_dumps(self.to_json_obj())


_NOTE_T1_V_BASE = (
    "t1.v-pendant-base-row",
    "the v-pendant row 2j-1 carries no index range; it binds to i=1, the only "
    "v-pendant row otherwise unassigned (odd rows start at i=3)",
)
_NOTE_T1_REPAIR = (
    "t1.repair.v-odd-row",
    "conjectured repair applied: odd-index v-pendant row replaced by "
    "(2m+1)i + 2j - 2m - 2, which matches the declared row at i=3 and the "
    "base row at i=1 but avoids the edge-label collision at i >= 5",
)
_NOTE_T2_RUNGS = (
    "t2.rung-midpoints",
    "rung midpoints exist only at odd path positions 2j-1; w is indexed 1..n "
    "across them, matching the w label rows and the vertex/edge counts",
)
_NOTE_T2_REPAIR = (
    "t2.repair.w-row",
    "conjectured repair applied: w row replaced by 2q - 6n + 4i + 1, which "
    "matches the declared row at n=3 but keeps rung edge labels in their own "
    "block for every n",
)
_NOTE_T3_SAME_FN = (
    "t3.same-function",
    "phi and f denote the same labeling map",
)
_NOTE_T3_U_BASE = (
    "t3.u-pendant-base-row",
    "the u-pendant row 2l+1 binds to u1 (the parent labeled 0)",
)
_NOTE_T3_Y_TAIL = (
    "t3.y-pendant-tail-row",
    "the y-pendant row that is constant in i binds to y_k",
)
_NOTE_T3_Y_BRACKET = (
    "t3.y-bracket-reinterpretation",
    "the second parity bracket is read as y-pendant rows; v-pendants already "
    "have a dedicated row and the edge-range list only mentions y-pendants "
    "for interior indices",
)


def label_theorem1(n: int, m: int, apply_repairs: bool = False,
                   ) -> Tuple[Labeling, FormulaInterpretation]:
    """Closed-form labeling of the pendant ladder (scheme 1).

    Covers every vertex; the only judgment call is the v-pendant base row.
    The declared odd-index v-pendant row 2m(i-1) + 2j + 1 duplicates an
    even-row edge label once i reaches 5; apply_repairs swaps it for the
    conjectured row (2m+1)i + 2j - 2m - 2.
    """
    check_theorem_domain(1, n, m)
    q = theorem_q(1, n, m)
    p0 = 2 * n
    lab: Labeling = [None] * (p0 * (m + 1))
    repaired = False

    for i in range(1, n + 1):
        u, v = i - 1, n + i - 1
        if i % 2 == 1:
            lab[v] = i - 1
            lab[u] = 2 * q - i - 2 * n + 2
        else:
            lab[v] = 2 * q - i + 1
            lab[u] = 2 * n + i - 2
        pu0, pv0 = p0 + u * m - 1, p0 + v * m - 1  # pendant j: pu0 + j
        for j in range(1, m + 1):
            if i == 1:
                pv = 2 * j - 1
            elif i % 2 == 1:
                if apply_repairs:
                    pv = (2 * m + 1) * i + 2 * j - 2 * m - 2
                    repaired = repaired or i >= 5
                else:
                    pv = 2 * m * (i - 1) + 2 * j + 1
            else:
                pv = 2 * q - (2 * m + 1) * i - 2 * j + 2 * m + 2
            lab[pv0 + j] = pv
            if i % 2 == 1:
                pu = 2 * q - (2 * m + 1) * i - 2 * j - (2 * m + 2) * n + 2 * m + 3
            else:
                pu = 2 * q + (2 * m + 1) * i + 2 * j - (2 * m + 4) * n - 2 * m + 1
            lab[pu0 + j] = pu

    notes = [_NOTE_T1_V_BASE]
    if repaired:
        notes.append(_NOTE_T1_REPAIR)
    return lab, FormulaInterpretation(notes=tuple(notes))


def label_theorem2(n: int, m: int, apply_repairs: bool = False,
                   ) -> Tuple[Labeling, FormulaInterpretation]:
    """Closed-form labeling of the pendant subdivided ladder (scheme 2).

    Covers every vertex.  Returned even when it will fail verification: the
    declared w row 2q - 1 - 4n + 4(i-1) makes w1 collide with u2 (both
    2q-9) at n=2 and w_n collide with v6 (both 2q-5) for n >= 4.
    apply_repairs swaps it for the conjectured row 2q - 6n + 4i + 1, which
    coincides with the declared row exactly at n=3.
    """
    check_theorem_domain(2, n, m)
    q = theorem_q(2, n, m)
    side = 2 * n - 1
    p0 = 5 * n - 2
    lab: Labeling = [None] * (p0 * (m + 1))

    for i in range(1, side + 1):
        u, v = i - 1, side + i - 1
        if i % 2 == 1:
            lab[v] = i - 1
            lab[u] = i + 2 * n - 1
        else:
            lab[v] = 2 * q - i + 1
            lab[u] = 2 * q - i - 6 * n + 5
        pu0, pv0 = p0 + u * m - 1, p0 + v * m - 1  # pendant j: pu0 + j
        for j in range(1, m + 1):
            if i % 2 == 1:
                pv = (2 * m + 1) * i + 2 * j - 2 * m - 2
                pu = 2 * q + (2 * m + 1) * i + 2 * j - (4 * m + 10) * n + 6
            else:
                pv = 2 * q - (2 * m + 1) * i - 2 * j + 2 * m + 2
                pu = q - (2 * m + 1) * i - 2 * j - m * n + 2 * m + 2
            lab[pv0 + j] = pv
            lab[pu0 + j] = pu

    for i in range(1, n + 1):
        w = 2 * side + i - 1
        if apply_repairs:
            lab[w] = 2 * q - 6 * n + 4 * i + 1
        else:
            lab[w] = 2 * q - 1 - 4 * n + 4 * (i - 1)
        pw0 = p0 + w * m - 1
        for j in range(1, m + 1):
            lab[pw0 + j] = 2 * q + (2 * m + 4) * i + 2 * j - (6 * m + 6) * n

    notes = [_NOTE_T2_RUNGS]
    if apply_repairs and n != 3:  # at n=3 the two w rows coincide
        notes.append(_NOTE_T2_REPAIR)
    return lab, FormulaInterpretation(notes=tuple(notes))


def _theorem3_y_row(q: int, k: int, m: int, i: int, l: int):
    """Value of the interior y-pendant bracket at (i, l), or None when the
    declared ranges do not cover i."""
    base = q - (2 * m + 2) * i + (k + 1) * m - 2 * l
    if k % 2 == 0:
        if i % 2 == 0 and 2 <= i <= k - 2:
            return base + 2
        if i % 2 == 1 and 2 <= i <= k - 1:
            return base
    else:
        if i % 2 == 0 and 2 <= i <= k - 1:
            return base
        if i % 2 == 1 and 2 <= i <= k - 3:
            return base + 2
    return None


def label_theorem3(k: int, m: int, apply_repairs: bool = False,
                   ) -> Tuple[Labeling, FormulaInterpretation]:
    """Closed-form labeling of the pendant subdivided snake (scheme 3).

    Skeleton rows and the pendant rows for u1, u(k+1), y_k, w, v, z cover
    their classes verbatim.  Interior u-pendants come from the parity
    bracket; interior y-pendants come from the second parity bracket (whose
    printed head names v-pendants, reinterpreted per the notes).  For k >= 2
    the declared y ranges always leave y1-pendants (and for some odd k
    further odd-index y-pendants) unassigned; those appear in uncovered
    rather than receiving an invented value.

    apply_repairs extends the odd-index y rows downward to i=1 (and up to
    i=k-2 for odd k) so coverage becomes total.  Repairs only fill holes;
    they never touch covered rows and do not resolve the value collisions
    between covered rows that keep k >= 2 failing verification.
    """
    check_theorem_domain(3, k, m)
    q = theorem_q(3, k, m)
    p0 = 5 * k + 1
    lab: Labeling = [None] * (p0 * (m + 1))
    a4 = 4 * m + 4
    b = 2 * m + 4

    def pendants(x):  # pendant l of the vertex with id x is pendants(x) + l
        return p0 + x * m - 1

    # ids: u_i = i-1, v_i = k+i, w_i = 2k+i, y_i = 3k+i, z_i = 4k+i
    for i in range(1, k + 2):
        lab[i - 1] = a4 * (i - 1)
    for i in range(1, k + 1):
        v, w, y, z = k + i, 2 * k + i, 3 * k + i, 4 * k + i
        lab[w] = a4 * i - 2 * m - 2
        lab[v] = 2 * q - b * i + 2 * m + 3
        lab[z] = 2 * q - b * i + 1
        lab[y] = a4 * k - a4 * i + 4 * m + 3

    for i in range(1, k + 1):
        pw0, pv0 = pendants(2 * k + i), pendants(k + i)
        pz0 = pendants(4 * k + i)
        for l in range(1, m + 1):
            lab[pw0 + l] = 2 * q - b * i - 2 * l + 2 * m + 3
            lab[pv0 + l] = a4 * i + 2 * l - 4 * m - 4
            lab[pz0 + l] = a4 * i + 2 * l - 2 * m - 2

    # pendants of u1, u(k+1) and y_k
    pu1, puk1, pyk = pendants(0), pendants(k), pendants(4 * k)
    for l in range(1, m + 1):
        lab[pu1 + l] = 2 * l + 1
        lab[puk1 + l] = 2 * q - 2 * l - b * (k + 1) + 2 * m + 5
        lab[pyk + l] = 2 * q - 2 * l - b * k - 2 * m - 2

    # interior u-pendants: same-parity (i, k) rows carry -m-1, mixed -m+1
    for i in range(2, k + 1):
        head = q + (2 * m + 2) * i - (3 * m + 4) * k - m
        delta = -1 if (i - k) % 2 == 0 else 1
        pu0 = pendants(i - 1)
        for l in range(1, m + 1):
            lab[pu0 + l] = head - 2 * l + delta

    uncovered = []
    repaired = []
    for i in range(1, k):  # interior y indices; y_k already assigned
        py0 = pendants(3 * k + i)
        if _theorem3_y_row(q, k, m, i, 1) is not None:
            for l in range(1, m + 1):
                lab[py0 + l] = _theorem3_y_row(q, k, m, i, l)
            continue
        repair_top = k - 1 if k % 2 == 0 else k - 2
        if apply_repairs and i % 2 == 1 and i <= repair_top:
            base_bump = 0 if k % 2 == 0 else 2
            for l in range(1, m + 1):
                lab[py0 + l] = (
                    q - (2 * m + 2) * i + (k + 1) * m - 2 * l + base_bump)
            repaired.append(i)
        else:
            for l in range(1, m + 1):
                uncovered.append(pendant(f"y{i}", l))

    notes = [_NOTE_T3_SAME_FN, _NOTE_T3_U_BASE, _NOTE_T3_Y_TAIL,
             _NOTE_T3_Y_BRACKET]
    if repaired:
        notes.append((
            "t3.repair.y-odd-rows",
            "conjectured repair applied: odd-index y-pendant rows extended "
            f"to cover i in {repaired}",
        ))
    return lab, FormulaInterpretation(notes=tuple(notes),
                                      uncovered=tuple(uncovered))
