"""Closed-form labelers for the three pendant families.

Each scheme is a table: SCHEMES[number](a, m, q) gives, at size a (n or k),
m pendants per vertex and q edges, the scheme's notes, literal rows and
repairs.  A row is (class, pendant, indices, label): label(i, j) labels
class_i, or its pendant j for j = 1..m when pendant is true, for i in the
ascending range indices.  For fixed j it is an arithmetic progression in i,
so one interpreter assigns each row and j with one slice.  repairs maps the
name of the row a repair replaces to (note, row).

The formulas are written as the paper writes them and used exactly as
declared, on exactly the declared ranges, because the point of these
labelers is auditing the formulas rather than making them work.  A vertex
the ranges leave without a formula is reported as uncovered, not given a
guessed value, and every judgment call made while binding formulas to vertex
classes is recorded as a note.  The literal schemes have genuine defects
beyond their small verified instances; apply_repairs quarantines conjectured
corrections for the hole- and typo-class ones, and records a repair's note
when it changes a label or labels a vertex the literal rows leave out (the
text may name those indices as {i}).  Labelers never verify their own
output, callers run verify_odd_graceful as a separate step.

Labelers build no graph: q and every vertex id come from the graphs.IdOrder
that graphs.theorem_order checks, the canonical id order of the builders.
Each labeling is a list indexed by those ids; an uncovered vertex keeps None.
"""

from __future__ import annotations

from itertools import compress, count, islice
from operator import ne
from typing import NamedTuple, Tuple

from .canon import canonical_dumps
from .graphs import IdOrder, theorem_order
from .labeling import Labeling


class FormulaInterpretation(NamedTuple):
    """Ledger attached to a labeler output: which reading was applied per
    ambiguous formula, and which vertices the declared ranges never cover."""

    notes: Tuple[Tuple[str, str], ...] = ()
    uncovered: Tuple[str, ...] = ()

    def to_json(self) -> str:
        return canonical_dumps(self._asdict())  # tuples become arrays


def _scheme1(n, m, q):
    notes = (("t1.v-pendant-base-row",
              "the v-pendant row 2j-1 carries no index range; it binds to "
              "i=1, the only v-pendant row otherwise unassigned (odd rows "
              "start at i=3)"),)
    odd, even = range(1, n + 1, 2), range(2, n + 1, 2)
    return notes, {
        "v odd": ("v", False, odd, lambda i, j: i - 1),
        "u odd": ("u", False, odd, lambda i, j: 2*q - i - 2*n + 2),
        "v even": ("v", False, even, lambda i, j: 2*q - i + 1),
        "u even": ("u", False, even, lambda i, j: 2*n + i - 2),
        "v-pendants i=1": ("v", True, range(1, 2), lambda i, j: 2*j - 1),
        "v-pendants odd": ("v", True, range(3, n + 1, 2),
                           lambda i, j: 2*m*(i - 1) + 2*j + 1),
        "v-pendants even": ("v", True, even, lambda i, j:
                            2*q - (2*m + 1)*i - 2*j + 2*m + 2),
        "u-pendants odd": ("u", True, odd, lambda i, j:
                           2*q - (2*m + 1)*i - 2*j - (2*m + 2)*n + 2*m + 3),
        "u-pendants even": ("u", True, even, lambda i, j:
                            2*q + (2*m + 1)*i + 2*j - (2*m + 4)*n - 2*m + 1),
    }, {
        "v-pendants odd": (
            ("t1.repair.v-odd-row",
             "conjectured repair applied: odd-index v-pendant row replaced "
             "by (2m+1)i + 2j - 2m - 2, which matches the declared row at "
             "i=3 and the base row at i=1 but avoids the edge-label "
             "collision at i >= 5"),
            ("v", True, range(3, n + 1, 2),
             lambda i, j: (2*m + 1)*i + 2*j - 2*m - 2)),
    }


def _scheme2(n, m, q):
    notes = (("t2.rung-midpoints",
              "rung midpoints exist only at odd path positions 2j-1; w is "
              "indexed 1..n across them, matching the w label rows and the "
              "vertex/edge counts"),)
    # the side paths run to 2n-1, the rung midpoints w to n
    odd, even, w = range(1, 2 * n, 2), range(2, 2 * n, 2), range(1, n + 1)
    return notes, {
        "v odd": ("v", False, odd, lambda i, j: i - 1),
        "u odd": ("u", False, odd, lambda i, j: i + 2*n - 1),
        "v even": ("v", False, even, lambda i, j: 2*q - i + 1),
        "u even": ("u", False, even, lambda i, j: 2*q - i - 6*n + 5),
        "v-pendants odd": ("v", True, odd,
                           lambda i, j: (2*m + 1)*i + 2*j - 2*m - 2),
        "u-pendants odd": ("u", True, odd, lambda i, j:
                           2*q + (2*m + 1)*i + 2*j - (4*m + 10)*n + 6),
        "v-pendants even": ("v", True, even, lambda i, j:
                            2*q - (2*m + 1)*i - 2*j + 2*m + 2),
        "u-pendants even": ("u", True, even, lambda i, j:
                            q - (2*m + 1)*i - 2*j - m*n + 2*m + 2),
        "w": ("w", False, w, lambda i, j: 2*q - 1 - 4*n + 4*(i - 1)),
        "w-pendants": ("w", True, w, lambda i, j:
                       2*q + (2*m + 4)*i + 2*j - (6*m + 6)*n),
    }, {
        "w": (("t2.repair.w-row",
               "conjectured repair applied: w row replaced by "
               "2q - 6n + 4i + 1, which matches the declared row at n=3 but "
               "keeps rung edge labels in their own block for every n"),
              ("w", False, w, lambda i, j: 2*q - 6*n + 4*i + 1)),
    }


def _scheme3(k, m, q):
    # scheme 3 names the pendant index l; its two parity brackets label the
    # interior u-pendants and, read as y-pendant rows, the interior
    # y-pendants, with one offset where i has k's parity and one elsewhere
    block = range(1, k + 1)
    u_same, u_mixed = range(2 + k % 2, k + 1, 2), range(3 - k % 2, k + 1, 2)

    def u_bracket(i, l):
        return (q + (2*m + 2)*i - (3*m + 4)*k - m - 2*l
                + (-1 if (i - k) % 2 == 0 else 1))

    def y_bracket(i, l):
        return (q - (2*m + 2)*i + (k + 1)*m - 2*l
                + (2 if (i - k) % 2 == 0 else 0))

    notes = (("t3.same-function", "phi and f denote the same labeling map"),
             ("t3.u-pendant-base-row",
              "the u-pendant row 2l+1 binds to u1 (the parent labeled 0)"),
             ("t3.y-pendant-tail-row",
              "the y-pendant row that is constant in i binds to y_k"),
             ("t3.y-bracket-reinterpretation",
              "the second parity bracket is read as y-pendant rows; "
              "v-pendants already have a dedicated row and the edge-range "
              "list only mentions y-pendants for interior indices"))
    return notes, {
        "u": ("u", False, range(1, k + 2), lambda i, l: (4*m + 4)*(i - 1)),
        "w": ("w", False, block, lambda i, l: (4*m + 4)*i - 2*m - 2),
        "v": ("v", False, block, lambda i, l: 2*q - (2*m + 4)*i + 2*m + 3),
        "z": ("z", False, block, lambda i, l: 2*q - (2*m + 4)*i + 1),
        "y": ("y", False, block, lambda i, l: (4*m + 4)*(k - i) + 4*m + 3),
        "w-pendants": ("w", True, block, lambda i, l:
                       2*q - (2*m + 4)*i - 2*l + 2*m + 3),
        "v-pendants": ("v", True, block,
                       lambda i, l: (4*m + 4)*i + 2*l - 4*m - 4),
        "z-pendants": ("z", True, block,
                       lambda i, l: (4*m + 4)*i + 2*l - 2*m - 2),
        "u1-pendants": ("u", True, range(1, 2), lambda i, l: 2*l + 1),
        "u(k+1)-pendants": ("u", True, range(k + 1, k + 2), lambda i, l:
                            2*q - 2*l - (2*m + 4)*(k + 1) + 2*m + 5),
        "y_k-pendants": ("y", True, range(k, k + 1), lambda i, l:
                         2*q - 2*l - (2*m + 4)*k - 2*m - 2),
        "u-pendants, i = k mod 2": ("u", True, u_same, u_bracket),
        "u-pendants, i != k mod 2": ("u", True, u_mixed, u_bracket),
        "y-pendants odd": ("y", True, range(3, k, 2) if k % 2 == 0
                           else range(3, k - 2, 2), y_bracket),
        "y-pendants even": ("y", True, range(2, k - 1, 2) if k % 2 == 0
                            else range(2, k, 2), y_bracket),
    }, {
        "y-pendants odd": (
            ("t3.repair.y-odd-rows",
             "conjectured repair applied: odd-index y-pendant rows extended "
             "to cover i in {i}"),
            ("y", True, range(1, k - k % 2, 2), y_bracket)),
    }


SCHEMES = {1: _scheme1, 2: _scheme2, 3: _scheme3}


def _row_slices(order: IdOrder, row):
    """(ids, indices, labels) for each pendant index j of a row: ids a slice
    of the labeling, and labels the row's progression, from its formula
    evaluated at the first index and the one after it."""
    letter, pendant, indices, label = row
    for j in range(1, order.m + 1) if pendant else (0,):
        ids = order.ids(letter, indices, j)
        first = label(indices.start, j)
        step = label(indices.start + indices.step, j) - first
        yield (slice(ids.start, ids.stop, ids.step), indices,
               list(islice(count(first, step), len(indices))))


def _label(number: int, a: int, m: int, apply_repairs: bool,
           ) -> Tuple[Labeling, FormulaInterpretation]:
    """Scheme `number`'s labeling at size a with m pendants per vertex, read
    off its table: the literal rows, then the repairs over them."""
    order = theorem_order(number, a, m)
    notes, rows, repairs = SCHEMES[number](a, m, order.q)
    lab: Labeling = [None] * order.p
    for row in rows.values():
        for ids, _, labels in _row_slices(order, row):
            lab[ids] = labels
    notes = list(notes)
    for (fid, text), row in repairs.values() if apply_repairs else ():
        changed = set()
        for ids, indices, labels in _row_slices(order, row):
            old = lab[ids]
            if old != labels:
                changed.update(compress(indices, map(ne, old, labels)))
                lab[ids] = labels
        if changed:
            notes.append((fid, text.format(i=sorted(changed))))
    uncovered = (tuple(order[v] for v, x in enumerate(lab) if x is None)
                 if None in lab else ())
    return lab, FormulaInterpretation(tuple(notes), uncovered)


def label_theorem1(n: int, m: int, apply_repairs: bool = False,
                   ) -> Tuple[Labeling, FormulaInterpretation]:
    """Closed-form labeling of the pendant ladder (scheme 1).

    Covers every vertex.  The declared odd-index v-pendant row duplicates an
    even-row edge label once i reaches 5; apply_repairs replaces it.
    """
    return _label(1, n, m, apply_repairs)


def label_theorem2(n: int, m: int, apply_repairs: bool = False,
                   ) -> Tuple[Labeling, FormulaInterpretation]:
    """Closed-form labeling of the pendant subdivided ladder (scheme 2).

    Covers every vertex.  The declared w row makes w1 collide with u2 (both
    2q-9) at n=2 and w_n collide with v6 (both 2q-5) for n >= 4;
    apply_repairs replaces it with a row that coincides with it exactly at
    n=3.
    """
    return _label(2, n, m, apply_repairs)


def label_theorem3(k: int, m: int, apply_repairs: bool = False,
                   ) -> Tuple[Labeling, FormulaInterpretation]:
    """Closed-form labeling of the pendant subdivided snake (scheme 3).

    For k >= 2 the declared y ranges leave the y1-pendants (and for odd
    k >= 5 the y(k-2)-pendants) unassigned; those appear in uncovered
    rather than receiving an invented value.  apply_repairs extends the
    odd-index y rows over them, so coverage becomes total, but does not
    resolve the value collisions that keep k >= 2 failing verification.
    """
    return _label(3, k, m, apply_repairs)
