"""Segmentation search: finding the recursion points of a term (§3.1.2).

A *segmentation* of an input term ``t`` is a set ``R`` of positions --
the recursion points, "places in the recurrence body where it invokes
itself".  The unfolding points of ``t`` are derived by repeatedly
unrolling the recurrence at its recursion points; ``R`` is valid when
every derived unfolding point either terminates (a ``NULL`` or an
un-expanded node) or again matches the skeleton of the hypothetical
recurrence body (the paper's ``tskel <= u`` relation):

* ``0 <= u``   if ``u`` contains NULL or un-expanded nodes,
* ``x <= u``   if ``u`` does not contain NULL or un-expanded nodes
  (and, since predicate parameters must be *names* of heap locations,
  ``u`` is a name term or an already-folded predicate instance),
* ``f(s1..sn) <= f(u1..un)`` if ``si <= ui`` for all i.

Recursion points are direct children of the root, positions of length
one.  The assembler (:mod:`repro.synthesis.synthesize`) makes each one
a recursive call on a field of the predicate body; a point deeper down
would need a multi-level recurrence body, which it cannot express, so
searching such points only delays the first segmentation that builds.

The paper's Figure 5 walks the candidates left to right, preferring to
accept a potential recursion point and backtracking when the
segmentation fails to validate.  We implement the same search order as
a full backtracking generator (so a caller can also reject a
segmentation later -- e.g. when no consistent parameter substitution
exists -- and resume the search), which subsumes the paper's
modifications "to determine when NULL nodes are not unfolding points":
a NULL accepted too eagerly simply fails validation once the real
recursion points are considered, and the search moves on.

To guarantee that the recurrence is actually exercised (Summers'
two-example requirement; the paper symbolically executes two loop
iterations for the same reason), a valid segmentation must derive at
least one *non-terminal* unfolding point.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator
from dataclasses import dataclass
from itertools import compress, product

from repro.synthesis.terms import (
    HOLE,
    Hole,
    NameTerm,
    NullTerm,
    PredTerm,
    StarTerm,
    Term,
    VarTerm,
    children,
    contains_terminal,
    is_terminal,
)

__all__ = ["Segmentation", "find_segmentations", "make_skeleton", "skeleton_matches"]

Position = tuple[int, ...]


@dataclass(frozen=True)
class Segmentation:
    """A validated segmentation of an input term.

    ``segments`` maps the position of each non-terminal unfolding point
    (including the root, at position ``()``) to its *segment*: the
    subterm with the sub-structures at the recursion points replaced by
    holes.  ``pairs`` lists the parent/child unfoldings actually
    witnessed in the term: ``(parent_pos, recursion_index, child_pos)``.
    ``folded_tails`` lists unfolding points that are already-folded
    predicate instances (a recursion that continues below an earlier
    invariant) as ``(parent_pos, recursion_index, PredTerm)``.
    """

    recursion_points: tuple[Position, ...]
    skeleton: StarTerm
    segments: dict[Position, Term]
    pairs: tuple[tuple[Position, int, Position], ...]
    folded_tails: tuple[tuple[Position, int, PredTerm], ...] = ()

    @property
    def segment_order(self) -> list[Position]:
        return sorted(self.segments, key=lambda p: (len(p), p))


def _is_stop(node: Term) -> bool:
    """A place where the derivation of unfolding points stops: the base
    case (NULL), the frontier (un-expanded) or an already-folded
    sub-structure (a predicate instance)."""
    return is_terminal(node) or isinstance(node, PredTerm)


def _contains_stop(node: Term) -> bool:
    if _is_stop(node):
        return True
    if isinstance(node, NameTerm):
        return False
    return any(_contains_stop(c) for c in children(node))


def find_segmentations(
    term: Term, deadline_poll: Callable[[], None] | None = None
) -> Iterator[Segmentation]:
    """Yield valid segmentations of *term*, best-first.

    Recursion points are the root's own fields (positions of length
    one), as in the paper's Figure 5: the assembler turns each one into
    a recursive call on a field of the predicate body, and a point
    deeper down would need a multi-level recurrence body it cannot
    express.  The search is therefore exponential only in the root's
    field count, not in the size of the term.

    The order follows the paper: candidates are considered left to
    right, accepting a candidate is preferred over skipping it, so the
    first yielded segmentation accepts the leftmost candidates it can
    (the minimal recurrence).  *deadline_poll* (which raises
    once the run's deadline has passed) is called before every
    candidate validation."""
    if not isinstance(term, StarTerm) or term.is_unexpanded:
        return
    candidates = [
        (i,)
        for i, target in enumerate(term.targets)
        if _is_potential(term, target)
    ]
    # Accept-first preorder is the lexicographic order with True < False;
    # the last pick, the empty subset, segments nothing.
    for picks in product((True, False), repeat=len(candidates)):
        chosen = tuple(compress(candidates, picks))
        if not chosen:
            return
        if deadline_poll is not None:
            deadline_poll()
        result = _validate(term, chosen)
        if result is not None:
            yield result


def _is_potential(term: StarTerm, node: Term) -> bool:
    """``is_potential_recursion_point`` of Figure 5, for a field target
    *node* of the root *term*."""
    if isinstance(node, (NullTerm, PredTerm)):
        return True
    if isinstance(node, StarTerm):
        if node.is_unexpanded:
            return True
        return node.fields == term.fields and _contains_stop(node)
    return False


def make_skeleton(term: StarTerm, recursion_points: tuple[Position, ...]) -> StarTerm:
    """The minimal pattern of *term* reaching all recursion points.

    Recursion points become holes; every other field target is replaced
    by a variable."""
    counter = 0
    targets: list[Term] = []
    for i in range(len(term.targets)):
        if (i,) in recursion_points:
            targets.append(HOLE)
        else:
            counter += 1
            targets.append(VarTerm(counter))
    return StarTerm(term.fields, tuple(targets), loc=None)


def skeleton_matches(skeleton: StarTerm, node: Term) -> bool:
    """The paper's ``tskel <= u`` relation."""
    if not isinstance(node, StarTerm) or skeleton.fields != node.fields:
        return False
    for pattern, target in zip(skeleton.targets, node.targets):
        if isinstance(pattern, Hole):
            if not _contains_stop(target):
                return False
        # Parameters must be translated names of heap locations (or
        # already-folded sub-structures, which become nested calls).
        elif contains_terminal(target) or not isinstance(
            target, (NameTerm, PredTerm)
        ):
            return False
    return True


def _make_segment(node: StarTerm, recursion_points: tuple[Position, ...]) -> StarTerm:
    """*node* with the subtrees at the recursion points cut to holes."""
    return StarTerm(
        node.fields,
        tuple(
            HOLE if (i,) in recursion_points else target
            for i, target in enumerate(node.targets)
        ),
        loc=node.loc,
    )


def _validate(term: StarTerm, recursion_points: tuple[Position, ...]) -> Segmentation | None:
    """Full validity check; builds the segmentation artifacts."""
    skeleton = make_skeleton(term, recursion_points)
    # The root's own parameter positions must hold legal parameter
    # instantiations (names or null -- e.g. mcf_tree(h, null, null)).
    if not all(
        isinstance(target, (NameTerm, NullTerm, PredTerm))
        for pattern, target in zip(skeleton.targets, term.targets)
        if isinstance(pattern, VarTerm)
    ):
        return None
    segments: dict[Position, Term] = {}
    pairs: list[tuple[Position, int, Position]] = []
    folded_tails: list[tuple[Position, int, PredTerm]] = []

    def walk(pos: Position, node: StarTerm) -> bool:
        segments[pos] = _make_segment(node, recursion_points)
        for index, (field_index,) in enumerate(recursion_points):
            child = node.targets[field_index]
            if is_terminal(child):
                continue
            if isinstance(child, PredTerm):
                folded_tails.append((pos, index, child))
                continue
            if not skeleton_matches(skeleton, child):
                return False
            child_pos = pos + (field_index,)
            pairs.append((pos, index, child_pos))
            if not walk(child_pos, child):
                return False
        return True

    if not walk((), term):
        return None
    if not pairs and not folded_tails:
        return None  # the recurrence was never seen to repeat
    return Segmentation(
        recursion_points,
        skeleton,
        segments,
        tuple(pairs),
        tuple(folded_tails),
    )
