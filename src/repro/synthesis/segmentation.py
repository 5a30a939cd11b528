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

The paper's Figure 5 walks the term left-to-right / top-to-bottom,
preferring to accept a potential recursion point and backtracking when
the segmentation fails to validate.  We implement the same search order
as a full backtracking generator (so a caller can also reject a
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
    positions,
    subterm,
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
    skeleton: Term
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

    The order follows the paper: candidates are considered in preorder,
    accepting a candidate is preferred over skipping it, so the first
    yielded segmentation has its recursion points as high and as far
    left as possible (the minimal recurrence).  The search is
    exponential in the candidate count, so *deadline_poll* (which raises
    once the run's deadline has passed) is called before every
    candidate validation."""
    if not isinstance(term, StarTerm) or term.is_unexpanded:
        return
    candidates = [p for p in positions(term) if p and _is_potential(term, p)]

    def search(index: int, chosen: list[Position]) -> Iterator[Segmentation]:
        if index == len(candidates):
            if chosen:
                if deadline_poll is not None:
                    deadline_poll()
                result = _validate(term, tuple(chosen))
                if result is not None:
                    yield result
            return
        pos = candidates[index]
        if any(_is_position_prefix(r, pos) for r in chosen):
            # Inside an accepted recursion sub-structure; not a choice.
            yield from search(index + 1, chosen)
            return
        # Prefer accepting (paper's left-to-right, top-to-bottom greed).
        chosen.append(pos)
        yield from search(index + 1, chosen)
        chosen.pop()
        yield from search(index + 1, chosen)

    yield from search(0, [])


def _is_position_prefix(prefix: Position, pos: Position) -> bool:
    return len(prefix) < len(pos) and pos[: len(prefix)] == prefix


def _is_potential(term: Term, pos: Position) -> bool:
    """``is_potential_recursion_point`` of Figure 5."""
    node = subterm(term, pos)
    if isinstance(node, (NullTerm, PredTerm)):
        return True
    if isinstance(node, StarTerm):
        if node.is_unexpanded:
            return True
        return node.fields == term.fields and _contains_stop(node)
    return False


def make_skeleton(term: Term, recursion_points: tuple[Position, ...]) -> Term:
    """The minimal pattern of *term* reaching all recursion points.

    Recursion points become holes; every maximal subtree containing no
    recursion point is replaced by a variable at its highest point."""
    counter = [0]
    prefixes = {r[:i] for r in recursion_points for i in range(len(r) + 1)}

    def build(node: Term, pos: Position) -> Term:
        if pos in recursion_points:
            return HOLE
        if pos not in prefixes:
            counter[0] += 1
            return VarTerm(counter[0])
        kids = children(node)
        rebuilt = tuple(build(c, pos + (i,)) for i, c in enumerate(kids))
        if isinstance(node, StarTerm):
            return StarTerm(node.fields, rebuilt, loc=None)
        if isinstance(node, PredTerm):
            return PredTerm(node.pred, rebuilt, loc=None)
        raise AssertionError(
            f"recursion point inside a non-structural term: {node}"
        )

    return build(term, ())


def skeleton_matches(skeleton: Term, node: Term) -> bool:
    """The paper's ``tskel <= u`` relation."""
    if isinstance(skeleton, Hole):
        return _contains_stop(node)
    if isinstance(skeleton, VarTerm):
        if contains_terminal(node):
            return False
        # Parameters must be translated names of heap locations (or
        # already-folded sub-structures, which become nested calls).
        return isinstance(node, (NameTerm, PredTerm))
    if isinstance(skeleton, StarTerm):
        return (
            isinstance(node, StarTerm)
            and skeleton.fields == node.fields
            and all(
                skeleton_matches(s, c)
                for s, c in zip(skeleton.targets, node.targets)
            )
        )
    if isinstance(skeleton, PredTerm):
        return (
            isinstance(node, PredTerm)
            and skeleton.pred == node.pred
            and len(skeleton.args) == len(node.args)
            and all(
                skeleton_matches(s, c) for s, c in zip(skeleton.args, node.args)
            )
        )
    raise AssertionError(f"unexpected skeleton node {skeleton}")


def _make_segment(node: Term, recursion_points: tuple[Position, ...]) -> Term | None:
    """*node* with the subtrees at the recursion points cut to holes."""

    def build(current: Term, pos: Position) -> Term | None:
        if pos in recursion_points:
            return HOLE
        if not any(_is_position_prefix(pos, r) or pos == r for r in recursion_points):
            return current
        kids = children(current)
        rebuilt = []
        for i, child in enumerate(kids):
            piece = build(child, pos + (i,))
            if piece is None:
                return None
            rebuilt.append(piece)
        if isinstance(current, StarTerm):
            return StarTerm(current.fields, tuple(rebuilt), loc=current.loc)
        if isinstance(current, PredTerm):
            return PredTerm(current.pred, tuple(rebuilt), loc=current.loc)
        return None  # recursion point under a non-structural node

    return build(node, ())


def _validate(term: Term, recursion_points: tuple[Position, ...]) -> Segmentation | None:
    """Full validity check; builds the segmentation artifacts."""
    for r in recursion_points:
        if subterm(term, r) is None:
            return None
    skeleton = make_skeleton(term, recursion_points)
    # The root's own parameter positions must hold legal parameter
    # instantiations (names or null -- e.g. mcf_tree(h, null, null)).
    if not _root_parameters_legal(skeleton, term):
        return None
    segments: dict[Position, Term] = {}
    pairs: list[tuple[Position, int, Position]] = []
    folded_tails: list[tuple[Position, int, PredTerm]] = []

    def walk(pos: Position) -> bool:
        node = subterm(term, pos)
        segment = _make_segment(node, recursion_points)
        if segment is None:
            return False
        segments[pos] = segment
        for index, r in enumerate(recursion_points):
            child_pos = pos + r
            child = subterm(term, child_pos)
            if child is None:
                return False
            if is_terminal(child):
                continue
            if isinstance(child, PredTerm):
                folded_tails.append((pos, index, child))
                continue
            if not skeleton_matches(skeleton, child):
                return False
            pairs.append((pos, index, child_pos))
            if not walk(child_pos):
                return False
        return True

    if not walk(()):
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


def _root_parameters_legal(skeleton: Term, root: Term) -> bool:
    """Variable positions of the skeleton must hold names, null or
    folded instances in the root segment (they become the arguments of
    the top-level predicate instantiation)."""

    def check(skel: Term, node: Term) -> bool:
        if isinstance(skel, Hole):
            return True
        if isinstance(skel, VarTerm):
            return isinstance(node, (NameTerm, NullTerm, PredTerm))
        for s, c in zip(children(skel), children(node)):
            if not check(s, c):
                return False
        return True

    return check(skeleton, root)
