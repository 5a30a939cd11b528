r"""Recursive predicate definitions and the global environment ``T``.

A definition has the shape the recursion synthesis algorithm produces
(and that covers every structure with a tree-like backbone plus
backward links, the paper's stated descriptive power)::

    A(x1, ..., xn) =  (x1 = null  /\  emp)
                   \/ (x1.f1 |-> e1 * ... * x1.fk |-> ek
                       * B1(b1, s1...) * ... * Bm(bm, sm...))

where each field target ``ei`` and each recursive-call argument is an
:class:`ArgExpr`: ``null``, a parameter ``xj``, the root of one of the
sub-structures (``RecTarget``), or an unconstrained existential
(``AnyArg``, for residual data fields).  Mutual and nested recursion is
supported because each :class:`RecCallSpec` names its own predicate.

The *recursion points* of Section 3.1.2 / Figure 6 are exactly the
``rec_calls`` entries whose predicate is ``A`` itself.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.logic.assertions import PointsTo, PredInstance
from repro.logic.heapnames import HeapName, Var, fresh_var
from repro.logic.symvals import NULL_VAL, NullVal, SymVal

__all__ = [
    "ArgExpr",
    "NullArg",
    "ParamArg",
    "RecTarget",
    "AnyArg",
    "FieldSpec",
    "RecCallSpec",
    "PredicateDef",
    "PredicateEnv",
    "LIST_DEF",
    "TREE_DEF",
]


@dataclass(frozen=True, slots=True)
class NullArg:
    def __str__(self) -> str:
        return "null"


@dataclass(frozen=True, slots=True)
class ParamArg:
    """The j-th parameter (0-based; 0 is the node itself, ``x1``)."""

    index: int

    def __str__(self) -> str:
        return f"x{self.index + 1}"


@dataclass(frozen=True, slots=True)
class RecTarget:
    """The root of the i-th sub-structure (the bound variable of
    ``rec_calls[i]``)."""

    index: int

    def __str__(self) -> str:
        return chr(ord("α") + self.index)  # alpha, beta, ...


@dataclass(frozen=True, slots=True)
class AnyArg:
    """An unconstrained existential (residual data field)."""

    def __str__(self) -> str:
        return "_"


ArgExpr = NullArg | ParamArg | RecTarget | AnyArg


@dataclass(frozen=True, slots=True)
class FieldSpec:
    """One conjunct ``x1.field |-> target`` of the definition body."""

    field: str
    target: ArgExpr


@dataclass(frozen=True, slots=True)
class RecCallSpec:
    """One recursive call ``pred(<bound var>, args...)`` in the body.

    ``args`` instantiate parameters 2..n of *pred* (the first parameter
    is always the bound variable introduced by the ``RecTarget`` field).
    """

    pred: str
    args: tuple[ArgExpr, ...] = ()


@dataclass(frozen=True)
class PredicateDef:
    """A recursive predicate definition."""

    name: str
    arity: int
    fields: tuple[FieldSpec, ...]
    rec_calls: tuple[RecCallSpec, ...] = ()

    def __post_init__(self) -> None:
        for spec in self.fields:
            if isinstance(spec.target, RecTarget) and not (
                0 <= spec.target.index < len(self.rec_calls)
            ):
                raise ValueError(f"{self.name}: dangling RecTarget {spec.target}")
        targets = [
            s.target.index for s in self.fields if isinstance(s.target, RecTarget)
        ]
        if sorted(targets) != list(range(len(self.rec_calls))):
            raise ValueError(
                f"{self.name}: rec_calls must be the targets of exactly one "
                "field each"
            )

    # ------------------------------------------------------------------
    @property
    def recursion_points(self) -> tuple[int, ...]:
        """Indices of rec_calls that recurse on this same predicate."""
        return tuple(
            i for i, call in enumerate(self.rec_calls) if call.pred == self.name
        )

    def field_of_rec_call(self, index: int) -> str:
        """The field whose target roots rec_calls[index]."""
        for spec in self.fields:
            if isinstance(spec.target, RecTarget) and spec.target.index == index:
                return spec.field
        raise ValueError(f"no field for rec call {index}")

    def backward_param_for_field(self, field_name: str) -> int | None:
        """If ``x1.field |-> xj`` for a parameter j >= 1, return j.

        These are the backward links: the paper's Figure 6 uses the
        correspondence between backward-link fields and predicate
        parameters to prune impossible truncation-point placements.
        """
        for spec in self.fields:
            if spec.field == field_name and isinstance(spec.target, ParamArg):
                return spec.target.index
        return None

    # ------------------------------------------------------------------
    def eval_arg(
        self, expr: ArgExpr, args: tuple[SymVal, ...], bound: list[Var]
    ) -> SymVal:
        """Evaluate an :class:`ArgExpr` under an instantiation."""
        if isinstance(expr, NullArg):
            return NULL_VAL
        if isinstance(expr, ParamArg):
            return args[expr.index]
        if isinstance(expr, RecTarget):
            return bound[expr.index]
        return fresh_var("d")

    def unfold_body(
        self, args: tuple[SymVal, ...]
    ) -> tuple[list[PointsTo], list[PredInstance], list[Var]]:
        """Instantiate the recursive case at *args*.

        Returns the points-to facts, the sub-structure instances (with
        fresh roots), and the fresh bound variables, in rec-call order.
        """
        if len(args) != self.arity:
            raise ValueError(
                f"{self.name} expects {self.arity} args, got {len(args)}"
            )
        root = args[0]
        if isinstance(root, NullVal):
            raise ValueError("cannot unfold the base case")
        bound = [fresh_var("b") for _ in self.rec_calls]
        points_to = [
            PointsTo(root, spec.field, self.eval_arg(spec.target, args, bound))
            for spec in self.fields
        ]
        instances = [
            PredInstance(
                call.pred,
                (bound[i],) + tuple(self.eval_arg(a, args, bound) for a in call.args),
            )
            for i, call in enumerate(self.rec_calls)
        ]
        return points_to, instances, bound

    # ------------------------------------------------------------------
    def structure_key(self) -> tuple:
        """A key identifying the definition up to renaming of the
        predicate itself (used to deduplicate synthesized predicates)."""
        calls = tuple(
            ("self" if c.pred == self.name else c.pred, c.args)
            for c in self.rec_calls
        )
        return (self.arity, self.fields, calls)

    def __str__(self) -> str:
        params = ", ".join(f"x{i + 1}" for i in range(self.arity))
        conjuncts = [f"x1.{s.field}|->{s.target}" for s in self.fields]
        for i, call in enumerate(self.rec_calls):
            call_args = ", ".join([str(RecTarget(i))] + [str(a) for a in call.args])
            conjuncts.append(f"{call.pred}({call_args})")
        body = " * ".join(conjuncts) if conjuncts else "emp"
        return f"{self.name}({params}) = (x1=null /\\ emp) \\/ ({body})"


class PredicateEnv:
    """The global environment ``T`` of predicate definitions.

    Structurally identical definitions are shared: :meth:`define`
    returns the existing definition when one matches, so repeated
    synthesis over the same data structure converges on one name.
    """

    def __init__(self) -> None:
        self._defs: dict[str, PredicateDef] = {}
        self._by_structure: dict[tuple, str] = {}
        self._by_fields: dict[tuple[str, ...], list[PredicateDef]] = {}
        self._counter = 0
        self._token: tuple | None = None
        #: (stronger, weaker) -> bool memo for ``pred_implies``;
        #: invalidated whenever a new definition is registered.
        self.implies_memo: dict[tuple[str, str], bool] = {}
        #: (kind, concrete, general) -> lemma pair key memo for
        #: ``lemmas.pair_key``; invalidated whenever a new definition is
        #: registered (a key serializes whole definition clusters, and a
        #: new definition can resolve a formerly undefined callee).
        self.pair_keys: dict[tuple[str, str, str], str] = {}

    def __contains__(self, name: str) -> bool:
        return name in self._defs

    def __getitem__(self, name: str) -> PredicateDef:
        return self._defs[name]

    def __iter__(self):
        return iter(self._defs.values())

    def __len__(self) -> int:
        return len(self._defs)

    def fresh_name(self, hint: str = "P") -> str:
        self._counter += 1
        return f"{hint}{self._counter}"

    def add(self, definition: PredicateDef) -> PredicateDef:
        """Register *definition* (or return the structural duplicate)."""
        key = definition.structure_key()
        existing = self._by_structure.get(key)
        if existing is not None:
            return self._defs[existing]
        if definition.name in self._defs:
            raise ValueError(f"predicate {definition.name} already defined")
        self._defs[definition.name] = definition
        self._by_structure[key] = definition.name
        signature = tuple(sorted(spec.field for spec in definition.fields))
        self._by_fields.setdefault(signature, []).append(definition)
        self.implies_memo.clear()
        self.pair_keys.clear()
        self._token = None
        return definition

    def cache_token(self) -> tuple:
        """A *structural* fingerprint of the environment: the sorted
        ``(name, structure_key)`` pairs, which fully determine every
        definition (and therefore every entailment judgment made under
        this environment).  Being structural rather than identity-based
        lets an entailment cache persist across analysis runs -- two
        runs that deterministically synthesize the same predicates get
        the same token and share verdicts.  Recomputed lazily, only
        after :meth:`add` grew the environment."""
        token = self._token
        if token is None:
            token = self._token = tuple(
                sorted(
                    ((name, d.structure_key()) for name, d in self._defs.items()),
                    key=lambda pair: pair[0],
                )
            )
        return token

    def define(
        self,
        fields: tuple[FieldSpec, ...],
        rec_calls: tuple[RecCallSpec, ...],
        arity: int,
        hint: str = "P",
    ) -> PredicateDef:
        """Create (or share) a definition with a fresh name."""
        name = self.fresh_name(hint)
        resolved_calls = tuple(
            RecCallSpec(name if c.pred == "self" else c.pred, c.args)
            for c in rec_calls
        )
        definition = PredicateDef(name, arity, fields, resolved_calls)
        shared = self.add(definition)
        if shared is not definition:
            self._counter -= 1
        return shared

    def candidates_for_fields(self, fields: tuple[str, ...]) -> list[PredicateDef]:
        """Definitions whose body covers exactly these fields (used by
        foldT to avoid scanning the whole environment)."""
        return list(self._by_fields.get(tuple(sorted(fields)), ()))

    def find_structural(self, definition: PredicateDef) -> "PredicateDef | None":
        """The registered definition structurally identical to
        *definition* (any name), or None.  The durable store uses this
        to detect *name drift*: a stored summary whose predicate exists
        here under a different name cannot be installed verbatim."""
        name = self._by_structure.get(definition.structure_key())
        return None if name is None else self._defs[name]

    @property
    def counter(self) -> int:
        """The fresh-name counter (snapshotted into store payloads)."""
        return self._counter

    def ensure_counter(self, value: int) -> None:
        """Raise the fresh-name counter to at least *value*.

        Installing stored definitions bypasses :meth:`fresh_name`, so
        the counter must be advanced past their numeric suffixes --
        otherwise a later synthesis would mint an already-taken name.
        This also keeps the store-on run's name sequence aligned with
        the run that recorded the entries (synthesis is deterministic,
        so that run advanced the counter to exactly this value)."""
        self._counter = max(self._counter, value)

    def describe(self) -> str:
        return "\n".join(str(d) for d in self._defs.values())


def _make_list_def() -> PredicateDef:
    return PredicateDef(
        "list",
        arity=1,
        fields=(FieldSpec("next", RecTarget(0)),),
        rec_calls=(RecCallSpec("list"),),
    )


def _make_tree_def() -> PredicateDef:
    return PredicateDef(
        "tree",
        arity=1,
        fields=(FieldSpec("left", RecTarget(0)), FieldSpec("right", RecTarget(1))),
        rec_calls=(RecCallSpec("tree"), RecCallSpec("tree")),
    )


#: The classic acyclic list predicate of the paper's introduction.
LIST_DEF = _make_list_def()

#: A plain binary tree.
TREE_DEF = _make_tree_def()
