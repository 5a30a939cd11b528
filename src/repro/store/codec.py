"""Codec between in-memory analysis objects and store payloads.

The durable store does not invent a serialization format for abstract
states: a state's *canonical key* (:mod:`repro.logic.canonical`) is
already a deterministic, alpha-invariant, ``ast.literal_eval``-able
spelling of the whole state -- register frame, spatial conjunction,
pure formula and anchors.  Encoding a state is ``canonical_key``;
decoding materializes a fresh alpha-variant by minting one fresh logic
variable per canonical index and replaying the key's tokens through
the same token grammar ``canonicalize`` emits.  This buys two
properties for free:

* **cross-process stability** -- canonical keys contain no interpreter
  identities (no ``id()``, no hash order, no live names), so the same
  program produces byte-identical keys under any ``PYTHONHASHSEED``
  (tests/test_canonical_key_stability.py);
* **self-checking decode** -- re-canonicalizing a decoded state must
  reproduce the stored key exactly (alpha-invariance), which
  validation-on-read uses to reject any corruption that survives the
  checksum but changes meaning.

A *summary* payload bundles the callee's entry key, its exit keys
(with a root-linkage table tying exit indices back to entry indices,
so decoded exits share the decoded entry's variables), the encoded
cutpoints, and a content-addressed snapshot of the predicate
environment at tabulation time.  Predicate definitions are enumerable
structures (fields over a four-constructor ``ArgExpr`` grammar plus
recursive calls), encoded as plain JSON.
"""

from __future__ import annotations

import ast
import hashlib
import json

from repro.ir.values import Register
from repro.logic.canonical import canonicalize, parse_canonical_key
from repro.logic.heapnames import FieldPath, GlobalLoc, Var, fresh_var
from repro.logic.predicates import (
    AnyArg,
    ArgExpr,
    FieldSpec,
    NullArg,
    ParamArg,
    PredicateDef,
    RecCallSpec,
    RecTarget,
)
from repro.logic.state import AbstractState
from repro.logic.symvals import NULL_VAL, OffsetVal, Opaque
from repro.logic.assertions import PointsTo, PredInstance, Raw, Region

__all__ = [
    "decode_cutpoints",
    "decode_predicate",
    "decode_state",
    "encode_predicate",
    "encode_summary",
    "payload_bytes",
    "payload_digest",
    "predicate_blob",
]


def payload_bytes(payload: dict) -> bytes:
    """The canonical JSON bytes of *payload* (sorted keys, no spaces),
    which is also the checksummed, content-addressed unit on disk."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":")
    ).encode("utf-8")


def payload_digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


# ----------------------------------------------------------------------
# State decode (canonical key -> fresh alpha-variant)
# ----------------------------------------------------------------------


class _KeyDecoder:
    """Replays canonical-key tokens into fresh (or seeded) variables.

    ``roots`` maps canonical index -> logic variable; unseen indices
    mint a fresh variable on first use, so one decoder instance keeps
    every token of one state (or of an exit state linked to its entry)
    consistent.  Every structural mismatch raises :class:`ValueError`:
    the store treats any decode error as a rejected entry.
    """

    __slots__ = ("roots",)

    def __init__(self, roots: "dict[int, Var] | None" = None):
        self.roots: dict[int, Var] = dict(roots or {})

    def root(self, token):
        if not isinstance(token, tuple) or len(token) != 2:
            raise ValueError(f"malformed root token {token!r}")
        kind, payload = token
        if kind == "g":
            return GlobalLoc(str(payload))
        if kind != "v":
            raise ValueError(f"unknown root token kind {kind!r}")
        index = int(payload)
        var = self.roots.get(index)
        if var is None:
            var = self.roots[index] = fresh_var("s")
        return var

    def name(self, token):
        if not isinstance(token, tuple) or len(token) != 3 or token[0] != "nm":
            raise ValueError(f"malformed name token {token!r}")
        name = self.root(token[1])
        for field in token[2]:
            if not isinstance(field, str):
                raise ValueError(f"malformed field path in {token!r}")
            name = FieldPath(name, field)
        return name

    def value(self, token):
        if not isinstance(token, tuple) or not token:
            raise ValueError(f"malformed value token {token!r}")
        if token[0] == "null":
            return NULL_VAL
        if token[0] == "?":
            return Opaque(str(token[1]))
        if token[0] == "off":
            return OffsetVal(self.name(token[1]), int(token[2]))
        return self.name(token)


def decode_state(
    key: str, seed_roots: "dict[int, Var] | None" = None
) -> "tuple[AbstractState, dict[int, Var]]":
    """Materialize the state a canonical *key* spells out.

    Returns the state plus the index -> variable table used, so callers
    can decode linked states (exits against their entry) in the same
    variable space.  Raises :class:`ValueError` on any malformed token.
    """
    rho_tokens, spatial_tokens, pure_tokens, anchor_tokens = (
        parse_canonical_key(key)
    )
    decoder = _KeyDecoder(seed_roots)
    state = AbstractState()
    for token in spatial_tokens:
        if not isinstance(token, tuple) or not token:
            raise ValueError(f"malformed spatial token {token!r}")
        kind = token[0]
        if kind == "pt" and len(token) == 4:
            state.spatial.add(
                PointsTo(
                    decoder.name(token[1]),
                    str(token[2]),
                    decoder.value(token[3]),
                )
            )
        elif kind == "pred" and len(token) == 4:
            state.spatial.add(
                PredInstance(
                    str(token[1]),
                    tuple(decoder.value(a) for a in token[2]),
                    tuple(decoder.name(t) for t in token[3]),
                )
            )
        elif kind == "raw" and len(token) == 3:
            state.spatial.add(
                Raw(
                    decoder.name(token[1]),
                    frozenset(str(w) for w in token[2]),
                )
            )
        elif kind == "rgn" and len(token) == 3:
            state.spatial.add(
                Region(
                    decoder.name(token[1]),
                    frozenset(int(c) for c in token[2]),
                )
            )
        else:
            raise ValueError(f"unknown spatial token {token!r}")
    for token in pure_tokens:
        if not isinstance(token, tuple) or not token:
            raise ValueError(f"malformed pure token {token!r}")
        if token[0] == "pa" and len(token) == 4:
            state.pure.assume(
                str(token[1]), decoder.value(token[2]), decoder.value(token[3])
            )
        elif token[0] == "al" and len(token) == 3:
            offset = decoder.value(token[1])
            if not isinstance(offset, OffsetVal):
                raise ValueError(f"alias token without offset: {token!r}")
            state.pure.record_alias(offset, decoder.name(token[2]))
        else:
            raise ValueError(f"unknown pure token {token!r}")
    state.anchors = frozenset(decoder.name(t) for t in anchor_tokens)
    for item in rho_tokens:
        if not isinstance(item, tuple) or len(item) != 2:
            raise ValueError(f"malformed rho entry {item!r}")
        register_name, value_token = item
        state.rho[Register(str(register_name))] = decoder.value(value_token)
    return state, decoder.roots


def decode_cutpoints(
    cutpoint_reprs: "list[str]", decoder_roots: "dict[int, Var]"
) -> frozenset:
    """Decode stored cutpoint name tokens against the decoded entry's
    variable table.  A cutpoint referencing an index outside the entry
    is malformed (cutpoints are names *of* the entry heap)."""
    decoder = _KeyDecoder(decoder_roots)
    known = frozenset(decoder.roots)
    cutpoints = []
    for text in cutpoint_reprs:
        token = ast.literal_eval(text)
        name = decoder.name(token)
        cutpoints.append(name)
    if frozenset(decoder.roots) != known:
        raise ValueError("cutpoint names escape the entry's root table")
    return frozenset(cutpoints)


# ----------------------------------------------------------------------
# Predicate codec
# ----------------------------------------------------------------------

_ARG_TAGS = {"null": NullArg, "any": AnyArg, "param": ParamArg, "rec": RecTarget}


def _encode_arg(arg: ArgExpr) -> list:
    if isinstance(arg, NullArg):
        return ["null"]
    if isinstance(arg, AnyArg):
        return ["any"]
    if isinstance(arg, ParamArg):
        return ["param", arg.index]
    if isinstance(arg, RecTarget):
        return ["rec", arg.index]
    raise ValueError(f"unknown ArgExpr {arg!r}")


def _decode_arg(payload) -> ArgExpr:
    if not isinstance(payload, list) or not payload:
        raise ValueError(f"malformed ArgExpr payload {payload!r}")
    tag = payload[0]
    if tag in ("null", "any"):
        if len(payload) != 1:
            raise ValueError(f"malformed ArgExpr payload {payload!r}")
        return _ARG_TAGS[tag]()
    if tag in ("param", "rec") and len(payload) == 2:
        return _ARG_TAGS[tag](int(payload[1]))
    raise ValueError(f"malformed ArgExpr payload {payload!r}")


def encode_predicate(definition: PredicateDef) -> dict:
    return {
        "name": definition.name,
        "arity": definition.arity,
        "fields": [
            [spec.field, _encode_arg(spec.target)]
            for spec in definition.fields
        ],
        "rec_calls": [
            [call.pred, [_encode_arg(a) for a in call.args]]
            for call in definition.rec_calls
        ],
    }


def decode_predicate(payload: dict) -> PredicateDef:
    """Inverse of :func:`encode_predicate`; :class:`ValueError` on any
    malformed payload (``PredicateDef.__post_init__`` re-validates the
    structural invariants, so a tampered definition cannot even be
    constructed)."""
    if not isinstance(payload, dict):
        raise ValueError(f"malformed predicate payload {payload!r}")
    try:
        fields = tuple(
            FieldSpec(str(field), _decode_arg(target))
            for field, target in payload["fields"]
        )
        rec_calls = tuple(
            RecCallSpec(str(pred), tuple(_decode_arg(a) for a in args))
            for pred, args in payload["rec_calls"]
        )
        return PredicateDef(
            str(payload["name"]), int(payload["arity"]), fields, rec_calls
        )
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed predicate payload: {exc}") from exc


def predicate_blob(definition: PredicateDef) -> bytes:
    """Content-addressed unit for one definition."""
    return payload_bytes(encode_predicate(definition))


# ----------------------------------------------------------------------
# Summary payload
# ----------------------------------------------------------------------


def encode_summary(
    callee: str,
    entry: AbstractState,
    exits: "list[AbstractState]",
    cutpoints: frozenset,
    env,
    *,
    config: str,
    schema: int,
    cone: str = "",
) -> "tuple[dict, dict[str, bytes]]":
    """The summary payload plus the predicate blobs it references
    (digest -> bytes), ready for the disk layer.

    Raises :class:`~repro.logic.canonical.UntranslatableWitness` when a
    cutpoint is not indexed by the entry's canonical form (the caller
    skips recording such a summary).

    The predicate section snapshots the *whole* environment at
    tabulation time, not just the definitions the exits mention: a
    store hit skips the callee's body, and the body may have
    synthesized predicates that later folds would use as candidates.
    Installing the full snapshot keeps a store-on run's environment
    step-for-step identical to the recording run's -- which is what the
    store-on vs store-off differential gate relies on.
    """
    entry_form = canonicalize(entry)
    cutpoint_reprs = sorted(
        repr(entry_form.encode_name(c)) for c in cutpoints
    )
    exits_payload = []
    for exit_state in exits:
        exit_form = canonicalize(exit_state)
        links = {}
        for root, exit_index in exit_form.index.items():
            entry_index = entry_form.index.get(root)
            if entry_index is not None:
                links[str(exit_index)] = entry_index
        exits_payload.append({"key": exit_form.key, "links": links})
    defs: dict[str, str] = {}
    blobs: dict[str, bytes] = {}
    for definition in env:
        blob = predicate_blob(definition)
        digest = payload_digest(blob)
        defs[definition.name] = digest
        blobs[digest] = blob
    payload = {
        "schema": schema,
        "callee": callee,
        "cone": cone,
        "config": config,
        "entry": entry_form.key,
        "cutpoints": cutpoint_reprs,
        "exits": exits_payload,
        "defs": defs,
        "counter": env.counter,
    }
    return payload, blobs
