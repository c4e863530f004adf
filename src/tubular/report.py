"""Decision reports and exact JSON serialization of verdicts and certificates.

A report is one (group, property) verdict with its route, citation, notes and
an optional certificate.  Rationals serialize as "p/q" strings, so certificates
round-trip exactly, never through floating point.  Reports are built only here
(`th9_rule`) and in `cli.PROPERTIES` rows.  At run time this imports only
`core`, whose checks verify the certificates that `deserialize_*` read back.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from typing import TYPE_CHECKING

from .core import EquitableSet, Functional, IntVec2, QForm2, Rat, TubularPresentation, VertexId

if TYPE_CHECKING:
    from .cat0 import ObstructionDatum
    from .cubulate import Arc

YES, NO, UNKNOWN = "Yes", "No", "Unknown"


@dataclass(frozen=True)
class DecisionReport:
    group: str
    property: str
    verdict: str  # Yes / No / Unknown, or a decider-specific word (e.g. Obstructed)
    route: str
    certificate: dict | None = None
    citation: str = ""
    notes: tuple[str, ...] = ()


def reports_to_json(reports: list[DecisionReport]) -> str:
    """The reports as a JSON array of objects keyed by field, in field order:
    the bytes of `json.dumps([vars(r) for r in reports], indent=2)` and a
    newline.  `json.dumps` with an indent runs CPython's pure-Python
    encoder, so `_json` writes the same text itself and quotes each string
    with the C function that `json.dumps` uses."""
    return _json([vars(r) for r in reports], "\n") + "\n"


def _json(o, newline: str) -> str:
    """The JSON of a str, int, bool, None, list, tuple or str-keyed dict, as
    `json.dumps(o, indent=2)` writes it when o follows `newline` and the
    indentation after it.  Any other value raises TypeError, and so does a
    key that is not a str."""
    if isinstance(o, str):
        return encode_basestring_ascii(o)
    elif o is None:
        return "null"
    elif o is True:
        return "true"
    elif o is False:
        return "false"
    elif isinstance(o, int):
        return int.__repr__(o)
    elif isinstance(o, (list, tuple)):
        inner = newline + "  "
        items = [_json(x, inner) for x in o]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    elif isinstance(o, dict):
        inner = newline + "  "
        items = [encode_basestring_ascii(k) + ": " + _json(x, inner) for k, x in o.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}" if items else "{}"
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")


def rat_str(r: Rat) -> str:
    f = Fraction(r)
    return f"{f.numerator}/{f.denominator}"


def serialize_qform(q: QForm2, cos_phi: Rat) -> dict:
    return {
        "type": "quadratic_form",
        "a": rat_str(q.a),
        "b": rat_str(q.b),
        "c": rat_str(q.c),
        "cos_phi": rat_str(cos_phi),
    }


def deserialize_qform(obj: dict) -> QForm2:
    return QForm2(Fraction(obj["a"]), Fraction(obj["b"]), Fraction(obj["c"]))


def serialize_functional(f: Functional) -> dict:
    return {
        "type": "integer_functional",
        "coefficients": {v: [a, b] for v, (a, b) in f.coeffs},
    }


def deserialize_functional(obj: dict) -> Functional:
    return Functional(
        tuple((v, (int(a), int(b))) for v, (a, b) in obj["coefficients"].items())
    )


def serialize_equitable(s: EquitableSet) -> dict:
    return {
        "type": "equitable_set",
        "sets": {v: [[x.x, x.y] for x in vecs] for v, vecs in s.sets},
    }


def deserialize_equitable(obj: dict) -> EquitableSet:
    return EquitableSet(
        tuple(
            (v, tuple(IntVec2(int(x), int(y)) for x, y in vecs))
            for v, vecs in obj["sets"].items()
        )
    )


def serialize_cycle(cycle: tuple[tuple[Arc, int], ...], holonomy: Rat) -> dict:
    return {
        "type": "dilation_cycle",
        "holonomy": rat_str(holonomy),
        "steps": [
            {
                "edge": arc.edge_label,
                "from": f"{arc.src_circle[0]}:{arc.src_circle[1]}",
                "to": f"{arc.dst_circle[0]}:{arc.dst_circle[1]}",
                "weight": rat_str(arc.weight),
                "direction": d,
            }
            for arc, d in cycle
        ],
    }


def serialize_obstruction(o: ObstructionDatum) -> dict:
    return {
        "type": "obstruction",
        "kind": o.kind.value,
        "indices": list(o.indices),
        "values": [rat_str(v) for v in o.values],
    }


def serialize_forced_values(values: tuple[Rat, ...]) -> dict:
    return {"type": "forced_values", "values": [rat_str(v) for v in values]}


def th9_rule(
    g: TubularPresentation,
    a: tuple[VertexId, IntVec2],
    a_not_virtual_retractor: bool,
    user_asserted: bool = False,
    forced_values: tuple[Rat, ...] = (),
) -> DecisionReport:
    """Report on the amalgam of g with F2 x Z over a = t.

    When the chosen element is known not to be a virtual retractor (from an
    Obstructed verdict, or asserted by the caller), the amalgam over that
    element with F2 x Z (t central) is not virtually free-by-cyclic.  Without
    that hypothesis the rule says nothing.
    """
    vertex, elem = a
    if a_not_virtual_retractor:
        verdict = NO
        cert = serialize_forced_values(forced_values) if forced_values else None
        citation = (
            "amalgam with F2 x Z over a non-virtual-retract central element "
            "is not virtually free-by-cyclic"
        )
        if user_asserted:
            hypothesis = "user-asserted hypothesis: element is not a virtual retractor"
        else:
            hypothesis = (
                "hypothesis certified by the forced-value obstruction to retracting "
                "onto the central cyclic subgroup"
            )
        notes = (f"glued element {elem} at vertex {vertex}", hypothesis)
    else:
        verdict, cert = UNKNOWN, None
        citation = "amalgam over a non-virtual-retract element rule"
        notes = ("hypothesis (element is not a virtual retractor) not established",)
    return DecisionReport(
        group=f"{g.name or 'G'} *_(a=t) F2xZ",
        property="virtually_free_by_cyclic",
        verdict=verdict,
        route="AmalgamOverNonRetractor",
        certificate=cert,
        citation=citation,
        notes=notes,
    )
