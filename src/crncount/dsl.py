"""Line-based text format for reaction networks.

Grammar (one reaction per line, ``#`` starts a comment)::

    line       := complex arrow complex [ ';' annotation* ]
    arrow      := '->' | '<->'
    complex    := '0' | term ('+' term)*
    term       := [integer] identifier          (omitted integer = 1)
    annotation := 'k=' positive-decimal | 'kinetics=general'
                | 'deps=' id-list | 'signs=' signed-id-list

Species are indexed in order of first appearance.  A ``<->`` line expands
into the two irreversible reactions.  ``signs=`` entries are ``+A``,
``-A``, or ``?A`` (strict sign exists but is unknown); when ``signs=`` is
given it must cover every dependency.  A flow line, ``0 -> X`` or
``X -> 0`` with one species of coefficient 1, is a ParseError (the CLI
exits 1): flows are added by the analysis, never written in a network.
"""

from __future__ import annotations

import re
from typing import Dict, List, Tuple

from .network import (
    Complex,
    GeneralMonotone,
    MassAction,
    NetworkError,
    Reaction,
    ReactionNetwork,
    Species,
    make_reaction,
)

_TERM_RE = re.compile(r"^(\d+)?\s*([A-Za-z_][A-Za-z0-9_]*)$")
_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")


class ParseError(ValueError):
    """Syntax or structure error in a network file, with a line number."""

    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_network(text: str) -> ReactionNetwork:
    """Parse DSL source into a reaction network.

    Raises:
        ParseError: on syntax errors, ``y -> y`` reactions, flow
            reactions, zero, negative or over-32-bit stoichiometric
            coefficients, a ``k=`` that ``MassAction`` rejects (not finite
            and positive), unknown annotations, or an input with no reactions.
    """
    species_order: List[str] = []
    species_index: Dict[str, int] = {}
    raw: List[Tuple[int, dict, dict, dict]] = []  # (lineno, source, target, annotations)

    def intern_species(name: str) -> int:
        if name not in species_index:
            species_index[name] = len(species_order)
            species_order.append(name)
        return species_index[name]

    def parse_complex(lineno: int, text_part: str) -> Dict[int, int]:
        text_part = text_part.strip()
        if text_part == "0":
            return {}
        if not text_part:
            raise ParseError(lineno, "empty complex")
        coeffs: Dict[int, int] = {}
        for chunk in text_part.split("+"):
            m = _TERM_RE.match(chunk.strip())
            if not m:
                raise ParseError(lineno, f"cannot parse term {chunk.strip()!r}")
            coeff = int(m.group(1)) if m.group(1) else 1
            if coeff <= 0:
                raise ParseError(lineno, f"zero or negative stoichiometric coefficient in {chunk.strip()!r}")
            idx = intern_species(m.group(2))
            coeffs[idx] = coeffs.get(idx, 0) + coeff
        return coeffs

    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        body, _, ann_part = line.partition(";")
        if "<->" in body:
            lhs, _, rhs = body.partition("<->")
            reversible = True
        elif "->" in body:
            lhs, _, rhs = body.partition("->")
            reversible = False
        else:
            raise ParseError(lineno, "missing reaction arrow '->' or '<->'")
        if "->" in rhs:
            raise ParseError(lineno, "more than one arrow on a line")
        source = parse_complex(lineno, lhs)
        target = parse_complex(lineno, rhs)
        ann = _parse_annotations(lineno, ann_part, reversible)
        raw.append((lineno, source, target, ann))
        if reversible:
            raw.append((lineno, target, source, ann))

    if not raw:
        raise ParseError(0, "no reactions in input")

    names = species_order
    species = tuple(Species(name, i) for i, name in enumerate(names))
    reactions = []
    for lineno, src_map, tgt_map, ann in raw:
        try:
            source = Complex.from_dict(src_map)
            target = Complex.from_dict(tgt_map)
            if source == target:
                raise ParseError(lineno, "reaction of form y -> y")
            kinetics = _build_kinetics(lineno, ann, source, species_index)
            reactions.append(make_reaction(source, target, kinetics, names))
        except NetworkError as exc:
            raise ParseError(lineno, str(exc)) from exc
    try:
        return ReactionNetwork(species, tuple(reactions))
    except NetworkError as exc:
        raise ParseError(0, str(exc)) from exc


def _parse_annotations(lineno: int, ann_part: str, reversible: bool) -> dict:
    ann: dict = {}
    for token in ann_part.split():
        key, eq, value = token.partition("=")
        if not eq:
            raise ParseError(lineno, f"malformed annotation {token!r}")
        if key == "k":
            if reversible:
                raise ParseError(lineno, "k= is not allowed on a reversible line")
            try:
                ann["k"] = float(value)
            except ValueError:
                raise ParseError(lineno, f"bad rate constant {value!r}")
        elif key == "kinetics":
            if value != "general":
                raise ParseError(lineno, f"unknown kinetics annotation {value!r}")
            ann["general"] = True
        elif key == "deps":
            if reversible:
                raise ParseError(lineno, "deps= is not allowed on a reversible line")
            ann["deps"] = _split_ids(lineno, value)
        elif key == "signs":
            if reversible:
                raise ParseError(lineno, "signs= is not allowed on a reversible line")
            ann["signs"] = _split_signed_ids(lineno, value)
        else:
            raise ParseError(lineno, f"unknown kinetics annotation {key!r}")
    if ("deps" in ann or "signs" in ann) and not ann.get("general"):
        raise ParseError(lineno, "deps=/signs= require kinetics=general")
    return ann


def _split_ids(lineno: int, value: str) -> List[str]:
    ids = [v for v in value.split(",") if v]
    for ident in ids:
        if not _IDENT_RE.match(ident):
            raise ParseError(lineno, f"bad identifier {ident!r} in deps=")
    return ids


def _split_signed_ids(lineno: int, value: str) -> List[Tuple[str, int]]:
    out = []
    for chunk in value.split(","):
        if not chunk:
            continue
        sign = {"+": +1, "-": -1, "?": 0}.get(chunk[0])
        if sign is None or not _IDENT_RE.match(chunk[1:]):
            raise ParseError(lineno, f"bad signed identifier {chunk!r} in signs=")
        out.append((chunk[1:], sign))
    return out


def _build_kinetics(lineno: int, ann: dict, source: Complex, species_index: Dict[str, int]):
    if not ann.get("general"):
        return MassAction(ann.get("k"))
    if "deps" in ann:
        deps = []
        for name in ann["deps"]:
            if name not in species_index:
                raise ParseError(lineno, f"deps= names unknown species {name!r}")
            deps.append(species_index[name])
    else:
        deps = list(source.support)
    if not deps and not source.is_empty:
        raise ParseError(lineno, "general kinetics with empty dependency set")
    signs = {idx: +1 for idx in deps}
    if "signs" in ann:
        listed = {}
        for name, s in ann["signs"]:
            if name not in species_index or species_index[name] not in signs:
                raise ParseError(lineno, f"signs= names non-dependency {name!r}")
            listed[species_index[name]] = s
        if set(listed) != set(signs):
            raise ParseError(lineno, "signs= must cover every dependency")
        signs = listed
    return GeneralMonotone.from_signs(signs)


def serialize_network(net: ReactionNetwork) -> str:
    """Render a network back to DSL text (one irreversible reaction per line)."""
    names = net.names
    lines = []
    for r in net.reactions:
        line = f"{r.source.format(names)} -> {r.target.format(names)}"
        ann = _format_annotations(r, names)
        lines.append(f"{line} ; {ann}" if ann else line)
    return "\n".join(lines) + "\n"


def _format_annotations(r: Reaction, names) -> str:
    if isinstance(r.kinetics, MassAction):
        return f"k={r.kinetics.value!r}" if r.kinetics.value is not None else ""
    kin = r.kinetics
    parts = ["kinetics=general"]
    if kin.dependencies != r.source.support or any(s != +1 for _, s in kin.partial_signs):
        parts.append("deps=" + ",".join(names[i] for i in kin.dependencies))
        marks = {+1: "+", -1: "-", 0: "?"}
        parts.append("signs=" + ",".join(marks[s] + names[i] for i, s in kin.partial_signs))
    return " ".join(parts)
