"""Plain-text documents for lattices and spaces.

A document is line oriented: each line is ``key: value`` with the value
in JSON, blank lines and ``#`` comments are skipped. Two kinds exist.

A lattice document gives the element names and generating pairs of the
order under ``leq``; the order is closed reflexively and transitively on
load, and everything else (joins, meets, distributivity) is recomputed
and checked::

    type: "lattice"
    name: "diamond"
    elements: ["0", "a", "b", "1"]
    leq: [["0", "a"], ["0", "b"], ["a", "1"], ["b", "1"]]

A space document gives the point names and generating open sets, each a
list of point names; the empty set, the whole space, and all unions and
intersections are added on load::

    type: "space"
    name: "sierpinski"
    points: ["0", "1"]
    opens: [["1"]]

Saving normalizes: elements in canonical order, ``leq`` reduced to the
covering pairs, the full topology listed. Loading a saved document
reproduces the object exactly, and saving it again reproduces the text
byte for byte.
"""

import json
from typing import Dict, Tuple, Union

from .bitsets import bits, mask_of
from .dlat import DistLattice, lattice_from_poset
from .errors import ParseError
from .order import order_closure
from .spaces import FinSpace, space_from_basis

Payload = Union[DistLattice, FinSpace]

_LATTICE_KEYS = ("type", "name", "elements", "leq")
_SPACE_KEYS = ("type", "name", "points", "opens")


def _parse_lines(text: str) -> Dict[str, Tuple[object, int]]:
    entries: Dict[str, Tuple[object, int]] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        key = key.strip()
        if not sep or not key or " " in key:
            raise ParseError("expected 'key: value'", line=lineno)
        if key in entries:
            raise ParseError(f"duplicate key {key!r}", line=lineno)
        try:
            value = json.loads(rest.strip())
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON value for {key!r}: {exc.msg}", line=lineno)
        except RecursionError:
            raise ParseError(f"bad JSON value for {key!r}: nested too deeply", line=lineno)
        except ValueError:
            # the one other ValueError of json.loads: an integer longer than
            # the interpreter converts from text (4,300 digits by default)
            raise ParseError(f"bad JSON value for {key!r}: integer too long", line=lineno)
        entries[key] = (value, lineno)
    return entries


def _take(entries, key, kind):
    if key not in entries:
        raise ParseError(f"missing key {key!r} in a {kind} document")
    return entries.pop(key)


def _name_list(value, key, lineno):
    if not isinstance(value, list) or not all(isinstance(s, str) for s in value):
        raise ParseError(f"{key!r} must be a list of strings", line=lineno)
    seen = set()
    for name in value:
        if name in seen:
            raise ParseError(f"duplicate {key[:-1]} name {name!r}", line=lineno)
        seen.add(name)
    return value


def parse(text: str) -> Tuple[str, str, list, list]:
    """Check a document without building its object: (kind, name, the
    element or point names, the leq pairs or the open sets as masks).
    Raises ParseError for malformed documents."""
    entries = _parse_lines(text)
    kind_value, kind_line = _take(entries, "type", "stonekit")
    if kind_value not in ("lattice", "space"):
        raise ParseError(
            f"unknown document type {kind_value!r}; expected 'lattice' or 'space'",
            line=kind_line,
        )
    name_value, name_line = _take(entries, "name", kind_value)
    if not isinstance(name_value, str):
        raise ParseError("'name' must be a string", line=name_line)
    if kind_value == "lattice":
        elements, el_line = _take(entries, "elements", "lattice")
        elements = _name_list(elements, "elements", el_line)
        pairs, leq_line = _take(entries, "leq", "lattice")
        if entries:
            stray = next(iter(entries))
            raise ParseError(
                f"unexpected key {stray!r} in a lattice document",
                line=entries[stray][1],
            )
        if not isinstance(pairs, list) or not all(
            isinstance(p, list)
            and len(p) == 2
            and all(isinstance(s, str) for s in p)
            for p in pairs
        ):
            raise ParseError("'leq' must be a list of [low, high] pairs", line=leq_line)
        known = set(elements)
        for low, high in pairs:
            for end in (low, high):
                if end not in known:
                    raise ParseError(
                        f"'leq' mentions unknown element {end!r}", line=leq_line
                    )
        return "lattice", name_value, elements, pairs
    points, pt_line = _take(entries, "points", "space")
    points = _name_list(points, "points", pt_line)
    opens, op_line = _take(entries, "opens", "space")
    if entries:
        stray = next(iter(entries))
        raise ParseError(
            f"unexpected key {stray!r} in a space document", line=entries[stray][1]
        )
    if not isinstance(opens, list) or not all(isinstance(o, list) for o in opens):
        raise ParseError("'opens' must be a list of point-name lists", line=op_line)
    index = {p: i for i, p in enumerate(points)}
    masks = []
    for open_set in opens:
        for p in open_set:
            if not isinstance(p, str) or p not in index:
                raise ParseError(f"open set mentions unknown point {p!r}", line=op_line)
        masks.append(mask_of(index[p] for p in open_set))
    return "space", name_value, points, masks


def loads(text: str) -> Tuple[str, str, Payload]:
    """Parse a document; returns (kind, name, object). Lattice and topology
    violations surface as their own validation errors."""
    kind, name, names, relation = parse(text)
    if kind == "lattice":
        return kind, name, lattice_from_poset(order_closure(names, relation))
    return kind, name, space_from_basis(names, relation)


def load_lattice(text: str) -> Tuple[str, DistLattice]:
    kind, name, obj = loads(text)
    if kind != "lattice":
        raise ParseError(f"expected a lattice document, found {kind!r}")
    return name, obj


def load_space(text: str) -> Tuple[str, FinSpace]:
    kind, name, obj = loads(text)
    if kind != "space":
        raise ParseError(f"expected a space document, found {kind!r}")
    return name, obj


def quoted(text: str) -> str:
    """A string as a document writes it: a JSON string literal, one line."""
    return json.dumps(text)


def dumps(obj: Payload, name: str) -> str:
    """Serialize a lattice or space in the normalized document form."""
    lines = []
    if isinstance(obj, DistLattice):
        lines.append('type: "lattice"')
        lines.append(f"name: {quoted(name)}")
        lines.append(f"elements: {json.dumps(list(obj.elements))}")
        pairs = [[a, b] for a, b in obj.cover_pairs()]
        lines.append(f"leq: {json.dumps(pairs)}")
    elif isinstance(obj, FinSpace):
        lines.append('type: "space"')
        lines.append(f"name: {quoted(name)}")
        lines.append(f"points: {json.dumps(list(obj.points))}")
        listed = [[obj.points[i] for i in bits(m)] for m in obj.opens]
        lines.append(f"opens: {json.dumps(listed)}")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
    return "\n".join(lines) + "\n"
