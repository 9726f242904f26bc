"""Syndrome complexes: networks read as M-of-N voting rules.

The final layer of a trained network is a set of N syndromes, each an
expression tree over encoded feature bits.  A case is classified by
counting syndromes: M1 vote for class 1, M0 = N - M1 for class 0, the
majority wins with M = max(M0, M1) supporting votes, and the decision
is written as a signed value, +M for class 0 and -M for class 1.  An
exact tie is a contradictory decision with value 0.

A complex round-trips through a plain text formula table.  The format
lists feature declarations and then one block per layer; each row
`i j k l` defines unit y_i = g_j(y_k, x_l), where y_k refers to a unit
of the previous layer (in layer 1, to a feature x_k).  Function ids
are catalog ids and are never renumbered.

A line is tokenized as shlex.split(line, comments=True) reads it; a
line with no quote, backslash, # or non-ASCII character, and no
whitespace that str.split and shlex disagree on, is split by str.split,
which gives the same tokens faster; shlex is imported only for the
other lines, and by to_formula_table to quote names.

Every decision runs one SlotProgram, compiled once per complex, over
bitset columns: a single case, a batch of rows and a grid alike.  A
count of class-1 votes becomes a decision only through vote_levels,
vote_decision tabulated for m1 = 0..N, indexed by the count.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from functools import cache, cached_property

from .encoding import KINDS, Encoder
from .errors import EvaluationError, ModelFormatError
from .logic import function_ids, truth_row
from .record import record

TYPE_CHECKING = False    # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Mapping, Sequence

__all__ = [
    "SignedDecision",
    "vote_decision",
    "vote_levels",
    "describe_decision",
    "FeatureRef",
    "FnNode",
    "Expr",
    "SyndromeComplex",
    "SlotProgram",
    "Row",
    "extract",
    "evaluate",
    "syndrome_bits",
    "vote_counts",
    "decision_levels",
    "to_formula_table",
    "parse_formula_table",
    "symbolic",
]


@record(frozen=True)
class SignedDecision:
    """Outcome of one majority vote.

    value is +M for class 0, -M for class 1, 0 for a tie.  m is the
    winner's vote count max(m0, m1), n the number of syndromes, m1 the
    votes for class 1.
    """

    value: int
    m: int
    n: int
    m1: int

    @property
    def m0(self) -> int:
        return self.n - self.m1

    @property
    def klass(self) -> int | None:
        if self.value > 0:
            return 0
        if self.value < 0:
            return 1
        return None

    @property
    def contradictory(self) -> bool:
        return self.value == 0

    @property
    def confidence(self) -> float:
        return self.m / self.n


def vote_decision(m1: int, n: int) -> SignedDecision:
    """Build the signed decision for m1 of n syndromes voting class 1."""
    if not 0 <= m1 <= n or n < 1:
        raise EvaluationError(f"invalid vote count {m1} of {n}")
    m0 = n - m1
    if m0 > m1:
        return SignedDecision(value=m0, m=m0, n=n, m1=m1)
    if m1 > m0:
        return SignedDecision(value=-m1, m=m1, n=n, m1=m1)
    return SignedDecision(value=0, m=m0, n=n, m1=m1)


@cache
def vote_levels(n: int) -> tuple[SignedDecision, ...]:
    """vote_decision(m1, n) for m1 = 0..n, built once per n: index it
    with a class-1 count to decide."""
    return tuple(vote_decision(m1, n) for m1 in range(n + 1))


def describe_decision(d: SignedDecision, class_names: tuple[str, str] = ("0", "1")) -> str:
    if d.contradictory:
        return f"contradictory (0/{d.n})"
    return f"{class_names[d.klass]} ({d.value:+d}, {d.m}/{d.n})"


@record(frozen=True)
class FeatureRef:
    """Leaf: the encoded bit of feature x_<feature>."""

    feature: int


@record(frozen=True)
class FnNode:
    """Interior node: g_<fn> applied to two subexpressions."""

    fn: int
    left: "Expr"
    right: "Expr"


Expr = FeatureRef | FnNode


@record(frozen=True)
class Row:
    """One formula table line: y_ident = g_fn(y_left, x_right)."""

    ident: int
    fn: int
    left: int
    right: int


@record(frozen=True)
class SlotProgram:
    """A complex compiled to straight-line code over numbered slots.

    The first slots hold the referenced features in ascending id order;
    each unit (truth_row, left_slot, right_slot) appends one more.  Only
    units that feed the final layer are compiled, in layer order, so a
    shared ancestor runs once.  `outputs` are the syndromes' slots.
    """

    features: tuple[int, ...]
    units: tuple[tuple[tuple[int, int, int, int], int, int], ...]
    outputs: tuple[int, ...]

    def run(self, columns: Sequence[int], n: int) -> list[int]:
        """Syndrome outputs over n cases from one column per feature, all
        bitsets held as ints with bit r for case r.  A unit's output is
        the OR of the minterms its truth row selects."""
        mask = (1 << n) - 1
        slots = list(columns)
        for (f00, f01, f10, f11), left, right in self.units:
            a, b = slots[left], slots[right]
            both = a & b
            out = both if f11 else 0
            if f10:
                out |= a ^ both
            if f01:
                out |= b ^ both
            if f00:
                out |= mask ^ (a | b)
            slots.append(out)
        return [slots[s] for s in self.outputs]

    @classmethod
    def of(cls, layers: list[list[Row]], extended: bool) -> "SlotProgram":
        """Compile formula-table layers; units that feed nothing are left out."""
        live = _live_rows(layers)
        features = sorted(
            {row.left for row in live[0]} | {row.right for layer in live for row in layer}
        )
        feature_slot = {f: s for s, f in enumerate(features)}
        units, left_slot = [], feature_slot     # layer 1 reads a feature on the left
        for layer in live:
            unit_slot = {}
            for row in layer:
                unit_slot[row.ident] = len(features) + len(units)
                left, right = left_slot[row.left], feature_slot[row.right]
                units.append((truth_row(row.fn, extended), left, right))
            left_slot = unit_slot
        return cls(tuple(features), tuple(units), tuple(left_slot[row.ident] for row in live[-1]))


def _live_rows(layers: list[list[Row]]) -> list[list[Row]]:
    """The rows of each layer that feed the final layer."""
    live = [layers[-1]]
    for layer in reversed(layers[:-1]):
        wanted = {row.left for row in live[0]}
        live.insert(0, [row for row in layer if row.ident in wanted])
    return live


_SPREAD = bytes.maketrans(b"01", b"\0\1")


def vote_counts(bitsets: Sequence[int], n: int) -> array:
    """For each of n cases, how many of the bitsets have its bit set: one
    unsigned lane per case, a byte below 256 bitsets and wider beyond.

    The bitsets are first added bit-sliced, a ripple-carry add on ints
    that counts every case at once, so plane k holds bit k of each count.
    Each plane is then spread to one lane per case from its binary digits,
    and the spreads are added with weight 2**k.
    """
    planes: list[int] = []
    for carry in bitsets:
        k = 0
        while carry:
            if k == len(planes):
                planes.append(0)
            planes[k], carry = planes[k] ^ carry, planes[k] & carry
            k += 1
    code = next(c for c in "BHIQ" if len(bitsets) < 256 ** array(c).itemsize)
    width = array(code).itemsize
    lanes = bytearray(width * n)    # big-endian: the last lane is case 0
    total = 0
    for k, plane in enumerate(planes):
        lanes[width - 1 :: width] = format(plane, f"0{n}b").encode().translate(_SPREAD)
        total += int.from_bytes(lanes, "big") << k
    counts = array(code, total.to_bytes(width * n, "little"))
    if sys.byteorder == "big":
        counts.byteswap()
    return counts


@record
class SyndromeComplex:
    """N syndromes over declared features, held as their layered rows."""

    features: dict[int, Encoder]
    layers: list[list[Row]]
    class_names: tuple[str, str] = ("0", "1")
    extended: bool = False

    @property
    def n(self) -> int:
        return len(self.layers[-1])

    @cached_property
    def syndromes(self) -> list[Expr]:
        """Expression trees of the final-layer units, built on first use."""
        prev: dict[int, Expr] = {}
        for r, layer in enumerate(self.layers):
            prev = {
                row.ident: FnNode(
                    row.fn,
                    FeatureRef(row.left) if r == 0 else prev[row.left],
                    FeatureRef(row.right),
                )
                for row in layer
            }
        return [prev[row.ident] for row in self.layers[-1]]

    @cached_property
    def program(self) -> SlotProgram:
        """The layers compiled on first use, then kept."""
        return SlotProgram.of(self.layers, self.extended)

    def referenced_features(self) -> list[int]:
        return list(self.program.features)

    def feature_id(self, name: str) -> int:
        for ident, enc in self.features.items():
            if enc.feature == name:
                return ident
        raise EvaluationError(f"no declared feature named {name!r}")


def decision_levels(sc: SyndromeComplex) -> tuple[int, int]:
    """Range of decisive vote counts: floor(N/2)+1 up to N."""
    return sc.n // 2 + 1, sc.n


def extract(net) -> SyndromeComplex:
    """Read a trained network's final layer as a syndrome complex.

    Unit ids are assigned per layer as 1..K in selection order; feature
    ids are the dataset column indices.  Units that do not feed the
    final layer are dropped, and declarations cover exactly the
    features the rest reference.
    """
    layers = _live_rows([
        [
            Row(p + 1, unit.fn, unit.left if r == 0 else unit.left + 1, unit.right)
            for p, unit in enumerate(layer)
        ]
        for r, layer in enumerate(net.layers)
    ])
    sc = SyndromeComplex({}, layers, tuple(net.class_names), net.config.extended_catalog)
    sc.features = {j: net.encoders[j] for j in sc.program.features}
    return sc


def syndrome_bits(sc: SyndromeComplex, assignment: Mapping[int, int]) -> list[int]:
    """Evaluate every syndrome on an assignment of feature id -> bit."""
    for ident, bit in assignment.items():
        if bit not in (0, 1):
            raise EvaluationError(f"feature {ident}: {bit!r} is not a bit")
    program = sc.program
    try:
        columns = [assignment[f] for f in program.features]
    except KeyError as exc:
        raise EvaluationError(f"no bit assigned for feature {exc.args[0]}") from None
    return program.run(columns, 1)


def evaluate(sc: SyndromeComplex, assignment: Mapping[int, int]) -> SignedDecision:
    """Majority vote of all syndromes on one assignment."""
    return vote_levels(sc.n)[sum(syndrome_bits(sc, assignment))]


def symbolic(sc: SyndromeComplex) -> list[str]:
    """Render the complex in symbolic form, one definition per line."""
    lines = []
    for r, layer in enumerate(sc.layers[:-1], start=1):
        for row in layer:
            left = f"x_{row.left}" if r == 1 else f"y_{row.left}"
            lines.append(
                f"y_{row.ident} = g_{row.fn}({left}, x_{row.right})"
            )
    terms = []
    depth = len(sc.layers)
    for row in sc.layers[-1]:
        left = f"x_{row.left}" if depth == 1 else f"y_{row.left}"
        terms.append(f"g_{row.fn}({left}, x_{row.right})")
    lines.append(f"y = M-of-{sc.n}({', '.join(terms)})")
    return lines


def _format_feature(ident: int, enc: Encoder, quote) -> str:
    parts = ["feature", str(ident), quote(enc.feature), f"kind={enc.kind}"]
    if enc.kind == "quantitative" and enc.threshold is not None:
        parts.append(f"u={enc.threshold!r}")
    if enc.kind == "nominal" and enc.category is not None:
        parts.append(f"category={quote(enc.category)}")
    if not enc.degenerate:
        parts.append(f"h={enc.polarity}")
    if enc.error is not None:
        parts.append(f"e={enc.error}")
    if enc.degenerate:
        parts.append("degenerate")
    return " ".join(parts)


def to_formula_table(model) -> str:
    """Serialize a network or complex to canonical formula table text.

    Canonical means: no comments, catalog line only when extended,
    classes line always, features sorted by id, layers in order with
    rows in stored order.  Parsing and reprinting canonical text is the
    identity.
    """
    from shlex import quote

    sc = model if isinstance(model, SyndromeComplex) else extract(model)
    lines = []
    if sc.extended:
        lines.append("catalog extended")
    lines.append(f"classes {quote(sc.class_names[0])} {quote(sc.class_names[1])}")
    for ident in sorted(sc.features):
        lines.append(_format_feature(ident, sc.features[ident], quote))
    for r, layer in enumerate(sc.layers, start=1):
        lines.append(f"layer {r}")
        for row in layer:
            lines.append(f"{row.ident} {row.fn} {row.left} {row.right}")
    return "\n".join(lines) + "\n"


def _parse_feature_line(tokens: list[str], lineno: int) -> tuple[int, Encoder]:
    if len(tokens) < 3:
        raise ModelFormatError(f"line {lineno}: feature needs an id and a name")
    try:
        ident = int(tokens[1])
    except ValueError:
        raise ModelFormatError(
            f"line {lineno}: feature id {tokens[1]!r} is not an integer"
        ) from None
    if ident < 0:
        raise ModelFormatError(f"line {lineno}: feature id must be non-negative")
    name = tokens[2]
    kind = "boolean"
    threshold = None
    category = None
    polarity = 1
    error = None
    degenerate = False
    for tok in tokens[3:]:
        if tok == "degenerate":
            degenerate = True
            continue
        if "=" not in tok:
            raise ModelFormatError(f"line {lineno}: bad feature attribute {tok!r}")
        key, _, val = tok.partition("=")
        try:
            if key == "kind":
                kind = val
            elif key == "u":
                threshold = float(val)
                if not math.isfinite(threshold):
                    raise ValueError
            elif key == "h":
                polarity = int(val)
                if polarity not in (0, 1):
                    raise ValueError
            elif key == "category":
                category = val
            elif key == "e":
                error = int(val)
            else:
                raise ModelFormatError(
                    f"line {lineno}: unknown feature attribute {key!r}"
                )
        except ValueError:
            raise ModelFormatError(
                f"line {lineno}: bad value {val!r} for attribute {key!r}"
            ) from None
    if kind not in KINDS:
        raise ModelFormatError(f"line {lineno}: unknown kind {kind!r}")
    if kind == "quantitative" and threshold is None and not degenerate:
        raise ModelFormatError(
            f"line {lineno}: quantitative feature {name!r} needs a threshold u="
        )
    if kind == "nominal" and category is None and not degenerate:
        raise ModelFormatError(
            f"line {lineno}: nominal feature {name!r} needs a category="
        )
    return ident, Encoder(name, kind, polarity, threshold, category, error, degenerate)


# Where shlex and str.split can differ on an ASCII line: quotes, escapes,
# comments, and the ASCII whitespace that str.split splits on and shlex
# does not.  Non-ASCII lines, which may hold more such whitespace, are
# left to shlex by an isascii test: a character class spanning them
# takes about 10 ms to compile, on every import.
_SHELL_SYNTAX = re.compile(r"""['"\\#\x0b\x0c\x1c-\x1f]""")


def _split_line(raw: str) -> list[str]:
    """The tokens of one model line, as shlex.split(raw, comments=True)
    gives them; an ASCII line without shell syntax is split by str.split."""
    if raw.isascii() and _SHELL_SYNTAX.search(raw) is None:
        return raw.split()
    import shlex

    return shlex.split(raw, comments=True)


def parse_formula_table(text: str, extended: bool | None = None) -> SyndromeComplex:
    """Parse formula table text into a syndrome complex.

    `extended` forces the catalog; by default the file's own catalog
    line (if any) decides.  Blank lines and # comments are ignored.
    Raises ModelFormatError for unknown function ids, references to
    undefined units or features, duplicate ids, and malformed lines.
    """
    class_names = ("0", "1")
    features: dict[int, Encoder] = {}
    layers: list[list[Row]] = []
    file_extended: bool | None = None
    in_layers = False

    # Lines end at "\n" only: str.splitlines would also cut a quoted name
    # at \x1c-\x1e, \x85, \u2028, \v or \f.
    for lineno, raw in enumerate(text.split("\n"), start=1):
        try:
            tokens = _split_line(raw.removesuffix("\r"))
        except ValueError as exc:
            raise ModelFormatError(f"line {lineno}: {exc}") from None
        if not tokens:
            continue
        head = tokens[0]
        if head == "catalog":
            if in_layers or features:
                raise ModelFormatError(
                    f"line {lineno}: catalog line must precede declarations"
                )
            if len(tokens) != 2 or tokens[1] not in ("standard", "extended"):
                raise ModelFormatError(
                    f"line {lineno}: expected 'catalog standard' or 'catalog extended'"
                )
            file_extended = tokens[1] == "extended"
        elif head == "classes":
            if len(tokens) != 3 or tokens[1] == tokens[2]:
                raise ModelFormatError(
                    f"line {lineno}: classes needs two distinct names"
                )
            class_names = (tokens[1], tokens[2])
        elif head == "feature":
            if in_layers:
                raise ModelFormatError(
                    f"line {lineno}: feature declared after layer rows"
                )
            ident, enc = _parse_feature_line(tokens, lineno)
            if ident in features:
                raise ModelFormatError(f"line {lineno}: duplicate feature id {ident}")
            if any(e.feature == enc.feature for e in features.values()):
                raise ModelFormatError(
                    f"line {lineno}: duplicate feature name {enc.feature!r}"
                )
            features[ident] = enc
        elif head == "layer":
            if len(tokens) != 2:
                raise ModelFormatError(f"line {lineno}: layer needs a number")
            try:
                r = int(tokens[1])
            except ValueError:
                raise ModelFormatError(
                    f"line {lineno}: layer number {tokens[1]!r} is not an integer"
                ) from None
            if r != len(layers) + 1:
                raise ModelFormatError(
                    f"line {lineno}: expected layer {len(layers) + 1}, got {r}"
                )
            layers.append([])
            in_layers = True
        else:
            if not in_layers:
                raise ModelFormatError(
                    f"line {lineno}: unexpected directive {head!r}"
                )
            if len(tokens) != 4:
                raise ModelFormatError(
                    f"line {lineno}: unit row needs four integers"
                )
            try:
                ident, fn, left, right = (int(t) for t in tokens)
            except ValueError:
                raise ModelFormatError(
                    f"line {lineno}: unit row needs four integers"
                ) from None
            layers[-1].append(Row(ident, fn, left, right))
            _check_row(layers, features, file_extended if extended is None else extended, lineno)

    use_extended = extended if extended is not None else bool(file_extended)
    if not layers or not layers[-1]:
        raise ModelFormatError("model has no final layer units")
    for r, layer in enumerate(layers, start=1):
        if not layer:
            raise ModelFormatError(f"layer {r} has no units")

    return SyndromeComplex(features, layers, class_names, use_extended)


def _check_row(
    layers: list[list[Row]],
    features: dict[int, Encoder],
    extended: bool | None,
    lineno: int,
) -> None:
    row = layers[-1][-1]
    if row.fn not in function_ids(bool(extended)):
        raise ModelFormatError(
            f"line {lineno}: unknown function id {row.fn}"
            + ("" if extended else " (standard catalog)")
        )
    if any(other.ident == row.ident for other in layers[-1][:-1]):
        raise ModelFormatError(
            f"line {lineno}: duplicate unit id {row.ident} in layer {len(layers)}"
        )
    if row.right not in features:
        raise ModelFormatError(
            f"line {lineno}: undeclared feature x_{row.right}"
        )
    if len(layers) == 1:
        if row.left not in features:
            raise ModelFormatError(
                f"line {lineno}: undeclared feature x_{row.left}"
            )
        if features[row.left].degenerate or features[row.right].degenerate:
            raise ModelFormatError(
                f"line {lineno}: unit reads a degenerate feature"
            )
        if row.left == row.right:
            g = truth_row(row.fn, bool(extended))
            if g[0] == g[3]:    # g(x, x) takes only the values g(0, 0) and g(1, 1)
                raise ModelFormatError(
                    f"line {lineno}: g_{row.fn}(x_{row.left}, x_{row.left}) is a constant bit"
                )
    else:
        if not any(prev.ident == row.left for prev in layers[-2]):
            raise ModelFormatError(
                f"line {lineno}: unit y_{row.left} is not defined in layer {len(layers) - 1}"
            )
        if features[row.right].degenerate:
            raise ModelFormatError(
                f"line {lineno}: unit reads a degenerate feature"
            )
