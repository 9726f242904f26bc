"""Syndrome complexes: networks read as M-of-N voting rules.

The final layer of a trained network is a set of N syndromes, each a
chain of formula rows over encoded feature bits: a unit reads one unit
of the layer before it and one feature.  A case is classified by
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
other lines, and by to_formula_table to quote names.  A name holding a
line break cannot be written.

Every decision runs the unit statements of one SlotProgram, built once
per complex.  A batch of rows and a grid run them over bitset columns;
a single case runs the same function on one bit per slot, its mask
m = 1.  A count of class-1 votes becomes a decision only through
vote_levels, vote_decision tabulated for m1 = 0..N, indexed by the
count.

On its first run a program is compiled by one `exec` into one Python
function, whose statements are the units' catalog formulas
(logic.FORMULAS) over slot numbers; no model text enters the source.
An lru_cache keeps it per distinct program, because
`cli.main(["classify", ...])` parses its model anew on every call, so
the compile is paid once per program on its first run.  record.py
generates no code: there it would be paid by every class at every
import.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from functools import cache, cached_property, lru_cache
from operator import itemgetter

from .encoding import KINDS, Encoder
from .errors import EvaluationError, ModelFormatError
from .logic import FORMULAS, function_ids, truth_row
from .record import record

TYPE_CHECKING = False    # typing.TYPE_CHECKING, without importing typing
if TYPE_CHECKING:
    from collections.abc import Mapping, Sequence

__all__ = [
    "SignedDecision",
    "vote_decision",
    "vote_levels",
    "describe_decision",
    "SyndromeComplex",
    "SlotProgram",
    "Row",
    "extract",
    "evaluate",
    "vote_counts",
    "decision_levels",
    "to_formula_table",
    "parse_formula_table",
    "symbolic",
]


@record
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


@record
class Row:
    """One formula table line: y_ident = g_fn(y_left, x_right)."""

    ident: int
    fn: int
    left: int
    right: int


@record
class SlotProgram:
    """A complex as straight-line code over numbered slots.

    The first slots hold the referenced features in ascending id order;
    each unit (truth_row, left_slot, right_slot) appends one more.  Only
    units that feed the final layer are kept, in layer order, so a
    shared ancestor runs once.  `outputs` are the syndromes' slots.
    """

    features: tuple[int, ...]
    units: tuple[tuple[tuple[int, int, int, int], int, int], ...]
    outputs: tuple[int, ...]

    def compiled(self):
        """The bitset program _compile makes of this one, compiled on
        first use."""
        try:
            return self._compiled
        except AttributeError:
            # Kept on the instance, so a later run or decision hashes no
            # units.  Set as an attribute: a cached_property writes
            # self.__dict__, which slows every later field read (see record.py).
            program = _compile(self.features, self.units, self.outputs)
            object.__setattr__(self, "_compiled", program)
            return program

    def run(self, columns: Sequence[int], n: int) -> list[int]:
        """Syndrome outputs over n cases from one column per feature, all
        bitsets held as ints with bit r for case r."""
        return self.compiled()(*columns, (1 << n) - 1)

    @classmethod
    def of(cls, layers: list[list[Row]], extended: bool) -> "SlotProgram":
        """Compile formula-table layers; units that feed nothing are left out."""
        live = _live_rows(layers)
        features = _referenced(live)
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


# How many distinct compiled programs are kept across instances.
_COMPILED_PROGRAMS = 64


@lru_cache(maxsize=_COMPILED_PROGRAMS)
def _compile(features: tuple[int, ...], units: tuple, outputs: tuple[int, ...]):
    """One function program(s0, ..., s{width-1}, m=1) -> output slots: unit
    k is the statement s{width+k} = formula, its truth row's catalog
    formula over its two slots.  A formula holding a complement is
    masked, m & (formula), to the n bits of m; &, | and ^ of n-bit
    inputs are n-bit already.

    One case runs it at its default m = 1.  Its attribute `get` reads the
    slots from a mapping of feature id -> bit as a tuple, and `levels` is
    indexed by the count of output slots that equal 1, which a sum of
    numpy uint8 bits would wrap past 255."""
    width = len(features)
    body = []
    for k, (truth, left, right) in enumerate(units, start=width):
        formula = FORMULAS[truth].replace("u1", f"s{left}").replace("u2", f"s{right}")
        body.append(f"    s{k} = m & ({formula})" if "~" in formula else f"    s{k} = {formula}")
    lines = [f"def program({''.join(f's{s}, ' for s in range(width))}m=1):", *body,
             f"    return [{', '.join(f's{s}' for s in outputs)}]"]
    namespace = {}
    exec("\n".join(lines), namespace)
    program = namespace["program"]
    # itemgetter of one key returns the bare value, not a tuple of it
    program.get = itemgetter(*features) if width > 1 else lambda a, f=features[0]: (a[f],)
    program.levels = vote_levels(len(outputs))
    return program


def _live_rows(layers: list[list[Row]]) -> list[list[Row]]:
    """The rows of each layer that feed the final layer."""
    live = [layers[-1]]
    for layer in reversed(layers[:-1]):
        wanted = {row.left for row in live[0]}
        live.insert(0, [row for row in layer if row.ident in wanted])
    return live


def _referenced(live: list[list[Row]]) -> list[int]:
    """The feature ids that live rows read, ascending."""
    return sorted({row.left for row in live[0]} | {row.right for layer in live for row in layer})


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
    class_names: tuple[str, str]
    extended: bool

    @property
    def n(self) -> int:
        return len(self.layers[-1])

    @cached_property
    def syndromes(self) -> list[tuple[Row, ...]]:
        """Each final-layer unit as the rows of its chain, layer 1 first,
        built on first use.  Nothing in mofn reads it; the benchmark's
        `bench/workloads.walk_decision` does."""
        chains = {row.ident: (row,) for row in self.layers[0]}
        for layer in self.layers[1:]:
            chains = {row.ident: (*chains[row.left], row) for row in layer}
        return [chains[row.ident] for row in self.layers[-1]]

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
    features = {j: net.encoders[j] for j in _referenced(layers)}
    return SyndromeComplex(features, layers, tuple(net.class_names), net.config.extended_catalog)


_BITS = frozenset((0, 1))


def evaluate(sc: SyndromeComplex, assignment: Mapping[int, int]) -> SignedDecision:
    """Majority vote of all syndromes on one assignment of feature id -> bit.

    When every value equals 0 or 1, the program runs on the referenced
    ones at m = 1, so a value on an unread feature is only compared with
    0 and 1, and 1.0 passes there.  A missing referenced feature is named.
    Any other fault drops to a scan that names the first value that is
    not 0 or 1 as an integer: 1.0 equals 1 but takes no bitwise operator.
    If the scan finds none, the bits are numpy integers of mixed types,
    which & and ^ promote to float, and they decide as the ints they equal."""
    program = sc.program.compiled()
    try:
        if _BITS.issuperset(assignment.values()):
            return program.levels[program(*program.get(assignment)).count(1)]
    except KeyError as exc:
        raise EvaluationError(f"no bit assigned for feature {exc.args[0]}") from None
    except TypeError:    # an unhashable value, a float bit, or numpy bits of mixed types
        pass
    for ident, bit in assignment.items():
        try:
            if bit in _BITS and bit | 0 == bit:
                continue
        except TypeError:    # unhashable, or no bitwise operator
            pass
        raise EvaluationError(f"feature {ident}: {bit!r} is not a bit")
    return program.levels[program(*map(int, program.get(assignment))).count(1)]


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


def _quote(name: str) -> str:
    """A name as a model line holds it, quoted by shlex.quote.  A line
    break would cut the line in two when the file is read back, so a
    name holding one cannot be written."""
    if "\n" in name or "\r" in name:
        raise ModelFormatError(f"cannot write {name!r} to a model file: it holds a line break")
    import shlex

    return shlex.quote(name)


def _format_feature(ident: int, enc: Encoder) -> str:
    parts = ["feature", str(ident), _quote(enc.feature), f"kind={enc.kind}"]
    if enc.kind == "quantitative" and enc.threshold is not None:
        parts.append(f"u={enc.threshold!r}")
    if enc.kind == "nominal" and enc.category is not None:
        parts.append(f"category={_quote(enc.category)}")
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
    sc = model if isinstance(model, SyndromeComplex) else model.complex
    lines = []
    if sc.extended:
        lines.append("catalog extended")
    lines.append(f"classes {_quote(sc.class_names[0])} {_quote(sc.class_names[1])}")
    for ident in sorted(sc.features):
        lines.append(_format_feature(ident, sc.features[ident]))
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
    given = set()
    for tok in tokens[3:]:
        key, sep, val = tok.partition("=")
        if key in given:
            raise ModelFormatError(f"line {lineno}: attribute {key!r} given twice")
        given.add(key)
        if tok == "degenerate":
            degenerate = True
            continue
        if not sep:
            raise ModelFormatError(f"line {lineno}: bad feature attribute {tok!r}")
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
    if kind == "nominal" and not category and not degenerate:    # None, or ''
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


def parse_formula_table(text: str) -> SyndromeComplex:
    """Parse formula table text into a syndrome complex.

    The file's catalog line, if any, decides the catalog; without one it
    is the standard catalog.  Blank lines and # comments are ignored.
    Raises ModelFormatError for unknown function ids, references to
    undefined units or features, duplicate ids, a second catalog or
    classes line, an attribute given twice on one feature line, and
    malformed lines.
    """
    class_names = ("0", "1")
    features: dict[int, Encoder] = {}
    names: set[str] = set()
    layers: list[dict[int, Row]] = []    # unit id -> row, in file order
    extended = False
    given = set()    # the catalog and classes lines read so far

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
        if head in ("catalog", "classes"):
            if head in given:
                raise ModelFormatError(f"line {lineno}: second {head} line")
            given.add(head)
        if head == "catalog":
            if layers or features:
                raise ModelFormatError(
                    f"line {lineno}: catalog line must precede declarations"
                )
            if len(tokens) != 2 or tokens[1] not in ("standard", "extended"):
                raise ModelFormatError(
                    f"line {lineno}: expected 'catalog standard' or 'catalog extended'"
                )
            extended = tokens[1] == "extended"
        elif head == "classes":
            if len(tokens) != 3 or tokens[1] == tokens[2]:
                raise ModelFormatError(
                    f"line {lineno}: classes needs two distinct names"
                )
            class_names = (tokens[1], tokens[2])
        elif head == "feature":
            if layers:
                raise ModelFormatError(
                    f"line {lineno}: feature declared after layer rows"
                )
            ident, enc = _parse_feature_line(tokens, lineno)
            if ident in features:
                raise ModelFormatError(f"line {lineno}: duplicate feature id {ident}")
            if enc.feature in names:
                raise ModelFormatError(
                    f"line {lineno}: duplicate feature name {enc.feature!r}"
                )
            features[ident] = enc
            names.add(enc.feature)
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
            layers.append({})
        else:
            if not layers:
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
            _add_row(Row(ident, fn, left, right), layers, features, extended, lineno)

    if not layers or not layers[-1]:
        raise ModelFormatError("model has no final layer units")

    return SyndromeComplex(features, [list(layer.values()) for layer in layers], class_names,
                           extended)


def _add_row(
    row: Row,
    layers: list[dict[int, Row]],
    features: dict[int, Encoder],
    extended: bool,
    lineno: int,
) -> None:
    """Add a unit row to the last layer, or refuse it."""
    if row.fn not in function_ids(extended):
        raise ModelFormatError(
            f"line {lineno}: unknown function id {row.fn}"
            + ("" if extended else " (standard catalog)")
        )
    if row.ident in layers[-1]:
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
            g = truth_row(row.fn, extended)
            if g[0] == g[3]:    # g(x, x) takes only the values g(0, 0) and g(1, 1)
                raise ModelFormatError(
                    f"line {lineno}: g_{row.fn}(x_{row.left}, x_{row.left}) is a constant bit"
                )
    else:
        if row.left not in layers[-2]:
            raise ModelFormatError(
                f"line {lineno}: unit y_{row.left} is not defined in layer {len(layers) - 1}"
            )
        if features[row.right].degenerate:
            raise ModelFormatError(
                f"line {lineno}: unit reads a degenerate feature"
            )
    layers[-1][row.ident] = row
