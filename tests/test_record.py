"""Record types behave as the dataclasses they replace.

Each record type of the package is checked against a twin that
`dataclasses.make_dataclass` builds, frozen, from the same fields and
defaults: construction by position and by keyword, defaults, `repr`, `==`,
`hash`, assignment, positional `case` patterns and the TypeError of a bad
call must all agree.
"""

import dataclasses

import pytest

from mofn import cli, config, data, encoding, logic, network, oracle, rules, tables
from mofn.errors import DataError, TrainingError

# Every record type of the package; each is checked against a frozen
# dataclass, so a type that lets a field be assigned shows.
TYPES = (
    config.TrainConfig,
    logic.LogicFunction,
    encoding.Encoder,
    encoding.EncodedDataset,
    rules.SignedDecision,
    rules.Row,
    rules.SlotProgram,
    rules.SyndromeComplex,
    data.FeatureSpec,
    network.Unit,
    network.TrainReport,
    network.Network,
    network._Layer,
    tables.DiagnosticTable,
)

# Two different values for each field, for the types whose __post_init__
# checks them; any values do for the others.
SAMPLES = {
    config.TrainConfig: ((64, 10, 1, False), (3, 2, 5, True)),
    data.FeatureSpec: (("age", "quantitative"), ("fever", "boolean")),
}


def twin(cls):
    """The dataclass that `cls` would be, built from its declaration."""
    specs = [(name, object, dataclasses.field(default=vars(cls)[name]))
             if name in vars(cls) else (name, object) for name in cls._fields]
    namespace = {"__post_init__": cls.__post_init__} if "__post_init__" in vars(cls) else {}
    return dataclasses.make_dataclass(cls.__name__, specs, frozen=True, namespace=namespace)


def samples(cls):
    if cls in SAMPLES:
        return SAMPLES[cls]
    return tuple(tuple((tag, j) for j in range(len(cls._fields))) for tag in "ab")


def outcome(call):
    """What a call gives: its value's repr, or its exception's type."""
    try:
        return repr(call())
    except Exception as exc:    # noqa: BLE001 - the type is what is compared
        return type(exc)


@pytest.mark.parametrize("cls", TYPES, ids=lambda cls: cls.__name__)
class TestAgainstDataclass:
    def test_fields_are_the_annotations(self, cls):
        assert cls._fields == tuple(cls.__annotations__)

    def test_construction_and_repr(self, cls):
        other = twin(cls)
        for values in samples(cls):
            by_keyword = dict(zip(cls._fields, values))
            assert repr(cls(*values)) == repr(other(*values))
            assert repr(cls(**by_keyword)) == repr(other(**by_keyword))
            half = len(values) // 2
            assert repr(cls(*values[:half], **dict(list(by_keyword.items())[half:]))) == \
                repr(cls(*values))

    def test_defaults(self, cls):
        other = twin(cls)
        required = [name for name in cls._fields if name not in vars(cls)]
        values = samples(cls)[0][:len(required)]
        assert repr(cls(*values)) == repr(other(*values))
        for name in cls._fields[len(required):]:
            assert getattr(cls, name) == getattr(other, name)

    def test_bad_calls_raise_type_errors(self, cls):
        other = twin(cls)
        values = samples(cls)[0]
        first = cls._fields[0]
        calls = [(values + ("extra",), {}), (values, {"nosuch": 1}), (values, {first: values[0]})]
        if first not in vars(cls):    # the first field is required
            calls.append(((), {}))
        for args, kwargs in calls:
            assert outcome(lambda: cls(*args, **kwargs)) is TypeError
            assert outcome(lambda: other(*args, **kwargs)) is TypeError

    def test_equality(self, cls):
        other = twin(cls)
        a, b = samples(cls)
        assert (cls(*a) == cls(*a)) is (other(*a) == other(*a)) is True
        assert (cls(*a) == cls(*b)) is (other(*a) == other(*b)) is False
        assert (cls(*a) != cls(*b)) is True
        assert cls(*a) != other(*a)    # only instances of one class are equal
        assert cls(*a) != a

    def test_hash_and_assignment(self, cls):
        other = twin(cls)
        a = samples(cls)[0]
        mine, theirs = cls(*a), other(*a)
        assert hash(mine) == hash(theirs)
        for obj in (mine, theirs):
            for name in cls._fields:
                for change in (lambda: setattr(obj, name, a[0]), lambda: delattr(obj, name)):
                    assert issubclass(outcome(change), AttributeError)
        assert mine == cls(*a)    # no field changed

    def test_positional_match(self, cls):
        a = samples(cls)[0]
        assert cls.__match_args__ == twin(cls).__match_args__ == cls._fields
        match cls(*a):
            case cls(first):
                assert first == a[0]
            case _:
                pytest.fail(f"no match for {cls.__name__}(first)")


def test_post_init_checks_every_construction():
    with pytest.raises(TrainingError, match="beam_width"):
        config.TrainConfig(beam_width=0)
    with pytest.raises(TrainingError, match="patience"):
        config.TrainConfig(64, 10, 0)
    with pytest.raises(DataError, match="unknown feature kind"):
        data.FeatureSpec("a", "fuzzy")


def test_settings_schema_is_train_config_fields():
    assert cli.CONFIG_KEYS == config.TrainConfig._fields == (
        "beam_width", "max_layers", "patience", "extended_catalog")
    assert [getattr(config.TrainConfig, key) for key in cli.CONFIG_KEYS] == [64, 10, 1, False]


def test_cached_properties_are_kept(ie_srl_text):
    sc = rules.parse_formula_table(ie_srl_text)
    assert sc.program is sc.program and sc.syndromes is sc.syndromes
    rules.evaluate(sc, dict.fromkeys(sc.program.features, 0))
    assert sc.program._compiled is sc.program._compiled
    ds = oracle.generate_planted(oracle.PlantedSpec(seed=1)).dataset
    enc = encoding.encode_dataset(ds)
    assert enc.feature_errors is enc.feature_errors
    net = network.train(ds)
    assert net.complex is net.complex
    for obj, name in [(sc, "program"), (sc, "syndromes"), (sc.program, "_compiled"),
                      (enc, "feature_errors"), (net, "complex")]:
        assert name in vars(obj)


def test_a_decided_complex_keeps_its_layers(ie_srl_text, postop_text):
    """A complex's program is kept from its first decision on, so a
    complex that could take another's layers would decide by the old ones."""
    sc = rules.parse_formula_table(ie_srl_text)
    anchor = {2: 1, 5: 1, 8: 0, 11: 0, 13: 0, 14: 0, 15: 0, 16: 0}
    assert rules.evaluate(sc, anchor).value == 6
    layers = rules.parse_formula_table(postop_text).layers
    with pytest.raises(AttributeError, match="^cannot assign to field 'layers'$"):
        sc.layers = layers
    with pytest.raises(AttributeError, match="^cannot delete field 'layers'$"):
        del sc.layers
    assert sc.layers is not layers and sc.n == 9
    assert rules.evaluate(sc, anchor) == rules.vote_decision(sc.n - 6, sc.n)
