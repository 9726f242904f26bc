"""Training loop behavior: selection, growth, pruning, determinism."""

import pathlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mofn import encoding, network
from mofn.data import Dataset, FeatureSpec, load_csv
from mofn.encoding import EncodedDataset, Encoder, encode_dataset
from mofn.errors import EncodingError, EvaluationError, TrainingError
from mofn.logic import function_ids, truth_row
from mofn.network import (
    TrainConfig, build_first_layer, classify, grow_layer, train,
)
from mofn.encoding import encode_value
from mofn.oracle import PlantedSpec, exhaustive_decision_check, generate_planted
from mofn.rules import evaluate, extract, to_formula_table

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def xor_dataset():
    """Two boolean inputs, label = parity. The classic non-linear case."""
    return Dataset(
        features=[FeatureSpec("a", "boolean"), FeatureSpec("b", "boolean")],
        rows=[(0, 0), (0, 1), (1, 0), (1, 1)],
        labels=np.array([0, 1, 1, 0]),
    )


def planted(seed, **kw):
    spec = PlantedSpec(seed=seed, **kw)
    return generate_planted(spec)


class TestXorGolden:
    """Hand-checkable four-row problem."""

    def test_single_unit_solves_it(self):
        net = train(xor_dataset(), TrainConfig(beam_width=8))
        assert len(net.layers) == 1
        assert net.n_syndromes == 1
        unit = net.layers[0][0]
        assert unit.error == 0
        # y = g_5(a, b) with g_5 = (a & ~b) | (~a & b)
        assert (unit.fn, unit.left, unit.right) == (5, 0, 1)

    def test_classification_is_exact(self):
        ds = xor_dataset()
        net = train(ds, TrainConfig(beam_width=8))
        for row, want in zip(ds.rows, ds.labels):
            decision = classify(net, dict(zip(["a", "b"], row)))
            assert decision.klass == int(want)
        assert net.report.vote_error == 0

    def test_first_layer_selection_bound(self):
        """Survivors of layer 1 never exceed the better input feature error."""
        ds = xor_dataset()
        enc = encode_dataset(ds)
        layer = build_first_layer(enc, TrainConfig(beam_width=64))
        feat_err = np.array(enc.errors)
        assert len(layer) > 0
        assert np.all(layer.error <= np.minimum(feat_err[layer.left], feat_err[layer.right]))


class TestSelectionInvariants:
    """Properties every trained network must satisfy."""

    SEEDS = [3, 5, 8, 11, 17, 23]

    def test_stored_errors_match_recount(self):
        for seed in self.SEEDS:
            p = planted(seed, n_features=5, n_rows=16, n_syndromes=1)
            net = train(p.dataset, TrainConfig())
            # the input bits, encoded row by row with the fitted encoders
            x = np.array([[encode_value(e, v) for e, v in zip(net.encoders, row)]
                          for row in p.dataset.rows])
            # replay the whole cascade and recount every unit's error
            cols = {}
            for r, layer in enumerate(net.layers):
                nxt = {}
                for idx, u in enumerate(layer):
                    a = cols[u.left] if r else x[:, u.left]
                    b = x[:, u.right]
                    table = np.array(truth_row(u.fn, False), dtype=np.uint8)
                    out = table[(a.astype(np.int64) << 1) | b]
                    recount = int(np.count_nonzero(out != p.dataset.labels))
                    assert recount == u.error, (seed, r, idx)
                    nxt[idx] = out
                cols = nxt

    def test_layer_minima_never_increase(self):
        for seed in self.SEEDS:
            p = planted(seed, n_features=6, n_rows=20, n_syndromes=3)
            net = train(p.dataset, TrainConfig(patience=2))
            mins = [min(u.error for u in layer) for layer in net.layers]
            assert mins == sorted(mins, reverse=True)

    def test_growth_respects_input_errors(self):
        """A surviving unit is never worse than its best input."""
        for seed in self.SEEDS:
            p = planted(seed, n_features=5, n_rows=16, n_syndromes=3)
            net = train(p.dataset, TrainConfig(patience=2))
            enc = encode_dataset(p.dataset)
            feat_err = enc.errors
            prev = None
            for r, layer in enumerate(net.layers):
                for u in layer:
                    left_err = feat_err[u.left] if r == 0 else prev[u.left].error
                    assert u.error <= left_err
                    assert u.error <= feat_err[u.right]
                prev = layer

    def test_final_layer_is_uniform_best(self):
        for seed in self.SEEDS:
            p = planted(seed, n_features=6, n_rows=18, n_syndromes=3)
            net = train(p.dataset, TrainConfig(patience=2))
            best = min(u.error for u in net.layers[-1])
            assert all(u.error == best for u in net.layers[-1])

    def test_beam_width_caps_layers(self):
        p = planted(7, n_features=6, n_rows=20, n_syndromes=3)
        net = train(p.dataset, TrainConfig(beam_width=5, patience=2))
        assert all(len(layer) <= 5 for layer in net.layers)

    def test_no_duplicate_outputs_within_layer(self):
        p = planted(9, n_features=5, n_rows=16, n_syndromes=3)
        enc = encode_dataset(p.dataset)
        layer = build_first_layer(enc, TrainConfig(beam_width=256))
        seen = {row.tobytes() for row in layer.outputs}
        assert len(seen) == len(layer) == len(layer.outputs)

    @pytest.mark.parametrize("beam_width", [4, 64])
    def test_layer_arrays_contract(self, beam_width):
        """A layer is parallel arrays, one entry per kept unit: what the
        benchmark counts with `len` and what `grow_layer` reads back."""
        p = planted(2, n_features=8, n_rows=100, n_syndromes=3)
        enc = encode_dataset(p.dataset)
        config = TrainConfig(beam_width=beam_width)
        first = build_first_layer(enc, config)
        grown = grow_layer(first, enc, config)
        for layer in (first, grown):
            n = len(layer)
            assert 0 < n <= beam_width
            for column in (layer.error, layer.fn, layer.left, layer.right):
                assert column.shape == (n,)
            assert layer.error.dtype == np.int64
            assert np.all(np.diff(layer.error) >= 0)
            assert layer.outputs.dtype == np.uint64
            assert layer.outputs.shape == (n, enc.ones.shape[-1]) == (n, 2)
            assert len({row.tobytes() for row in layer.outputs}) == n
            for row in layer.outputs:
                _bits(row, p.dataset.n)    # asserts the tail bits are zero
        # a full beam at width 4; at 64, fewer survivors than the beam
        assert [len(first), len(grown)] == {4: [4, 4], 64: [16, 53]}[beam_width]


class TestDeterminism:
    def test_same_data_same_network(self):
        p = planted(13, n_features=6, n_rows=20, n_syndromes=3)
        a = train(p.dataset, TrainConfig(patience=2))
        b = train(p.dataset, TrainConfig(patience=2))
        assert len(a.layers) == len(b.layers)
        for la, lb in zip(a.layers, b.layers):
            assert [(u.fn, u.left, u.right, u.error) for u in la] == [
                (u.fn, u.left, u.right, u.error) for u in lb
            ]


def small_planted(seed):
    return planted(seed, n_features=5, n_rows=16, n_syndromes=3).dataset


class TestGrowAndSelect:
    """`grow` names the rule that stopped it; `select` keeps the earliest
    layer at the best error, cut to the units that reach it."""

    @pytest.mark.parametrize("seed, config, reason, sizes, mins", [
        (1, TrainConfig(), "zero error", [17, 37, 1], [3, 1, 0]),
        (2, TrainConfig(beam_width=2), "no survivor", [1], [2]),
        (0, TrainConfig(beam_width=2), "regression", [1], [2]),
        (0, TrainConfig(), "stall", [1], [2]),    # grows [13, 43] at errors [2, 2]
        (0, TrainConfig(max_layers=1), "depth cap", [1], [2]),
    ])
    def test_report_names_the_stop_rule(self, seed, config, reason, sizes, mins):
        report = train(small_planted(seed), config).report
        assert (report.stop_reason, report.layer_sizes, report.layer_min_errors) == (
            reason, sizes, mins)

    def test_zero_error_wins_over_the_depth_cap(self):
        assert train(xor_dataset(), TrainConfig(max_layers=1)).report.stop_reason == "zero error"

    def test_select_cuts_to_the_earliest_best_layer(self):
        def layer(*errors):
            e = np.array(errors, dtype=np.int64)
            return network._Layer(e, e, e, e, np.zeros((len(e), 1), dtype=np.uint64))

        layers = [layer(3, 4), layer(2, 2, 2, 5), layer(2, 3)]
        kept, n_syndromes = network.select(layers)
        assert len(kept) == 2 and all(a is b for a, b in zip(kept, layers))
        assert n_syndromes == 3

    @pytest.mark.parametrize("seed, config, grown", [
        (1, TrainConfig(), 2),
        (0, TrainConfig(beam_width=2), 1),     # the one grown layer regresses
        (0, TrainConfig(max_layers=1), 0),
    ])
    def test_layers_are_grown_through_the_module_functions(
            self, monkeypatch, seed, config, grown):
        """The benchmark times each layer by patching these two module
        attributes, so `train` must look them up when it calls them."""
        calls = []
        for name in ("build_first_layer", "grow_layer"):
            def counted(*args, real=getattr(network, name), name=name):
                calls.append(name)
                return real(*args)
            monkeypatch.setattr(network, name, counted)
        train(small_planted(seed), config)
        assert calls == ["build_first_layer"] + ["grow_layer"] * grown


class TestDegenerateInputs:
    def test_all_flat_features_refused(self):
        with pytest.warns(UserWarning, match="conflicting"):
            ds = Dataset(
                features=[FeatureSpec("a", "boolean"), FeatureSpec("b", "boolean")],
                rows=[(0, 1), (0, 1), (0, 1), (0, 1)],
                labels=np.array([0, 1, 0, 1]),
            )
        with pytest.raises(TrainingError, match="informative"):
            train(ds)

    def test_single_informative_feature_refused(self):
        """Pairing needs two distinct informative columns."""
        ds = Dataset(
            features=[FeatureSpec("a", "boolean"), FeatureSpec("b", "boolean")],
            rows=[(0, 1), (1, 1), (0, 1), (1, 1)],
            labels=np.array([0, 1, 0, 1]),
        )
        with pytest.raises(TrainingError, match="informative"):
            train(ds)

    def test_train_config_validation(self):
        with pytest.raises(TrainingError):
            TrainConfig(beam_width=0)
        with pytest.raises(TrainingError):
            TrainConfig(max_layers=0)
        with pytest.raises(TrainingError):
            TrainConfig(patience=0)

    @pytest.mark.parametrize("key, value, expected", [
        ("beam_width", 2.5, "an integer"),    # a bare TypeError in the beam cut before
        ("max_layers", 2.5, "an integer"),    # the depth cap never fired
        ("patience", 1.5, "an integer"),      # the stall rule never fired
        ("beam_width", True, "an integer"),   # trained with a beam of 1
        ("extended_catalog", "no", "true or false"),    # wrote `catalog extended`
        ("extended_catalog", 1, "true or false"),
    ])
    def test_train_config_checks_each_field_type(self, key, value, expected):
        """A library call is checked as a flag or a config file is: each
        field must have its default's type, before its range."""
        with pytest.raises(TrainingError, match=f"^{key} must be {expected}, got {value!r}$"):
            TrainConfig(**{key: value})


class TestClassifyCoherence:
    def test_classify_matches_extracted_formula(self):
        for seed in (2, 4, 6):
            p = planted(seed, n_features=5, n_rows=16, n_syndromes=1)
            net = train(p.dataset, TrainConfig(patience=2))
            sc = extract(net)
            for row in p.dataset.rows:
                named = dict(zip([f.name for f in p.dataset.features], row))
                a = classify(net, named)
                assignment = {
                    fid: encode_value(e, named[e.feature])
                    for fid, e in sc.features.items()
                }
                b = evaluate(sc, assignment)
                assert (a.value, a.m, a.n) == (b.value, b.m, b.n)

    def test_classify_needs_referenced_features_only(self):
        net = train(xor_dataset(), TrainConfig(beam_width=8))
        got = classify(net, {"a": 1, "b": 0})
        assert got.klass == 1

    def test_classify_missing_feature_raises(self):
        net = train(xor_dataset(), TrainConfig(beam_width=8))
        with pytest.raises(EvaluationError, match="'a'"):
            classify(net, {"b": 0})

    def test_classify_refuses_an_empty_nominal_value(self):
        """The golden mixed-kind model reads the nominal ward: an empty
        ward is refused, not read as "not north"."""
        ds = load_csv(GOLDEN / "csv_mixed_s2_ext.csv", label_column="outcome",
                      class_names=("well", "sick"))
        net = train(ds, TrainConfig(extended_catalog=True))
        row = dict(zip([f.name for f in ds.features], ds.rows[0]))
        classify(net, row)
        with pytest.raises(EncodingError, match="^feature 'ward': empty value$"):
            classify(net, {**row, "ward": ""})

    @pytest.mark.parametrize("seed", [3, 4, 10, 14])
    def test_vote_error_matches_an_oracle_recount(self, seed):
        """Noisy planted data whose trained rule has an even N: a row
        whose vote ties counts as an error, like a wrong one."""
        with pytest.warns(UserWarning, match="conflicting labels"):
            p = planted(seed, n_features=8, n_rows=60, n_syndromes=5, noise_flips=6)
        net = train(p.dataset)
        sc = extract(net)
        assert sc.n % 2 == 0
        decide = exhaustive_decision_check(sc)
        feats = sc.referenced_features()
        recount = [
            decide[tuple(encode_value(net.encoders[j], row[j]) for j in feats)]
            for row in p.dataset.rows
        ]
        assert any(d.contradictory for d in recount)
        wrong = sum(d.klass != int(y) for d, y in zip(recount, p.dataset.labels))
        assert net.report.vote_error == wrong

    def test_report_lines_render(self):
        net = train(xor_dataset(), TrainConfig(beam_width=8))
        text = "\n".join(net.report.lines(net.feature_names))
        assert "layer" in text
        assert "vote" in text
        assert text.endswith("\nstop rule: zero error")


# Reference growth: one catalog lookup per (left, right) pair over
# unpacked bit vectors, then a Python sort and dedup.  The packed kernel
# in mofn.network must select exactly what this selects.

def _reference_select(candidates, beam_width):
    candidates.sort(key=lambda c: c[:4])
    seen, kept = set(), []
    for c in candidates:
        key = c[4].tobytes()
        if key in seen:
            continue
        seen.add(key)
        kept.append(c)
        if len(kept) == beam_width:
            break
    return kept


def _reference_layer(x, y, active, config, prev=None):
    """(error, fn, left, right, outputs) of layer 1 over the bit matrix
    x (rows, features) and labels y, or of the layer grown on `prev`
    when given."""
    ids = function_ids(config.extended_catalog)
    truth = np.array([truth_row(i, config.extended_catalog) for i in ids],
                     dtype=np.uint8)
    feat_err = {j: int(np.sum(x[:, j] != y)) for j in active}
    if prev is None:
        lefts = [(j, x[:, j], feat_err[j]) for j in active]
    else:
        lefts = [(p, c[4], c[0]) for p, c in enumerate(prev)]
    candidates = []
    for left, col, left_err in lefts:
        for k in active:
            if prev is None and k == left:
                continue
            outputs = truth[:, (col << 1) | x[:, k]]
            errors = np.sum(outputs != y, axis=1)
            bound = min(left_err, feat_err[k])
            for f in np.nonzero(errors <= bound)[0]:
                if prev is not None and np.array_equal(outputs[f], col):
                    continue
                candidates.append(
                    (int(errors[f]), ids[f], left, k, outputs[f])
                )
    return _reference_select(candidates, config.beam_width)


def _words(bits):
    """Pack a 0/1 vector: row r at bit r % 64 of word r // 64."""
    padded = np.zeros(-(-len(bits) // 64) * 64, dtype=np.uint8)
    padded[: len(bits)] = bits
    return np.packbits(padded, bitorder="little").view("<u8")


def _bits(words, n_rows):
    """Row r of a packed output is bit r % 64 of word r // 64."""
    r = np.arange(64 * len(words))
    bits = (words[r // 64] >> (r % 64).astype(np.uint64)) & np.uint64(1)
    assert not bits[n_rows:].any(), "tail bits must be zero"
    return bits[:n_rows].astype(np.uint8)


@st.composite
def encoded_datasets(draw, max_features=8):
    """A packed EncodedDataset drawn at random, with the bit matrix and
    labels it packs.  Columns may copy or complement earlier ones, so
    many pairs give the same output words and selection must drop them."""
    n_rows = draw(st.sampled_from([1, 63, 64, 65, 130, 200]))
    n_features = draw(st.integers(2, max_features))
    bit = st.integers(0, 1)
    matrix = draw(arrays(np.uint8, (n_rows, n_features), elements=bit)).copy()
    for j in range(1, n_features):
        source = matrix[:, draw(st.integers(0, j - 1))]
        how = draw(st.sampled_from(["drawn", "copy", "complement"]))
        if how != "drawn":
            matrix[:, j] = source if how == "copy" else 1 - source
    labels = draw(arrays(np.uint8, n_rows, elements=bit))
    active = sorted(draw(st.lists(st.integers(0, n_features - 1), min_size=2,
                                  max_size=n_features, unique=True)))
    # each encoder holds its column's error, which layer 1 reads as feature_errors
    errors = np.count_nonzero(matrix != labels[:, None], axis=0).tolist()
    enc = EncodedDataset(
        encoders=[Encoder(f"x{j}", "boolean", error=e) for j, e in enumerate(errors)],
        features=np.array([_words(matrix[:, j]) for j in active]),
        labels=_words(labels),
        ones=_words(np.ones(n_rows, dtype=np.uint8)),
        active=active,
    )
    return enc, matrix, labels


class TestPackedKernel:
    @staticmethod
    def check_layers(enc, x, y, config):
        """Layer 1 and the layer grown on it select exactly what the
        per-pair reference selects."""
        def check(got, want):
            columns = (got.error, got.fn, got.left, got.right)
            assert list(zip(*(c.tolist() for c in columns))) == [w[:4] for w in want]
            assert len(got.outputs) == len(want)
            for row, w in zip(got.outputs, want):
                np.testing.assert_array_equal(_bits(row, len(y)), w[4])

        first = build_first_layer(enc, config)
        ref_first = _reference_layer(x, y, enc.active, config)
        check(first, ref_first)
        if first:
            check(grow_layer(first, enc, config),
                  _reference_layer(x, y, enc.active, config, ref_first))

    @settings(max_examples=150, deadline=None)
    @given(
        data=encoded_datasets(),
        beam_width=st.sampled_from([1, 2, 3, 16, 64, 1000]),
        extended=st.booleans(),
    )
    def test_matches_per_pair_reference(self, data, beam_width, extended):
        enc, x, y = data
        self.check_layers(enc, x, y, TrainConfig(beam_width=beam_width, extended_catalog=extended))

    @settings(max_examples=150, deadline=None)
    @given(
        data=encoded_datasets(max_features=20),
        beam_width=st.integers(1, 3),
        per_pass=st.integers(1, 3),
        extended=st.booleans(),
    )
    def test_matches_reference_over_passes_and_past_the_sorted_head(
        self, data, beam_width, per_pass, extended
    ):
        """Scoring passes of 1-3 left operands each, so the diagonal skip
        of layer 1 crosses block starts; and narrow beams over up to 20
        features, whose copied and complemented columns leave the first
        4 * beam_width survivors full of duplicates, so selection reads
        on into the sorted remainder."""
        enc, x, y = data
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(network, "_BLOCK_WORDS", per_pass * enc.features.size)
            self.check_layers(enc, x, y, TrainConfig(beam_width=beam_width,
                                                     extended_catalog=extended))

    def test_survivors_are_int64(self):
        enc = encode_dataset(xor_dataset())
        key = network._survivors(enc.features, enc.feature_errors, enc, TrainConfig(), first=True)
        assert key.dtype == np.int64
        assert len(key) > 0

    def test_training_past_the_exact_row_bound_is_refused(self, monkeypatch):
        """The layer cube is int32, exact only up to _MAX_ROWS rows."""
        monkeypatch.setattr(network, "_MAX_ROWS", 3)
        with pytest.raises(TrainingError, match="^4 rows: scoring is exact up to 3 rows$"):
            train(xor_dataset())


class TestColumnFirst:
    def test_training_from_csv_walks_no_rows(self, monkeypatch):
        """Load, encode and grow column by column: no per-row tuple and no
        per-value encoder call on the training path, also when the load
        finds conflicting duplicate rows."""
        text = (GOLDEN / "csv_mixed_s2_ext.csv").read_text()
        lines = text.splitlines(keepends=True)
        clash = text + lines[1].replace(",sick,", ",well,")    # row 0, relabelled
        warning = rf"^1 duplicate row pair\(s\) with conflicting labels: 0 vs {len(lines) - 1}$"

        def fit(text: str) -> str:
            ds = load_csv(text, label_column="outcome", class_names=("well", "sick"))
            return to_formula_table(train(ds, TrainConfig(extended_catalog=True)))

        def fit_both() -> list[str]:
            with pytest.warns(UserWarning, match=warning):
                return [fit(text), fit(clash)]

        want = fit_both()

        def refuse(*args, **kwargs):
            raise AssertionError("per-row walk on the training path")

        monkeypatch.setattr(Dataset, "rows", property(refuse))
        for module in (encoding, network):
            monkeypatch.setattr(module, "encode_value", refuse)
        assert fit_both() == want
