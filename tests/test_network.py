"""Training loop behavior: selection, growth, pruning, determinism."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from mofn.data import Dataset, FeatureSpec
from mofn.encoding import EncodedDataset, encode_dataset
from mofn.errors import EvaluationError, TrainingError
from mofn.logic import function_ids, truth_row
from mofn.network import (
    TrainConfig, build_first_layer, classify, grow_layer, train,
)
from mofn.encoding import encode_value
from mofn.oracle import PlantedSpec, generate_planted
from mofn.rules import evaluate, extract


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
        cands = build_first_layer(enc, TrainConfig(beam_width=64))
        feat_err = enc.errors
        for c in cands:
            bound = min(feat_err[c.left], feat_err[c.right])
            assert c.error <= bound


class TestSelectionInvariants:
    """Properties every trained network must satisfy."""

    SEEDS = [3, 5, 8, 11, 17, 23]

    def test_stored_errors_match_recount(self):
        for seed in self.SEEDS:
            p = planted(seed, n_features=5, n_rows=16, n_syndromes=1)
            net = train(p.dataset, TrainConfig())
            enc = encode_dataset(p.dataset)
            # replay the whole cascade and recount every unit's error
            cols = {}
            for r, layer in enumerate(net.layers):
                nxt = {}
                for idx, u in enumerate(layer):
                    a = cols[u.left] if r else enc.matrix[:, u.left]
                    b = enc.matrix[:, u.right]
                    table = np.array(truth_row(u.fn, False), dtype=np.uint8)
                    out = table[(a.astype(np.int64) << 1) | b]
                    recount = int(np.count_nonzero(out != enc.labels))
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
        cands = build_first_layer(enc, TrainConfig(beam_width=256))
        seen = {c.outputs.tobytes() for c in cands}
        assert len(seen) == len(cands)


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

    def test_report_lines_render(self):
        net = train(xor_dataset(), TrainConfig(beam_width=8))
        text = "\n".join(net.report.lines(net.feature_names))
        assert "layer" in text
        assert "vote" in text


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


def _reference_layer(enc, config, prev=None):
    """(error, fn, left, right, outputs) of layer 1, or of the layer
    grown on `prev` when given."""
    ids = function_ids(config.extended_catalog)
    truth = np.array([truth_row(i, config.extended_catalog) for i in ids],
                     dtype=np.uint8)
    y = enc.labels
    feat_err = {j: int(np.sum(enc.matrix[:, j] != y)) for j in enc.active}
    if prev is None:
        lefts = [(j, enc.matrix[:, j], feat_err[j]) for j in enc.active]
    else:
        lefts = [(p, c[4], c[0]) for p, c in enumerate(prev)]
    candidates = []
    for left, col, left_err in lefts:
        for k in enc.active:
            if prev is None and k == left:
                continue
            outputs = truth[:, (col << 1) | enc.matrix[:, k]]
            errors = np.sum(outputs != y, axis=1)
            bound = min(left_err, feat_err[k])
            for f in np.nonzero(errors <= bound)[0]:
                if prev is not None and np.array_equal(outputs[f], col):
                    continue
                candidates.append(
                    (int(errors[f]), ids[f], left, k, outputs[f])
                )
    return _reference_select(candidates, config.beam_width)


def _bits(words, n_rows):
    """Row r of a packed output is bit r % 64 of word r // 64."""
    r = np.arange(64 * len(words))
    bits = (words[r // 64] >> (r % 64).astype(np.uint64)) & np.uint64(1)
    assert not bits[n_rows:].any(), "tail bits must be zero"
    return bits[:n_rows].astype(np.uint8)


@st.composite
def encoded_datasets(draw):
    n_rows = draw(st.sampled_from([1, 63, 64, 65, 130]))
    n_features = draw(st.integers(2, 8))
    bit = st.integers(0, 1)
    matrix = draw(arrays(np.uint8, (n_rows, n_features), elements=bit))
    labels = draw(arrays(np.uint8, n_rows, elements=bit))
    active = draw(st.lists(st.integers(0, n_features - 1), min_size=2,
                           max_size=n_features, unique=True))
    return EncodedDataset(
        encoders=[], matrix=matrix, labels=labels, active=sorted(active),
        feature_names=[f"f{j}" for j in range(n_features)],
    )


class TestPackedKernel:
    @settings(max_examples=150, deadline=None)
    @given(
        enc=encoded_datasets(),
        beam_width=st.sampled_from([1, 3, 16, 1000]),
        extended=st.booleans(),
    )
    def test_matches_per_pair_reference(self, enc, beam_width, extended):
        config = TrainConfig(beam_width=beam_width, extended_catalog=extended)
        n_rows = len(enc.labels)

        def check(got, want):
            assert [(c.error, c.fn, c.left, c.right) for c in got] == [
                w[:4] for w in want
            ]
            for c, w in zip(got, want):
                np.testing.assert_array_equal(_bits(c.outputs, n_rows), w[4])

        first = build_first_layer(enc, config)
        ref_first = _reference_layer(enc, config)
        check(first, ref_first)
        if first:
            check(grow_layer(first, enc, config),
                  _reference_layer(enc, config, ref_first))
