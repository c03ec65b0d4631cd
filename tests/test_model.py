import collections
import dataclasses
import json
import types

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import check_model_grads, shrink_variant, tiny_bigat_spec
from bigatid import layers as L
from bigatid.model import (
    BlockSpec,
    CheckpointChecksumError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    ConstructionError,
    VariantSpec,
    _compile,
    backward,
    bigat_spec,
    build,
    forward,
    format_inspect_table,
    inspect_table,
    load,
    param_manifest,
    param_total,
    predict,
    save,
    table5_variants,
)
from bigatid.numerics import RngStream, ShapeError

# Output-shape column for the canonical 83-feature, 6-class configuration.
EXPECTED_TRACE_83 = [
    ("input", (4, 83, 1)),
    ("branch1.0_bigru", (4, 83, 128)),
    ("branch1.1_layer_norm", (4, 83, 128)),
    ("branch1.2_mha", (4, 83, 128)),
    ("branch1.3_dropout", (4, 83, 128)),
    ("branch1.4_flatten", (4, 10624)),
    ("branch2.0_lstm", (4, 32)),
    ("branch2.1_dropout", (4, 32)),
    ("concat", (4, 10656)),
    ("head.0_dense", (4, 64)),
    ("head.1_dense", (4, 32)),
    ("head.2_dense", (4, 6)),
]


class TestParamCounts:
    def test_published_total(self):
        assert param_total(bigat_spec(83, 6)) == 978_470

    def test_component_breakdown(self):
        sums = {}
        for name, shape in param_manifest(bigat_spec(83, 6)):
            prefix = name.rsplit(".", 2)[0] if ".fwd." in name or ".bwd." in name \
                else name.rsplit(".", 1)[0]
            sums[prefix] = sums.get(prefix, 0) + int(np.prod(shape))
        assert sums["branch1.0_bigru"] == 2 * 12_864
        assert sums["branch1.1_layer_norm"] == 256
        assert sums["branch1.2_mha"] == 263_808
        assert sums["branch2.0_lstm"] == 4_352
        assert sums["head.0_dense"] == 682_048
        assert sums["head.1_dense"] == 2_080
        assert sums["head.2_dense"] == 198

    def test_iiot_total(self):
        assert param_total(bigat_spec(60, 6)) == 790_054

    def test_single_branch_variant_total_recomputed(self):
        # drop branch 2: lose the LSTM (4,352) and the concat width shrinks
        # from 10,656 to 10,624, shaving 32*64 = 2,048 off the first dense
        v1 = [v for v in table5_variants(83, 6) if v.id == 1][0]
        assert param_total(v1.spec) == 978_470 - 4_352 - 2_048

    def test_dropout_rate_is_parameter_free(self):
        assert param_total(bigat_spec(83, 6, dropout_rate=0.3)) == 978_470

    def test_analytic_equals_allocated_for_all_variants(self):
        rng = RngStream(0)
        for v in table5_variants(12, 4):
            params = build(v.spec, rng.spawn(v.id))
            assert param_total(v.spec) == sum(a.size for a in params.values()), v.label


class TestVariants:
    def test_number_four_is_canonical(self):
        v4 = [v for v in table5_variants(83, 6) if v.id == 4][0]
        assert v4.spec == bigat_spec(83, 6)

    def test_single_branch_variants(self):
        variants = {v.id: v for v in table5_variants(20, 6)}
        assert len(variants[1].spec.branches) == 1
        assert [b.kind for b in variants[1].spec.branches[0]] == \
            ["bigru", "layer_norm", "mha", "dropout"]
        assert [b.kind for b in variants[2].spec.branches[0]] == \
            ["lstm_seq", "layer_norm", "mha", "dropout"]

    def test_attention_first_branch_gets_projection(self):
        variants = {v.id: v for v in table5_variants(20, 6)}
        b1 = variants[5].spec.branches[0]
        assert b1[0].kind == "proj" and b1[0].units == 128  # 2x the following BiGRU64
        assert b1[1].kind == "mha" and b1[2].kind == "bigru"
        b2 = variants[6].spec.branches[1]
        assert b2[0].kind == "proj" and b2[0].units == 64  # 2x the following LSTM32

    def test_head_and_dropout_sweeps(self):
        variants = {v.id: v for v in table5_variants(20, 6)}
        assert variants[7].spec.branches[0][0].units == 128
        assert variants[7].spec.branches[1][0].units == 256
        assert variants[8].spec.branches[0][2].heads == 2
        assert variants[9].spec.branches[0][2].heads == 4
        for vid, rate in ((10, 0.3), (11, 0.7), (12, 0.2)):
            drops = [b.rate for br in variants[vid].spec.branches
                     for b in br if b.kind == "dropout"]
            assert drops == [rate, rate]

    def test_twelve_variants(self):
        assert [v.id for v in table5_variants(10, 3)] == list(range(1, 13))

    def test_all_variants_forward_tiny(self):
        rng = RngStream(1)
        for v in table5_variants(8, 3):
            small = shrink_variant(v.spec)
            params = build(small, rng.spawn(v.id))
            probs = predict(params, small, rng.spawn(100 + v.id).normal(size=(2, 5, 1)))
            assert probs.shape == (2, 3)
            assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12, v.label


class TestForward:
    def test_shape_golden_83(self):
        spec = bigat_spec(83, 6)
        params = build(spec, RngStream(2))
        trace = []
        forward(params, spec, RngStream(3).normal(size=(4, 83, 1)), trace=trace)
        assert trace == EXPECTED_TRACE_83

    def test_probability_rows(self):
        spec = tiny_bigat_spec()
        params = build(spec, RngStream(4))
        probs = predict(params, spec, RngStream(5).normal(size=(7, 6, 1)))
        assert np.abs(probs.sum(axis=1) - 1.0).max() < 1e-12
        assert (probs > 0).all() and (probs < 1).all()

    def test_batch_independence(self):
        spec = tiny_bigat_spec()
        params = build(spec, RngStream(6))
        x = RngStream(7).normal(size=(8, 6, 1))
        full = predict(params, spec, x)
        single = predict(params, spec, x[3:4])
        assert np.abs(full[3] - single[0]).max() < 1e-12

    def test_eval_is_pure(self):
        spec = tiny_bigat_spec(dropout=0.5)
        params = build(spec, RngStream(8))
        x = RngStream(9).normal(size=(3, 6, 1))
        assert np.array_equal(predict(params, spec, x), predict(params, spec, x))

    def test_seq_len_mismatch(self):
        spec = tiny_bigat_spec()
        params = build(spec, RngStream(10))
        with pytest.raises(ShapeError):
            predict(params, spec, np.zeros((2, 7, 1)))

    def test_train_mode_returns_caches_eval_does_not(self):
        spec = tiny_bigat_spec()
        params = build(spec, RngStream(11))
        x = RngStream(12).normal(size=(2, 6, 1))
        _, caches = forward(params, spec, x, mode="eval")
        assert caches is None
        _, caches = forward(params, spec, x, mode="train", rng=RngStream(13))
        assert caches is not None

    def test_eval_and_train_compute_the_same_function(self):
        # shrink_variant sets every dropout rate to 0, so only the cache differs;
        # the noise makes every bias nonzero
        rng = RngStream(15)
        for v in table5_variants(8, 3):
            small = shrink_variant(v.spec)
            noise = rng.spawn(20 + v.id)
            params = {k: t + 0.1 * noise.normal(size=t.shape)
                      for k, t in build(small, rng.spawn(v.id)).items()}
            x = rng.spawn(50 + v.id).normal(size=(3, 5, 1))
            p_eval, caches = forward(params, small, x, mode="eval")
            p_train, _ = forward(params, small, x, mode="train", rng=rng.spawn(99))
            assert caches is None
            assert np.abs(p_eval - p_train).max() <= 1e-15, v.label

    def test_train_step_changes_loss(self):
        # one step of plain gradient descent on every variant must run end to end
        rng = RngStream(14)
        for v in table5_variants(8, 3):
            small = shrink_variant(v.spec)
            params = build(small, rng.spawn(v.id))
            x = rng.spawn(50 + v.id).normal(size=(4, 5, 1))
            probs, caches = forward(params, small, x, mode="train", rng=rng.spawn(99))
            grads = backward(params, small, caches, np.ones_like(probs) / 4)
            assert params.keys() == grads.keys()
            for name, g in grads.items():
                assert np.isfinite(g).all(), (v.label, name)


class TestConstructionErrors:
    def test_unknown_kind(self):
        with pytest.raises(ConstructionError):
            BlockSpec("conv", units=3)

    def test_sequence_block_after_vector(self):
        spec = VariantSpec(seq_len=5, n_classes=3, branches=(
            (BlockSpec("lstm", units=4), BlockSpec("mha", heads=2, key_dim=3)),
        ))
        with pytest.raises(ConstructionError, match="mha"):
            param_total(spec)

    def test_bad_bigat_args(self):
        with pytest.raises(ConstructionError):
            bigat_spec(0, 6)
        with pytest.raises(ConstructionError):
            bigat_spec(83, 1)

    @pytest.mark.parametrize("kind", ["bigru", "lstm", "lstm_seq", "proj"])
    def test_units_must_be_positive(self, kind):
        spec = VariantSpec(seq_len=5, n_classes=3, branches=((BlockSpec(kind, units=0),),))
        with pytest.raises(ConstructionError, match=f"branch1.0_{kind}: units"):
            build(spec, RngStream(0))

    @pytest.mark.parametrize("kwargs, field", [
        ({"seq_len": 0}, "seq_len"),
        ({"n_classes": 1}, "n_classes"),
        ({"n_classes": 0}, "n_classes"),
        ({"head": (0,)}, "head"),
        ({"head": (8, -1)}, "head"),
        ({"seq_len": 5.5}, "seq_len"),
        ({"head": (2.5,)}, "head"),
        ({"n_classes": 3.0}, "n_classes"),
    ])
    def test_variant_fields_checked(self, kwargs, field):
        # head=(0,) used to build a model that predicts 1/3 for every class
        with pytest.raises(ConstructionError, match=field):
            dataclasses.replace(tiny_bigat_spec(), **kwargs)

    @pytest.mark.parametrize("kwargs, field", [
        ({"kind": "lstm", "units": 4, "heads": 3}, "heads"),
        ({"kind": "mha", "heads": 2, "key_dim": 3, "units": 5}, "units"),
        ({"kind": "layer_norm", "rate": 0.5}, "rate"),
        ({"kind": "dropout", "rate": 0.5, "key_dim": 1}, "key_dim"),
        ({"kind": "lstm", "units": 2.5}, "units"),
        ({"kind": "mha", "heads": 2.0, "key_dim": 3}, "heads"),
        ({"kind": "mha", "heads": 2, "key_dim": "3"}, "key_dim"),
        ({"kind": "dropout", "rate": "0.5"}, "rate"),
    ])
    def test_block_fields_checked(self, kwargs, field):
        with pytest.raises(ConstructionError, match=field):
            BlockSpec(**kwargs)

    def test_every_variant_round_trips(self):
        for v in table5_variants(83, 6):
            assert VariantSpec.from_dict(v.spec.to_dict()) == v.spec, v.label
        assert VariantSpec.from_dict(tiny_bigat_spec().to_dict()) == tiny_bigat_spec()


def bigru_only_spec(seq_len: int, units: int) -> VariantSpec:
    return VariantSpec(seq_len, 2, ((BlockSpec("bigru", units=units),),), head=(3,))


def run_bigru_node(params, spec, x):
    """The output of the spec's one bigru node, and its parameters per direction."""
    node = _compile(spec)[0][0][0]
    y, _ = node.kind.forward(node, params, x, True, None)
    return y, [node.kind.view(params, f"{node.name}.{d}") for d in ("fwd", "bwd")]


class TestBigru:
    def test_published_width(self):
        spec = bigru_only_spec(83, 64)
        trace = []
        forward(build(spec, RngStream(12)), spec, RngStream(13).normal(size=(2, 83, 1)),
                trace=trace)
        assert ("branch1.0_bigru", (2, 83, 128)) in trace

    def test_equals_independent_directions(self):
        spec = bigru_only_spec(6, 4)
        x = RngStream(13).normal(size=(2, 6, 1))
        y, (p_f, p_b) = run_bigru_node(build(spec, RngStream(14)), spec, x)
        h_f, _ = L.gru_sequence_forward(p_f, x)
        h_b, _ = L.gru_sequence_forward(p_b, x, reverse=True)
        assert np.array_equal(y, np.concatenate([h_f, h_b], axis=-1))

    def test_tied_params_constant_input_time_symmetry(self):
        spec = bigru_only_spec(5, 4)
        params = build(spec, RngStream(14))
        params = {name: params[name.replace(".bwd.", ".fwd.")] for name in params}
        y, _ = run_bigru_node(params, spec, np.ones((1, 5, 1)) * 0.3)
        fwd, bwd = y[..., :4], y[..., 4:]
        assert np.abs(fwd - bwd[:, ::-1]).max() < 1e-12

    def test_gradients(self):
        check_model_grads(bigru_only_spec(3, 4), seed=16)
        # behind a projection, whose gradients need the BiGRU's input gradient
        check_model_grads(VariantSpec(3, 2, ((BlockSpec("proj", units=2),
                                              BlockSpec("bigru", units=4)),), head=(3,)),
                          seed=17)


class TestLayerCalls:
    def test_model_calls_every_layer_through_the_module(self, monkeypatch):
        # the benchmark's per-layer breakdown wraps the functions of `layers`
        # in place; a layer function the model reached by a stored reference
        # would drop out of it
        calls = collections.Counter()

        def counting(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        public = [name for name, fn in vars(L).items()
                  if isinstance(fn, types.FunctionType) and not name.startswith("_")
                  and fn.__module__ == L.__name__]
        for name in public:
            monkeypatch.setattr(L, name, counting(name, getattr(L, name)))
        variants = {v.id: v.spec for v in table5_variants(8, 3)}
        rng = RngStream(16)
        for i, spec in enumerate((tiny_bigat_spec(dropout=0.5), shrink_variant(variants[5]),
                                  shrink_variant(variants[2]))):
            params = build(spec, rng.spawn(i, 0))
            x = rng.spawn(i, 1).normal(size=(2, spec.seq_len, 1))
            probs, caches = forward(params, spec, x, mode="train", rng=rng.spawn(i, 2))
            backward(params, spec, caches, np.ones_like(probs))
        assert sorted(calls) == sorted(public)


class TestBuildDeterminism:
    def test_same_seed_bit_identical(self):
        spec = tiny_bigat_spec()
        a = build(spec, RngStream(42))
        b = build(spec, RngStream(42))
        assert a.keys() == b.keys()
        for name in a:
            assert np.array_equal(a[name], b[name]), name

    def test_different_seed_differs(self):
        spec = tiny_bigat_spec()
        a = build(spec, RngStream(42))
        b = build(spec, RngStream(43))
        assert any(not np.array_equal(a[n], b[n]) for n in a)


class TestInspect:
    def test_table_matches_published_layout(self):
        text = format_inspect_table(bigat_spec(83, 6))
        for token in ["(None, 83, 1)", "(None, 83, 128)", "(None, 10624)",
                      "(None, 32)", "(None, 10656)", "(None, 64)", "(None, 6)",
                      "Total parameters: 978,470", "Trainable parameters: 978,470",
                      "Non-trainable parameters: 0"]:
            assert token in text, token

    def test_iiot_concat_width(self):
        rows = inspect_table(bigat_spec(60, 6))["rows"]
        concat = [r for r in rows if r["layer"] == "Concatenate"][0]
        assert concat["output_shape"] == "(None, 7712)"

    def test_row_params_sum_to_total(self):
        table = inspect_table(bigat_spec(83, 6))
        assert sum(r["params"] for r in table["rows"]) == table["total_params"]


def _renamed_tensor_key(key):
    def edit(header):
        entry = header["tensors"][0]
        entry[key + "_"] = entry.pop(key)
        return header
    return edit


def _set(value, *path):
    def edit(header):
        node = header
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return header
    return edit


# (edit of the decoded JSON header, or raw header bytes; text the error names)
MALFORMED_HEADERS = [
    pytest.param(_renamed_tensor_key("crc32"), "crc32", id="crc32-key-renamed"),
    pytest.param(_renamed_tensor_key("shape"), "shape", id="shape-key-renamed"),
    pytest.param(lambda header: [header], "JSON list", id="header-is-a-list"),
    pytest.param(_set(0, "spec", "branches", 0, 2, "heads"), "heads", id="mha-heads-0"),
    pytest.param(_set(0, "spec", "branches", 0, 0, "units"), "units", id="bigru-units-0"),
    pytest.param(_set(float("inf"), "spec", "seq_len"), "seq_len", id="seq-len-infinite"),
    pytest.param(_set(3.9, "spec", "n_classes"), "n_classes", id="n-classes-fractional"),
    pytest.param(_set([4.7], "spec", "head"), "head", id="head-width-fractional"),
    pytest.param(lambda header: b"[" * 100_000, "recursion", id="nested-too-deep"),
    # the layer norm's eps is fixed: a header may only restate it
    *(pytest.param(_set(eps, "spec", "ln_eps"), "ln_eps", id=f"ln-eps-{eps}")
      for eps in (0.0, -1e-3, float("nan"), 1e-5, "abc")),
    pytest.param(_set(1, "spec", "branches", 0, 0, "colour"), "colour", id="block-unknown-key"),
    pytest.param(_set([1, 2], "metadata"), "metadata is a JSON list", id="metadata-a-list"),
    pytest.param(_set("text", "metadata"), "metadata is a JSON str", id="metadata-a-string"),
]


class TestCheckpoint:
    def make_model(self):
        spec = tiny_bigat_spec(dropout=0.5)
        params = build(spec, RngStream(77))
        return params, spec

    @pytest.mark.parametrize("edit, cause", MALFORMED_HEADERS)
    def test_malformed_header_is_a_format_error(self, tmp_path, edit, cause):
        params, spec = self.make_model()
        path = tmp_path / "m.bgid"
        save(params, spec, {}, path)
        blob = path.read_bytes()
        hlen = int.from_bytes(blob[8:16], "little")
        header = edit(json.loads(blob[16:16 + hlen]))
        raw = header if isinstance(header, bytes) else json.dumps(header).encode()
        path.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + hlen:])
        with pytest.raises(CheckpointFormatError, match=cause):
            load(path)

    @pytest.mark.parametrize("metadata", [[1, 2], "text"], ids=["list", "string"])
    def test_save_refuses_metadata_that_is_not_an_object(self, tmp_path, metadata):
        params, spec = self.make_model()
        path = tmp_path / "m.bgid"
        with pytest.raises(TypeError, match=type(metadata).__name__):
            save(params, spec, metadata, path)
        assert not path.exists()

    def test_round_trip_bit_identical_predictions(self, tmp_path):
        params, spec = self.make_model()
        x = RngStream(78).normal(size=(5, 6, 1))
        before = predict(params, spec, x)
        path = tmp_path / "m.bgid"
        save(params, spec, {"note": "round trip"}, path)
        loaded, spec2, meta = load(path)
        assert meta["note"] == "round trip"
        assert spec2 == spec
        after = predict(loaded, spec2, x)
        assert np.array_equal(before, after)

    def test_header_records_ln_eps_and_loads_without_it(self, tmp_path):
        params, spec = self.make_model()
        path = tmp_path / "m.bgid"
        save(params, spec, {}, path)
        blob = path.read_bytes()
        hlen = int.from_bytes(blob[8:16], "little")
        header = json.loads(blob[16:16 + hlen])
        assert header["spec"]["ln_eps"] == L.LN_EPS == 1e-3
        del header["spec"]["ln_eps"]
        raw = json.dumps(header).encode()
        path.write_bytes(blob[:8] + len(raw).to_bytes(8, "little") + raw + blob[16 + hlen:])
        loaded, spec2, _ = load(path)
        x = RngStream(79).normal(size=(3, 6, 1))
        assert spec2 == spec
        assert np.array_equal(predict(loaded, spec2, x), predict(params, spec, x))

    def test_f32_round_trip_close_and_stable(self, tmp_path):
        params, spec = self.make_model()
        path = tmp_path / "m32.bgid"
        save(params, spec, {}, path, dtype="f32")
        loaded, _, _ = load(path)
        for name in params:
            assert np.abs(loaded[name] - params[name]).max() < 1e-6
        save(loaded, spec, {}, path, dtype="f32")  # second pass is lossless
        again, _, _ = load(path)
        for name in params:
            assert np.array_equal(again[name], loaded[name])

    def test_corrupted_payload_byte(self, tmp_path):
        params, spec = self.make_model()
        path = tmp_path / "m.bgid"
        save(params, spec, {}, path)
        blob = bytearray(path.read_bytes())
        blob[-10] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointChecksumError):
            load(path)

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.bgid"
        path.write_bytes(b"")
        with pytest.raises(CheckpointFormatError):
            load(path)

    def test_bad_magic(self, tmp_path):
        params, spec = self.make_model()
        path = tmp_path / "m.bgid"
        save(params, spec, {}, path)
        blob = bytearray(path.read_bytes())
        blob[:4] = b"NOPE"
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointFormatError, match="magic"):
            load(path)

    def test_bad_version(self, tmp_path):
        params, spec = self.make_model()
        path = tmp_path / "m.bgid"
        save(params, spec, {}, path)
        blob = bytearray(path.read_bytes())
        blob[4:8] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointVersionError):
            load(path)

    def test_truncated_payload(self, tmp_path):
        params, spec = self.make_model()
        path = tmp_path / "m.bgid"
        save(params, spec, {}, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:-100])
        with pytest.raises(CheckpointFormatError, match="truncated"):
            load(path)

    def test_trailing_bytes(self, tmp_path):
        params, spec = self.make_model()
        path = tmp_path / "m.bgid"
        save(params, spec, {}, path)
        path.write_bytes(path.read_bytes() + b"junk")
        with pytest.raises(CheckpointFormatError, match="trailing"):
            load(path)


class TestCheckpointFuzz:
    """One small checkpoint with one byte replaced or the file cut short:
    `load` returns or raises a CheckpointError, never anything else."""

    @pytest.fixture(scope="class")
    def checkpoint(self, tmp_path_factory):
        params, spec = TestCheckpoint().make_model()
        path = tmp_path_factory.mktemp("fuzz") / "m.bgid"
        save(params, spec, {"note": "fuzz"}, path)
        return path, path.read_bytes()

    @settings(max_examples=400, deadline=None, database=None)
    @given(data=st.data())
    def test_one_replaced_byte(self, checkpoint, data):
        path, blob = checkpoint
        header_end = 16 + int.from_bytes(blob[8:16], "little")
        # half the draws land in the magic, version, length or JSON header
        offset = data.draw(st.integers(0, header_end - 1) | st.integers(0, len(blob) - 1))
        mutated = bytearray(blob)
        mutated[offset] ^= data.draw(st.integers(1, 255))
        path.write_bytes(bytes(mutated))
        try:
            load(path)
        except CheckpointError:
            return
        # CRC32 catches every single-byte error, so only a header edit loads
        assert offset < header_end

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data())
    def test_truncated_file_always_raises(self, checkpoint, data):
        path, blob = checkpoint
        path.write_bytes(blob[:data.draw(st.integers(0, len(blob) - 1))])
        with pytest.raises(CheckpointError):
            load(path)
