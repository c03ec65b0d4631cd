"""Model assembly: declarative variant specs for the dual-branch
BiGRU/attention + LSTM network and its ablation family, parameter
initialization and counting, the forward/backward pass over a built
variant, and the versioned, checksummed checkpoint format.

Variant grammar: a variant is a list of parallel branches; each branch is a
pipeline of blocks applied left to right. Branch tails that are still
sequences are flattened automatically, all branch outputs are concatenated,
and the shared head (dense widths, then an n_classes softmax) produces the
class distribution. A width-expanding per-step linear projection ("proj")
feeds attention blocks that would otherwise see width-1 input.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass

import numpy as np

from . import layers
from .layers import (
    DenseParams,
    GruParams,
    LayerNormParams,
    LstmParams,
    MhaParams,
)
from .numerics import RngStream, ShapeError, as_f64

BLOCK_KINDS = ("bigru", "lstm", "lstm_seq", "mha", "layer_norm", "dropout", "proj")

CHECKPOINT_MAGIC = b"BGID"
CHECKPOINT_VERSION = 1


class ConstructionError(ValueError):
    """A variant spec is internally inconsistent; the message names the block."""


class CheckpointError(Exception):
    """Base class for checkpoint load failures."""


class CheckpointFormatError(CheckpointError):
    """Bad magic, truncated payload, or malformed header."""


class CheckpointVersionError(CheckpointError):
    """Format version not supported by this build."""


class CheckpointChecksumError(CheckpointError):
    """A tensor payload failed its CRC check."""


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSpec:
    """One pipeline block. Only the fields relevant to `kind` are meaningful:
    units (bigru/lstm/lstm_seq/proj), heads+key_dim (mha), rate (dropout)."""

    kind: str
    units: int = 0
    heads: int = 0
    key_dim: int = 0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in BLOCK_KINDS:
            raise ConstructionError(f"unknown block kind {self.kind!r}")

    def to_dict(self) -> dict:
        d = {"kind": self.kind}
        if self.kind in ("bigru", "lstm", "lstm_seq", "proj"):
            d["units"] = self.units
        elif self.kind == "mha":
            d["heads"] = self.heads
            d["key_dim"] = self.key_dim
        elif self.kind == "dropout":
            d["rate"] = self.rate
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "BlockSpec":
        return cls(kind=d["kind"], units=d.get("units", 0), heads=d.get("heads", 0),
                   key_dim=d.get("key_dim", 0), rate=d.get("rate", 0.0))


@dataclass(frozen=True)
class VariantSpec:
    """Declarative model description: branch pipelines plus the dense head."""

    seq_len: int
    n_classes: int
    branches: tuple[tuple[BlockSpec, ...], ...]
    head: tuple[int, ...] = (64, 32)
    ln_eps: float = 1e-3

    def to_dict(self) -> dict:
        return {
            "seq_len": self.seq_len,
            "n_classes": self.n_classes,
            "branches": [[b.to_dict() for b in branch] for branch in self.branches],
            "head": list(self.head),
            "ln_eps": self.ln_eps,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "VariantSpec":
        return cls(
            seq_len=int(d["seq_len"]),
            n_classes=int(d["n_classes"]),
            branches=tuple(tuple(BlockSpec.from_dict(b) for b in br) for br in d["branches"]),
            head=tuple(int(w) for w in d["head"]),
            ln_eps=float(d.get("ln_eps", 1e-3)),
        )


@dataclass(frozen=True)
class Variant:
    """An ablation-table entry: numeric id, display label, and its spec."""

    id: int
    label: str
    spec: VariantSpec


def bigat_spec(seq_len: int, n_classes: int, dropout_rate: float = 0.5) -> VariantSpec:
    """The canonical dual-branch configuration:
    (BiGRU64 -> LayerNorm -> MHA(8, 64) -> Dropout) || (LSTM32 -> Dropout)
    -> concat -> Dense64 relu -> Dense32 relu -> Dense(n_classes) softmax."""
    if seq_len < 1 or n_classes < 2:
        raise ConstructionError("bigat_spec: need seq_len >= 1 and n_classes >= 2")
    return VariantSpec(
        seq_len=seq_len,
        n_classes=n_classes,
        branches=(
            _recurrent_mha_branch(64, 8, 64, dropout_rate),
            _lstm_branch(32, dropout_rate),
        ),
    )


def _recurrent_mha_branch(units, heads, key_dim, rate):
    return (BlockSpec("bigru", units=units), BlockSpec("layer_norm"),
            BlockSpec("mha", heads=heads, key_dim=key_dim), BlockSpec("dropout", rate=rate))


def _lstm_branch(units, rate):
    return (BlockSpec("lstm", units=units), BlockSpec("dropout", rate=rate))


def _bigru_branch(units, rate):
    return (BlockSpec("bigru", units=units), BlockSpec("dropout", rate=rate))


def _lstm_seq_mha_branch(units, heads, key_dim, rate):
    return (BlockSpec("lstm_seq", units=units), BlockSpec("layer_norm"),
            BlockSpec("mha", heads=heads, key_dim=key_dim), BlockSpec("dropout", rate=rate))


def table5_variants(seq_len: int, n_classes: int) -> list[Variant]:
    """The 12 ablation configurations. "+" chains blocks inside one branch
    (left first), "-" separates parallel branches; a LayerNorm sits between
    any recurrent block and a directly following attention block, every
    branch ends in dropout, and attention-first branches get a width
    projection of twice the units of the recurrent block that follows."""
    r = 0.5

    def make(vid, label, branches, head=(64, 32)):
        return Variant(vid, label, VariantSpec(seq_len, n_classes, branches, head=head))

    return [
        make(1, "BiGRU64+MHA8", (_recurrent_mha_branch(64, 8, 64, r),)),
        make(2, "LSTM32+MHA8", (_lstm_seq_mha_branch(32, 8, 64, r),)),
        make(3, "BiGRU64-(LSTM32+MHA8)",
             (_bigru_branch(64, r), _lstm_seq_mha_branch(32, 8, 64, r))),
        make(4, "(BiGRU64+MHA8)-LSTM32",
             (_recurrent_mha_branch(64, 8, 64, r), _lstm_branch(32, r))),
        make(5, "(MHA8+BiGRU64)-LSTM32",
             ((BlockSpec("proj", units=128), BlockSpec("mha", heads=8, key_dim=64),
               BlockSpec("bigru", units=64), BlockSpec("dropout", rate=r)),
              _lstm_branch(32, r))),
        make(6, "BiGRU64-(MHA8+LSTM32)",
             (_bigru_branch(64, r),
              (BlockSpec("proj", units=64), BlockSpec("mha", heads=8, key_dim=64),
               BlockSpec("lstm", units=32), BlockSpec("dropout", rate=r)))),
        make(7, "(BiGRU128+MHA8)-LSTM256",
             (_recurrent_mha_branch(128, 8, 64, r), _lstm_branch(256, r))),
        make(8, "(BiGRU64+MHA2)-LSTM32",
             (_recurrent_mha_branch(64, 2, 64, r), _lstm_branch(32, r))),
        make(9, "(BiGRU64+MHA4)-LSTM32",
             (_recurrent_mha_branch(64, 4, 64, r), _lstm_branch(32, r))),
        make(10, "(BiGRU64+MHA8)-LSTM32 d=0.3",
             (_recurrent_mha_branch(64, 8, 64, 0.3), _lstm_branch(32, 0.3))),
        make(11, "(BiGRU64+MHA8)-LSTM32 d=0.7",
             (_recurrent_mha_branch(64, 8, 64, 0.7), _lstm_branch(32, 0.7))),
        make(12, "(BiGRU64+MHA8)-LSTM32 d=0.2",
             (_recurrent_mha_branch(64, 8, 64, 0.2), _lstm_branch(32, 0.2))),
    ]


# ---------------------------------------------------------------------------
# compilation: width/rank inference, auto-flatten, parameter layout
# ---------------------------------------------------------------------------

@dataclass
class _Node:
    name: str
    kind: str                   # BLOCK_KINDS plus "flatten"
    block: BlockSpec | None
    in_width: int
    out_width: int
    seq_in: bool
    seq_out: bool


def _compile_branch(spec: VariantSpec, bi: int, branch: tuple[BlockSpec, ...]) -> list[_Node]:
    nodes: list[_Node] = []
    width = 1
    is_seq = True
    for i, blk in enumerate(branch):
        name = f"branch{bi + 1}.{i}_{blk.kind}"
        if blk.kind in ("bigru", "lstm", "lstm_seq", "mha", "proj") and not is_seq:
            raise ConstructionError(f"{name}: requires a sequence input but the branch "
                                    "already collapsed to a vector")
        if blk.kind == "bigru":
            out, seq_out = 2 * blk.units, True
        elif blk.kind == "lstm_seq":
            out, seq_out = blk.units, True
        elif blk.kind == "lstm":
            out, seq_out = blk.units, False
        elif blk.kind == "proj":
            out, seq_out = blk.units, True
        elif blk.kind == "mha":
            if blk.heads < 1 or blk.key_dim < 1:
                raise ConstructionError(f"{name}: heads and key_dim must be positive")
            out, seq_out = width, is_seq
        elif blk.kind in ("layer_norm", "dropout"):
            if blk.kind == "dropout" and not 0.0 <= blk.rate < 1.0:
                raise ConstructionError(f"{name}: dropout rate must be in [0, 1)")
            out, seq_out = width, is_seq
        else:  # pragma: no cover
            raise ConstructionError(f"{name}: unknown kind")
        nodes.append(_Node(name, blk.kind, blk, width, out, is_seq, seq_out))
        width, is_seq = out, seq_out
    if is_seq:
        nodes.append(_Node(f"branch{bi + 1}.{len(branch)}_flatten", "flatten", None,
                           width, spec.seq_len * width, True, False))
    return nodes


def _compile(spec: VariantSpec):
    """Returns (branch node lists, branch output widths, head node list)."""
    if not spec.branches:
        raise ConstructionError("variant has no branches")
    branches = [_compile_branch(spec, bi, br) for bi, br in enumerate(spec.branches)]
    widths = [br[-1].out_width for br in branches]
    head = []
    w = sum(widths)
    for i, hw in enumerate(spec.head):
        head.append(_Node(f"head.{i}_dense", "dense", None, w, hw, False, False))
        w = hw
    head.append(_Node(f"head.{len(spec.head)}_dense", "dense", None, w, spec.n_classes,
                      False, False))
    return branches, widths, head


def _node_param_specs(node: _Node):
    """(suffix, shape) pairs for a node, in serialization order."""
    w, out = node.in_width, node.out_width
    if node.kind == "bigru":
        n = node.block.units
        per_dir = [("W_in", (w, 3 * n)), ("W_rec", (n, 3 * n)),
                   ("b_in", (3 * n,)), ("b_rec", (3 * n,))]
        return [(f"fwd.{s}", shp) for s, shp in per_dir] + \
               [(f"bwd.{s}", shp) for s, shp in per_dir]
    if node.kind in ("lstm", "lstm_seq"):
        n = node.block.units
        return [("W_in", (w, 4 * n)), ("W_rec", (n, 4 * n)), ("b", (4 * n,))]
    if node.kind == "mha":
        hd = node.block.heads * node.block.key_dim
        return [("Wq", (w, hd)), ("bq", (hd,)), ("Wk", (w, hd)), ("bk", (hd,)),
                ("Wv", (w, hd)), ("bv", (hd,)), ("Wo", (hd, w)), ("bo", (w,))]
    if node.kind == "layer_norm":
        return [("gamma", (w,)), ("beta", (w,))]
    if node.kind in ("proj", "dense"):
        return [("W", (w, out)), ("b", (out,))]
    return []


def param_manifest(spec: VariantSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Deterministic (name, shape) list: branches in order, then the head."""
    branches, _, head = _compile(spec)
    out = []
    for nodes in branches:
        for node in nodes:
            for suffix, shape in _node_param_specs(node):
                out.append((f"{node.name}.{suffix}", shape))
    for node in head:
        for suffix, shape in _node_param_specs(node):
            out.append((f"{node.name}.{suffix}", shape))
    return out


def param_total(spec: VariantSpec) -> int:
    """Analytic trainable-parameter count, no allocation."""
    return sum(int(np.prod(shape)) for _, shape in param_manifest(spec))


def build(spec: VariantSpec, rng: RngStream) -> dict[str, np.ndarray]:
    """Allocate and initialize every trainable tensor. Dense/projection
    kernels Glorot-uniform, recurrent kernels orthogonal per gate, biases
    zero; fully determined by the rng stream."""
    branches, _, head = _compile(spec)
    params: dict[str, np.ndarray] = {}

    def put(prefix, obj):
        for suffix, arr in obj.tensors():
            params[f"{prefix}.{suffix}"] = arr

    for nodes in branches:
        for node in nodes:
            if node.kind == "bigru":
                put(f"{node.name}.fwd", GruParams.init(rng, node.in_width, node.block.units))
                put(f"{node.name}.bwd", GruParams.init(rng, node.in_width, node.block.units))
            elif node.kind in ("lstm", "lstm_seq"):
                put(node.name, LstmParams.init(rng, node.in_width, node.block.units))
            elif node.kind == "mha":
                put(node.name, MhaParams.init(rng, node.in_width, node.block.heads,
                                              node.block.key_dim))
            elif node.kind == "layer_norm":
                put(node.name, LayerNormParams.init(node.in_width))
            elif node.kind == "proj":
                put(node.name, DenseParams.init(rng, node.in_width, node.out_width))
    for node in head:
        put(node.name, DenseParams.init(rng, node.in_width, node.out_width))
    return params


# typed views over the flat parameter dict -----------------------------------

def _gru_view(params, prefix):
    return GruParams(W_in=params[f"{prefix}.W_in"], W_rec=params[f"{prefix}.W_rec"],
                     b_in=params[f"{prefix}.b_in"], b_rec=params[f"{prefix}.b_rec"])


def _lstm_view(params, prefix):
    return LstmParams(W_in=params[f"{prefix}.W_in"], W_rec=params[f"{prefix}.W_rec"],
                      b=params[f"{prefix}.b"])


def _mha_view(params, prefix):
    return MhaParams(**{s: params[f"{prefix}.{s}"]
                        for s in ("Wq", "bq", "Wk", "bk", "Wv", "bv", "Wo", "bo")})


def _ln_view(params, prefix):
    return LayerNormParams(gamma=params[f"{prefix}.gamma"], beta=params[f"{prefix}.beta"])


def _dense_view(params, prefix):
    return DenseParams(W=params[f"{prefix}.W"], b=params[f"{prefix}.b"])


def _put_grads(grads, prefix, obj):
    for suffix, arr in obj.tensors():
        grads[f"{prefix}.{suffix}"] = arr


# ---------------------------------------------------------------------------
# forward / backward
# ---------------------------------------------------------------------------

def forward(params: dict, spec: VariantSpec, x: np.ndarray, mode: str = "eval",
            rng: RngStream | None = None, trace: list | None = None):
    """Run the network. Returns (probs, caches); caches is None in eval mode.
    Pass a list as `trace` to collect (layer_name, output_shape) pairs."""
    x = as_f64(x)
    if x.ndim != 3 or x.shape[1] != spec.seq_len or x.shape[2] != 1:
        raise ShapeError(f"forward: expected input (b, {spec.seq_len}, 1), got {x.shape}")
    if mode not in ("train", "eval"):
        raise ValueError(f"forward: unknown mode {mode!r}")
    train = mode == "train"
    branches, widths, head = _compile(spec)
    if trace is not None:
        trace.append(("input", x.shape))

    branch_caches = []
    branch_outs = []
    for nodes in branches:
        h = x
        caches = []
        for node in nodes:
            if node.kind == "bigru":
                h, c = layers.bigru_forward(_gru_view(params, f"{node.name}.fwd"),
                                            _gru_view(params, f"{node.name}.bwd"), h,
                                            train=train)
            elif node.kind == "lstm_seq":
                h, c = layers.lstm_sequence_forward(_lstm_view(params, node.name), h,
                                                    train=train)
            elif node.kind == "lstm":
                h, c = layers.lstm_last_forward(_lstm_view(params, node.name), h,
                                                train=train)
            elif node.kind == "mha":
                h, c = layers.mha_self_forward(_mha_view(params, node.name), h,
                                               node.block.heads, node.block.key_dim,
                                               train=train)
            elif node.kind == "layer_norm":
                h, c = layers.layer_norm_forward(_ln_view(params, node.name), h,
                                                 eps=spec.ln_eps)
            elif node.kind == "proj":
                h, c = layers.time_dense_forward(_dense_view(params, node.name), h)
            elif node.kind == "dropout":
                h, mask = layers.dropout_apply(h, node.block.rate,
                                               "train" if train else "eval", rng)
                c = (mask, node.block.rate)
            elif node.kind == "flatten":
                c = h.shape
                h = layers.flatten(h)
            if train:
                caches.append(c)
            if trace is not None:
                trace.append((node.name, h.shape))
        branch_outs.append(h)
        branch_caches.append(caches)

    h = branch_outs[0]
    for extra in branch_outs[1:]:
        h = layers.concat_last(h, extra)
    if trace is not None and len(branch_outs) > 1:
        trace.append(("concat", h.shape))

    head_caches = []
    for i, node in enumerate(head):
        act = "softmax" if i == len(head) - 1 else "relu"
        h, c = layers.dense_forward(_dense_view(params, node.name), h, act=act)
        if train:
            head_caches.append(c)
        if trace is not None:
            trace.append((node.name, h.shape))

    caches = {"branches": branch_caches, "widths": widths, "head": head_caches} if train else None
    return h, caches


def predict(params: dict, spec: VariantSpec, x: np.ndarray) -> np.ndarray:
    """Deterministic eval-mode class probabilities, (b, n_classes)."""
    probs, _ = forward(params, spec, x, mode="eval")
    return probs


def backward(params: dict, spec: VariantSpec, caches: dict, dprobs: np.ndarray):
    """Analytic gradients of the scalar loss whose probs-gradient is `dprobs`.
    Returns a dict aligned with the parameter names."""
    branches, widths, head = _compile(spec)
    grads: dict[str, np.ndarray] = {}

    dh = as_f64(dprobs)
    for i in range(len(head) - 1, -1, -1):
        node = head[i]
        dh, g = layers.dense_backward(_dense_view(params, node.name), caches["head"][i], dh)
        _put_grads(grads, node.name, g)

    offsets = np.cumsum([0] + widths)
    for bi in range(len(branches) - 1, -1, -1):
        nodes = branches[bi]
        d = dh[..., offsets[bi]:offsets[bi + 1]]
        for i in range(len(nodes) - 1, -1, -1):
            node = nodes[i]
            c = caches["branches"][bi][i]
            if node.kind == "bigru":
                d, g_fwd, g_bwd = layers.bigru_backward(
                    _gru_view(params, f"{node.name}.fwd"),
                    _gru_view(params, f"{node.name}.bwd"), c, d)
                _put_grads(grads, f"{node.name}.fwd", g_fwd)
                _put_grads(grads, f"{node.name}.bwd", g_bwd)
            elif node.kind == "lstm_seq":
                d, g = layers.lstm_sequence_backward(_lstm_view(params, node.name), c, d)
                _put_grads(grads, node.name, g)
            elif node.kind == "lstm":
                d, g = layers.lstm_last_backward(_lstm_view(params, node.name), c, d)
                _put_grads(grads, node.name, g)
            elif node.kind == "mha":
                d, g = layers.mha_self_backward(_mha_view(params, node.name), c, d)
                _put_grads(grads, node.name, g)
            elif node.kind == "layer_norm":
                d, g = layers.layer_norm_backward(_ln_view(params, node.name), c, d)
                _put_grads(grads, node.name, g)
            elif node.kind == "proj":
                d, g = layers.time_dense_backward(_dense_view(params, node.name), c, d)
                _put_grads(grads, node.name, g)
            elif node.kind == "dropout":
                mask, rate = c
                d = layers.dropout_backward(mask, rate, d)
            elif node.kind == "flatten":
                d = layers.flatten_backward(c, d)
    return grads


# ---------------------------------------------------------------------------
# inspection
# ---------------------------------------------------------------------------

def _shape_str(seq: bool, seq_len: int, width: int) -> str:
    return f"(None, {seq_len}, {width})" if seq else f"(None, {width})"


def inspect_table(spec: VariantSpec) -> dict:
    """Per-layer summary rows (layer, unit, output shape, params, connected
    to) plus the trainable-parameter total, mirroring a model summary."""
    branches, widths, head = _compile(spec)
    rows = [{"layer": "Input", "unit": "-",
             "output_shape": _shape_str(True, spec.seq_len, 1),
             "params": 0, "connected_to": "-"}]
    tails = []
    for nodes in branches:
        prev = "Input"
        for node in nodes:
            count = sum(int(np.prod(s)) for _, s in _node_param_specs(node))
            if node.kind == "bigru":
                unit = str(node.block.units)
            elif node.kind in ("lstm", "lstm_seq", "proj"):
                unit = str(node.block.units)
            elif node.kind == "mha":
                unit = f"({node.block.heads}, {node.block.key_dim})"
            elif node.kind == "dropout":
                unit = str(node.block.rate)
            else:
                unit = "-"
            display = {"bigru": "BiGRU", "lstm": "LSTM", "lstm_seq": "LSTM(seq)",
                       "mha": "MHA", "layer_norm": "LayerNorm", "dropout": "Dropout",
                       "proj": "Proj", "flatten": "Flatten"}[node.kind]
            rows.append({"layer": display, "unit": unit,
                         "output_shape": _shape_str(node.seq_out, spec.seq_len, node.out_width),
                         "params": count, "connected_to": prev, "name": node.name})
            prev = display
        tails.append(prev)
    if len(branches) > 1:
        rows.append({"layer": "Concatenate", "unit": "-",
                     "output_shape": _shape_str(False, spec.seq_len, sum(widths)),
                     "params": 0, "connected_to": ", ".join(tails)})
        prev = "Concatenate"
    else:
        prev = tails[0]
    for node in head:
        count = sum(int(np.prod(s)) for _, s in _node_param_specs(node))
        rows.append({"layer": "Dense", "unit": str(node.out_width),
                     "output_shape": _shape_str(False, spec.seq_len, node.out_width),
                     "params": count, "connected_to": prev, "name": node.name})
        prev = "Dense"
    return {"rows": rows, "total_params": param_total(spec)}


def format_inspect_table(spec: VariantSpec) -> str:
    table = inspect_table(spec)
    header = f"{'#':>2}  {'Layer':<12}{'Unit':<10}{'Output Shape':<20}{'Params':>10}  Connected to"
    lines = [header, "-" * len(header)]
    for i, row in enumerate(table["rows"], start=1):
        lines.append(f"{i:>2}  {row['layer']:<12}{row['unit']:<10}"
                     f"{row['output_shape']:<20}{row['params']:>10}  {row['connected_to']}")
    lines.append("-" * len(header))
    lines.append(f"Total parameters: {table['total_params']:,}")
    lines.append(f"Trainable parameters: {table['total_params']:,}")
    lines.append("Non-trainable parameters: 0")
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# checkpoints
# ---------------------------------------------------------------------------

_DTYPES = {"f64": np.dtype("<f8"), "f32": np.dtype("<f4")}


def save(params: dict, spec: VariantSpec, metadata: dict, path, dtype: str = "f64") -> None:
    """Write a checkpoint: magic, version, JSON header (spec, metadata,
    per-tensor manifest with CRC32), then little-endian payloads in
    parameter order. dtype 'f64' keeps round trips bit-exact; 'f32' halves
    the file at the cost of rounding."""
    if dtype not in _DTYPES:
        raise ValueError(f"save: dtype must be one of {sorted(_DTYPES)}")
    np_dtype = _DTYPES[dtype]
    manifest = []
    payloads = []
    for name, arr in params.items():
        raw = np.ascontiguousarray(arr, dtype=np_dtype).tobytes()
        manifest.append({"name": name, "shape": list(arr.shape),
                         "crc32": zlib.crc32(raw) & 0xFFFFFFFF})
        payloads.append(raw)
    header = json.dumps({
        "dtype": dtype,
        "spec": spec.to_dict(),
        "metadata": metadata,
        "tensors": manifest,
    }).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(CHECKPOINT_VERSION.to_bytes(4, "little"))
        fh.write(len(header).to_bytes(8, "little"))
        fh.write(header)
        for raw in payloads:
            fh.write(raw)


def load(path):
    """Read a checkpoint back: returns (params in f64, VariantSpec, metadata).
    Distinct errors for bad magic, unsupported version, truncation, and
    per-tensor checksum failures."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if len(blob) < 16:
        raise CheckpointFormatError("checkpoint truncated: missing header")
    if blob[:4] != CHECKPOINT_MAGIC:
        raise CheckpointFormatError(f"bad magic {blob[:4]!r}, expected {CHECKPOINT_MAGIC!r}")
    version = int.from_bytes(blob[4:8], "little")
    if version != CHECKPOINT_VERSION:
        raise CheckpointVersionError(f"unsupported checkpoint version {version}")
    hlen = int.from_bytes(blob[8:16], "little")
    if len(blob) < 16 + hlen:
        raise CheckpointFormatError("checkpoint truncated: incomplete header")
    try:
        header = json.loads(blob[16:16 + hlen].decode("utf-8"))
        spec = VariantSpec.from_dict(header["spec"])
        manifest = header["tensors"]
        np_dtype = _DTYPES[header["dtype"]]
        metadata = header["metadata"]
    except (ValueError, KeyError) as exc:
        raise CheckpointFormatError(f"malformed checkpoint header: {exc}") from exc

    expected = param_manifest(spec)
    if [(m["name"], tuple(m["shape"])) for m in manifest] != expected:
        raise CheckpointFormatError("tensor manifest does not match the stored variant spec")

    params: dict[str, np.ndarray] = {}
    offset = 16 + hlen
    for entry in manifest:
        shape = tuple(entry["shape"])
        nbytes = int(np.prod(shape)) * np_dtype.itemsize
        raw = blob[offset:offset + nbytes]
        if len(raw) != nbytes:
            raise CheckpointFormatError(f"checkpoint truncated inside tensor {entry['name']!r}")
        if (zlib.crc32(raw) & 0xFFFFFFFF) != entry["crc32"]:
            raise CheckpointChecksumError(f"checksum mismatch for tensor {entry['name']!r}")
        params[entry["name"]] = np.frombuffer(raw, dtype=np_dtype).reshape(shape).astype(np.float64)
        offset += nbytes
    if offset != len(blob):
        raise CheckpointFormatError("checkpoint has trailing bytes after the last tensor")
    return params, spec, metadata
