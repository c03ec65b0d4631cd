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

Block kinds: each kind is one class in the registry below, which alone
knows the kind's spec fields and their checks, its output width and rank,
its parameter names and shapes, its initialization, forward and backward,
and its row in the inspect table. `_compile` turns a spec into nodes that
carry their kind; everything after it (manifest, build, forward, backward,
inspect) is a loop over nodes.
"""

from __future__ import annotations

import itertools
import json
import zlib
from dataclasses import dataclass, fields

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
# block kinds
# ---------------------------------------------------------------------------

def _tensors(prefix: str, obj) -> dict[str, np.ndarray]:
    """A *Params dataclass as flat-dict entries named `prefix.field`."""
    return {f"{prefix}.{suffix}": arr for suffix, arr in obj.tensors()}


class _Kind:
    """Everything about one block kind. `forward(node, params, h, train, rng,
    spec)` returns (output, cache); `backward(node, params, cache, d, grads)`
    adds the parameter gradients to `grads` and returns the input gradient.
    The default backward hands the kind's parameter view to its `grad(p,
    cache, d)`. Layer functions are looked up on the `layers` module at call
    time, so a wrapper installed on that module sees every call."""

    display = ""
    spec_fields: tuple[str, ...] = ()  # the BlockSpec fields that describe it
    needs_seq = False                  # requires a (b, T, d) input
    params_cls = None                  # the layers.*Params dataclass of its weights

    def check(self, blk: BlockSpec, name: str, spec: VariantSpec) -> None:
        pass

    def out(self, blk: BlockSpec, width: int, is_seq: bool) -> tuple[int, bool]:
        """Output width and whether the output is still a sequence."""
        return width, is_seq

    def param_specs(self, node) -> list[tuple[str, tuple[int, ...]]]:
        """(suffix, shape) pairs in serialization order."""
        return []

    def init(self, node, rng: RngStream) -> dict[str, np.ndarray]:
        """Initialized tensors by full name, drawn from `rng` in manifest order."""
        return {}

    def unit(self, node) -> str:
        """The inspect table's unit column: the block's field values."""
        vals = tuple(getattr(node.block, f) for f in self.spec_fields)
        return str(vals[0] if len(vals) == 1 else vals) if vals else "-"

    def view(self, params: dict, prefix: str):
        """The kind's *Params dataclass over the flat-dict entries under `prefix`."""
        return self.params_cls(**{f.name: params[f"{prefix}.{f.name}"]
                                  for f in fields(self.params_cls)})

    def backward(self, node, params, cache, d, grads):
        d, g = self.grad(self.view(params, node.name), cache, d)
        grads.update(_tensors(node.name, g))
        return d


class _Units(_Kind):
    """Sequence blocks sized by `units`: the recurrent ones and the projection.
    The output is `width_per_unit * units` wide and a sequence if `seq_out`."""

    spec_fields = ("units",)
    needs_seq = True
    width_per_unit = 1
    seq_out = True

    def check(self, blk, name, spec):
        if blk.units < 1:
            raise ConstructionError(f"{name}: units must be positive, got {blk.units}")

    def out(self, blk, width, is_seq):
        return self.width_per_unit * blk.units, self.seq_out


class _BiGru(_Units):
    display = "BiGRU"
    params_cls = GruParams
    width_per_unit = 2

    def param_specs(self, node):
        w, n = node.in_width, node.block.units
        per_dir = [("W_in", (w, 3 * n)), ("W_rec", (n, 3 * n)),
                   ("b_in", (3 * n,)), ("b_rec", (3 * n,))]
        return [(f"{d}.{s}", shp) for d in ("fwd", "bwd") for s, shp in per_dir]

    def init(self, node, rng):
        fwd = GruParams.init(rng, node.in_width, node.block.units)
        bwd = GruParams.init(rng, node.in_width, node.block.units)
        return {**_tensors(f"{node.name}.fwd", fwd), **_tensors(f"{node.name}.bwd", bwd)}

    def forward(self, node, params, h, train, rng, spec):
        return layers.bigru_forward(self.view(params, f"{node.name}.fwd"),
                                    self.view(params, f"{node.name}.bwd"), h, train=train)

    def backward(self, node, params, cache, d, grads):
        d, g_fwd, g_bwd = layers.bigru_backward(self.view(params, f"{node.name}.fwd"),
                                                self.view(params, f"{node.name}.bwd"), cache, d)
        grads.update(_tensors(f"{node.name}.fwd", g_fwd))
        grads.update(_tensors(f"{node.name}.bwd", g_bwd))
        return d


class _Lstm(_Units):
    """LSTM over the sequence, keeping only the last hidden state."""

    display = "LSTM"
    params_cls = LstmParams
    seq_out = False

    def param_specs(self, node):
        w, n = node.in_width, node.block.units
        return [("W_in", (w, 4 * n)), ("W_rec", (n, 4 * n)), ("b", (4 * n,))]

    def init(self, node, rng):
        return _tensors(node.name, LstmParams.init(rng, node.in_width, node.block.units))

    def forward(self, node, params, h, train, rng, spec):
        return layers.lstm_last_forward(self.view(params, node.name), h, train=train)

    def grad(self, p, cache, d):
        return layers.lstm_last_backward(p, cache, d)


class _LstmSeq(_Lstm):
    """LSTM keeping every step's hidden state."""

    display = "LSTM(seq)"
    seq_out = True

    def forward(self, node, params, h, train, rng, spec):
        return layers.lstm_sequence_forward(self.view(params, node.name), h, train=train)

    def grad(self, p, cache, d):
        return layers.lstm_sequence_backward(p, cache, d)


class _Mha(_Kind):
    display = "MHA"
    spec_fields = ("heads", "key_dim")
    needs_seq = True
    params_cls = MhaParams

    def check(self, blk, name, spec):
        if blk.heads < 1 or blk.key_dim < 1:
            raise ConstructionError(f"{name}: heads and key_dim must be positive")

    def param_specs(self, node):
        w, hd = node.in_width, node.block.heads * node.block.key_dim
        return [("Wq", (w, hd)), ("bq", (hd,)), ("Wk", (w, hd)), ("bk", (hd,)),
                ("Wv", (w, hd)), ("bv", (hd,)), ("Wo", (hd, w)), ("bo", (w,))]

    def init(self, node, rng):
        return _tensors(node.name, MhaParams.init(rng, node.in_width, node.block.heads,
                                                  node.block.key_dim))

    def forward(self, node, params, h, train, rng, spec):
        return layers.mha_self_forward(self.view(params, node.name), h,
                                       node.block.heads, node.block.key_dim, train=train)

    def grad(self, p, cache, d):
        return layers.mha_self_backward(p, cache, d)


class _LayerNorm(_Kind):
    display = "LayerNorm"
    params_cls = LayerNormParams

    def check(self, blk, name, spec):
        if not spec.ln_eps > 0:
            raise ConstructionError(f"{name}: ln_eps must be positive, got {spec.ln_eps}")

    def param_specs(self, node):
        return [("gamma", (node.in_width,)), ("beta", (node.in_width,))]

    def init(self, node, rng):
        return _tensors(node.name, LayerNormParams.init(node.in_width))

    def forward(self, node, params, h, train, rng, spec):
        return layers.layer_norm_forward(self.view(params, node.name), h, eps=spec.ln_eps)

    def grad(self, p, cache, d):
        return layers.layer_norm_backward(p, cache, d)


class _Dropout(_Kind):
    display = "Dropout"
    spec_fields = ("rate",)

    def check(self, blk, name, spec):
        if not 0.0 <= blk.rate < 1.0:
            raise ConstructionError(f"{name}: dropout rate must be in [0, 1)")

    def forward(self, node, params, h, train, rng, spec):
        # the cache is the mask, None in eval
        return layers.dropout_apply(h, node.block.rate, "train" if train else "eval", rng)

    def backward(self, node, params, mask, d, grads):
        return layers.dropout_backward(mask, node.block.rate, d)


class _Dense(_Kind):
    """Head layer; `act` is relu for hidden widths, softmax for the output."""

    display = "Dense"
    params_cls = DenseParams

    def __init__(self, act: str):
        self.act = act

    def param_specs(self, node):
        return [("W", (node.in_width, node.out_width)), ("b", (node.out_width,))]

    def init(self, node, rng):
        return _tensors(node.name, DenseParams.init(rng, node.in_width, node.out_width))

    def forward(self, node, params, h, train, rng, spec):
        return layers.dense_forward(self.view(params, node.name), h, act=self.act)

    def grad(self, p, cache, d):
        return layers.dense_backward(p, cache, d)

    def unit(self, node):
        return str(node.out_width)


class _Proj(_Units):
    """Width-changing linear map applied at every step."""

    display = "Proj"
    params_cls = DenseParams
    param_specs = _Dense.param_specs
    init = _Dense.init

    def forward(self, node, params, h, train, rng, spec):
        return layers.time_dense_forward(self.view(params, node.name), h)

    def grad(self, p, cache, d):
        return layers.time_dense_backward(p, cache, d)


class _Flatten(_Kind):
    """Appended to a branch whose tail is still a sequence."""

    display = "Flatten"

    def forward(self, node, params, h, train, rng, spec):
        return layers.flatten(h), h.shape

    def backward(self, node, params, shape, d, grads):
        return layers.flatten_backward(shape, d)


_BLOCKS = {"bigru": _BiGru(), "lstm": _Lstm(), "lstm_seq": _LstmSeq(), "mha": _Mha(),
           "layer_norm": _LayerNorm(), "dropout": _Dropout(), "proj": _Proj()}
_FLATTEN, _HIDDEN, _OUTPUT = _Flatten(), _Dense("relu"), _Dense("softmax")

BLOCK_KINDS = tuple(_BLOCKS)


# ---------------------------------------------------------------------------
# specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BlockSpec:
    """One pipeline block. Each kind sets only its own fields: units
    (bigru/lstm/lstm_seq/proj), heads+key_dim (mha), rate (dropout); the
    others keep their defaults, so the spec survives `to_dict`/`from_dict`."""

    kind: str
    units: int = 0
    heads: int = 0
    key_dim: int = 0
    rate: float = 0.0

    def __post_init__(self):
        if self.kind not in _BLOCKS:
            raise ConstructionError(f"unknown block kind {self.kind!r}")
        used = _BLOCKS[self.kind].spec_fields
        for f in fields(self)[1:]:  # the fields after `kind`
            value = getattr(self, f.name)
            if f.name not in used and value != f.default:
                raise ConstructionError(f"{self.kind} block does not use {f.name} "
                                        f"(got {value!r})")
            if f.name == "rate":
                if not isinstance(value, (int, float, np.integer, np.floating)):
                    raise ConstructionError(f"{self.kind} block: rate must be a number, "
                                            f"got {value!r}")
            elif not isinstance(value, (int, np.integer)):
                raise ConstructionError(f"{self.kind} block: {f.name} must be an "
                                        f"integer, got {value!r}")

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{f: getattr(self, f) for f in _BLOCKS[self.kind].spec_fields}}

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

    def __post_init__(self):
        if not isinstance(self.seq_len, (int, np.integer)):
            raise ConstructionError(f"seq_len must be an integer, got {self.seq_len!r}")
        if not all(isinstance(w, (int, np.integer)) for w in self.head):
            raise ConstructionError(f"head widths must be integers, got {self.head}")
        if self.seq_len < 1:
            raise ConstructionError(f"seq_len must be >= 1, got {self.seq_len}")
        if self.n_classes < 2:
            raise ConstructionError(f"n_classes must be >= 2, got {self.n_classes}")
        if any(w < 1 for w in self.head):
            raise ConstructionError(f"head widths must be >= 1, got {self.head}")

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
    kind: _Kind
    block: BlockSpec | None     # None for the flatten and head nodes
    in_width: int
    out_width: int
    seq_out: bool


def _compile_branch(spec: VariantSpec, bi: int, branch: tuple[BlockSpec, ...]) -> list[_Node]:
    nodes: list[_Node] = []
    width = 1
    is_seq = True
    for i, blk in enumerate(branch):
        name = f"branch{bi + 1}.{i}_{blk.kind}"
        kind = _BLOCKS[blk.kind]
        if kind.needs_seq and not is_seq:
            raise ConstructionError(f"{name}: requires a sequence input but the branch "
                                    "already collapsed to a vector")
        kind.check(blk, name, spec)
        out, seq_out = kind.out(blk, width, is_seq)
        nodes.append(_Node(name, kind, blk, width, out, seq_out))
        width, is_seq = out, seq_out
    if is_seq:
        nodes.append(_Node(f"branch{bi + 1}.{len(branch)}_flatten", _FLATTEN, None,
                           width, spec.seq_len * width, False))
    return nodes


def _compile(spec: VariantSpec):
    """Returns (branch node lists, branch output widths, head node list)."""
    if not spec.branches:
        raise ConstructionError("variant has no branches")
    branches = [_compile_branch(spec, bi, br) for bi, br in enumerate(spec.branches)]
    widths = [br[-1].out_width for br in branches]
    head = []
    w = sum(widths)
    for i, hw in enumerate((*spec.head, spec.n_classes)):
        kind = _OUTPUT if i == len(spec.head) else _HIDDEN
        head.append(_Node(f"head.{i}_dense", kind, None, w, hw, False))
        w = hw
    return branches, widths, head


def param_manifest(spec: VariantSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Deterministic (name, shape) list: branches in order, then the head."""
    branches, _, head = _compile(spec)
    return [(f"{node.name}.{suffix}", shape)
            for node in itertools.chain(*branches, head)
            for suffix, shape in node.kind.param_specs(node)]


def param_total(spec: VariantSpec) -> int:
    """Analytic trainable-parameter count, no allocation."""
    return sum(int(np.prod(shape)) for _, shape in param_manifest(spec))


def build(spec: VariantSpec, rng: RngStream) -> dict[str, np.ndarray]:
    """Allocate and initialize every trainable tensor. Dense/projection
    kernels Glorot-uniform, recurrent kernels orthogonal per gate, biases
    zero; fully determined by the rng stream."""
    branches, _, head = _compile(spec)
    params: dict[str, np.ndarray] = {}
    for node in itertools.chain(*branches, head):
        params.update(node.kind.init(node, rng))
    return params


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
    branches, _, head = _compile(spec)
    if trace is not None:
        trace.append(("input", x.shape))

    def run(nodes, h):
        caches = []
        for node in nodes:
            h, c = node.kind.forward(node, params, h, train, rng, spec)
            if train:
                caches.append(c)
            if trace is not None:
                trace.append((node.name, h.shape))
        return h, caches

    branch_outs, branch_caches = zip(*(run(nodes, x) for nodes in branches))
    h = branch_outs[0]
    for extra in branch_outs[1:]:
        h = layers.concat_last(h, extra)
    if trace is not None and len(branch_outs) > 1:
        trace.append(("concat", h.shape))
    h, head_caches = run(head, h)
    return h, ({"branches": branch_caches, "head": head_caches} if train else None)


def predict(params: dict, spec: VariantSpec, x: np.ndarray) -> np.ndarray:
    """Deterministic eval-mode class probabilities, (b, n_classes)."""
    probs, _ = forward(params, spec, x, mode="eval")
    return probs


def backward(params: dict, spec: VariantSpec, caches: dict, dprobs: np.ndarray):
    """Analytic gradients of the scalar loss whose probs-gradient is `dprobs`.
    Returns a dict aligned with the parameter names."""
    branches, widths, head = _compile(spec)
    grads: dict[str, np.ndarray] = {}

    def run(nodes, node_caches, d):
        for node, c in zip(reversed(nodes), reversed(node_caches)):
            d = node.kind.backward(node, params, c, d, grads)
        return d

    dh = run(head, caches["head"], as_f64(dprobs))
    offsets = np.cumsum([0] + widths)
    for bi in range(len(branches) - 1, -1, -1):
        run(branches[bi], caches["branches"][bi], dh[..., offsets[bi]:offsets[bi + 1]])
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

    def add(node, prev):
        rows.append({"layer": node.kind.display, "unit": node.kind.unit(node),
                     "output_shape": _shape_str(node.seq_out, spec.seq_len, node.out_width),
                     "params": sum(int(np.prod(s)) for _, s in node.kind.param_specs(node)),
                     "connected_to": prev, "name": node.name})
        return node.kind.display

    tails = []
    for nodes in branches:
        prev = "Input"
        for node in nodes:
            prev = add(node, prev)
        tails.append(prev)
    if len(branches) > 1:
        rows.append({"layer": "Concatenate", "unit": "-",
                     "output_shape": _shape_str(False, spec.seq_len, sum(widths)),
                     "params": 0, "connected_to": ", ".join(tails)})
        prev = "Concatenate"
    else:
        prev = tails[0]
    for node in head:
        prev = add(node, prev)
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
