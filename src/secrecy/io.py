"""JSON files for channels, states, and codes.

The on-disk syntax is plain JSON with complex entries spelled as
``[re, im]`` pairs:

* channel: ``{"name": s, "alphabet": k, "dim_b": m, "dim_e": l,
  "states": [{"matrix": [[[re, im], ...], ...]}, ...]}`` — one joint
  receiver/eavesdropper matrix per input letter, row-major, of size
  ``(m*l) x (m*l)``;
* state: ``{"dims": [d1, d2, ...], "matrix": ...}``;
* code: ``{"m": M, "n": n, "encoder": [[p, ...], ...],
  "decoder": [{"matrix": ...}, ...] | null}`` — the encoder rows are
  probability rows over the ``|X|^n`` input strings.

Floats are serialized through ``repr`` (Python's shortest round-trip
form), so a matrix written and re-read is bit-identical.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .channels import CqqWiretapChannel
from .codes import WiretapCode
from .quantum import DensityOperator, ValidationError

__all__ = [
    "matrix_to_json",
    "matrix_from_json",
    "channel_to_json",
    "channel_from_json",
    "save_channel",
    "parse_channel_spec",
    "state_to_json",
    "save_state",
    "parse_state",
    "code_to_json",
    "code_from_json",
    "save_code",
    "parse_code",
]


# ---------------------------------------------------------------------------
# complex matrices
# ---------------------------------------------------------------------------

def matrix_to_json(mat: np.ndarray) -> list:
    """Square complex matrix as nested [re, im] rows."""
    mat = np.asarray(mat, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in mat]


def _finite_number(v) -> bool:
    """A JSON number that is finite as a float (JSON booleans are ints to
    isinstance, and NaN/Infinity parse as floats)."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer beyond the float range
        return False


def matrix_from_json(rows, where: str = "matrix") -> np.ndarray:
    if not isinstance(rows, list) or not rows:
        raise ValidationError(f"{where}: expected a nonempty list of rows")
    width = None
    out = []
    for i, row in enumerate(rows):
        if not isinstance(row, list):
            raise ValidationError(f"{where}: row {i} is not a list")
        if width is None:
            width = len(row)
        elif len(row) != width:
            raise ValidationError(
                f"{where}: row {i} has {len(row)} entries, expected {width}")
        line = []
        for j, cell in enumerate(row):
            if (not isinstance(cell, list) or len(cell) != 2
                    or not all(_finite_number(v) for v in cell)):
                raise ValidationError(f"{where}: entry ({i},{j}) is not an "
                                      f"[re, im] pair of finite numbers")
            line.append(complex(cell[0], cell[1]))
        out.append(line)
    return np.array(out, dtype=complex)


def _load_json(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as ex:
        raise ValidationError(f"cannot read {path}: {ex}") from ex
    try:
        return json.loads(text)
    except json.JSONDecodeError as ex:
        # carries line/column of the first offending character
        raise ValidationError(f"{path}: {ex}") from ex


def _dump_json(data, path) -> None:
    Path(path).write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")


def _field(data: dict, key: str, where: str):
    if not isinstance(data, dict) or key not in data:
        raise ValidationError(f"{where}: missing field {key!r}")
    return data[key]


# ---------------------------------------------------------------------------
# channels
# ---------------------------------------------------------------------------

def channel_to_json(channel: CqqWiretapChannel) -> dict:
    return {
        "name": channel.name,
        "alphabet": channel.size,
        "dim_b": channel.dim_b,
        "dim_e": channel.dim_e,
        "states": [{"matrix": matrix_to_json(s.mat)} for s in channel.states],
    }


def channel_from_json(data, where: str = "channel") -> CqqWiretapChannel:
    name = str(_field(data, "name", where))
    size = _field(data, "alphabet", where)
    dim_b = _field(data, "dim_b", where)
    dim_e = _field(data, "dim_e", where)
    entries = _field(data, "states", where)
    if not isinstance(size, int) or size < 1:
        raise ValidationError(f"{where}: alphabet must be a positive integer")
    if not isinstance(entries, list) or len(entries) != size:
        raise ValidationError(
            f"{where}: expected {size} states, found "
            f"{len(entries) if isinstance(entries, list) else 'none'}")
    d = int(dim_b) * int(dim_e)
    states = []
    for x, entry in enumerate(entries):
        mat = matrix_from_json(_field(entry, "matrix", f"{where}.states[{x}]"),
                               f"{where}.states[{x}].matrix")
        if mat.shape != (d, d):
            raise ValidationError(
                f"{where}: letter {x} matrix is {mat.shape}, expected "
                f"({d}, {d})")
        try:
            state = DensityOperator(mat, (int(dim_b), int(dim_e)))
            state.validate(require_normalized=True)
        except ValidationError as ex:
            raise ValidationError(f"{where}: letter {x}: {ex}") from ex
        states.append(state)
    return CqqWiretapChannel(tuple(str(i) for i in range(size)),
                             int(dim_b), int(dim_e), states, name=name)


def parse_channel_spec(path) -> CqqWiretapChannel:
    """Read and validate a channel file; diagnostics name the first
    offending letter or field."""
    return channel_from_json(_load_json(path), where=str(path))


def save_channel(channel: CqqWiretapChannel, path) -> None:
    _dump_json(channel_to_json(channel), path)


# ---------------------------------------------------------------------------
# states
# ---------------------------------------------------------------------------

def state_to_json(state: DensityOperator) -> dict:
    return {"dims": list(state.dims), "matrix": matrix_to_json(state.mat)}


def parse_state(path) -> DensityOperator:
    data = _load_json(path)
    where = str(path)
    dims = _field(data, "dims", where)
    if (not isinstance(dims, list) or not dims
            or not all(isinstance(d, int) and d >= 1 for d in dims)):
        raise ValidationError(f"{where}: dims must be positive integers")
    mat = matrix_from_json(_field(data, "matrix", where), f"{where}.matrix")
    d = math.prod(dims)
    if mat.shape != (d, d):
        raise ValidationError(
            f"{where}: matrix is {mat.shape}, dims give ({d}, {d})")
    try:
        return DensityOperator(mat, tuple(dims))
    except ValidationError as ex:
        raise ValidationError(f"{where}: {ex}") from ex


def save_state(state: DensityOperator, path) -> None:
    _dump_json(state_to_json(state), path)


# ---------------------------------------------------------------------------
# codes
# ---------------------------------------------------------------------------

def code_to_json(code: WiretapCode) -> dict:
    decoder = None
    if code.decoder is not None:
        decoder = [{"matrix": matrix_to_json(e)} for e in code.decoder]
    return {
        "m": code.m,
        "n": code.n,
        "encoder": [[float(p) for p in row] for row in code.encoder],
        "decoder": decoder,
    }


def code_from_json(data, where: str = "code") -> WiretapCode:
    m = _field(data, "m", where)
    n = _field(data, "n", where)
    enc_rows = _field(data, "encoder", where)
    dec_rows = _field(data, "decoder", where)
    if not isinstance(m, int) or m < 1 or not isinstance(n, int) or n < 1:
        raise ValidationError(f"{where}: m and n must be positive integers")
    if (not isinstance(enc_rows, list) or len(enc_rows) != m
            or not all(isinstance(r, list) for r in enc_rows)):
        raise ValidationError(f"{where}: encoder must be {m} probability rows")
    encoder = np.array(enc_rows, dtype=float)
    if encoder.ndim != 2:
        raise ValidationError(f"{where}: encoder rows have unequal lengths")
    k = encoder.shape[1]
    alphabet_size = round(k ** (1.0 / n))
    if alphabet_size ** n != k:
        raise ValidationError(
            f"{where}: encoder has {k} columns, not a perfect {n}-th power "
            f"of an alphabet size")
    decoder = None
    if dec_rows is not None:
        if not isinstance(dec_rows, list) or not dec_rows:
            raise ValidationError(
                f"{where}: decoder must be null or a list of matrices")
        decoder = tuple(
            matrix_from_json(_field(e, "matrix", f"{where}.decoder[{i}]"),
                             f"{where}.decoder[{i}].matrix")
            for i, e in enumerate(dec_rows))
    try:
        return WiretapCode(m=m, n=n, alphabet_size=alphabet_size,
                           encoder=encoder, decoder=decoder)
    except ValidationError as ex:
        raise ValidationError(f"{where}: {ex}") from ex


def parse_code(path) -> WiretapCode:
    return code_from_json(_load_json(path), where=str(path))


def save_code(code: WiretapCode, path) -> None:
    _dump_json(code_to_json(code), path)
