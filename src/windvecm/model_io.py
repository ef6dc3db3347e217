"""Structured-text model files.

Layout (one header line, then named sections)::

    windvecm-model 1
    kind vecm            # or: var
    det constant
    d 3
    p 2
    r 1                  # vecm only
    matrix alpha 3 1
    <row of numbers per line, space separated, 17 significant digits>
    ...
    vector eigenvalues 3
    <numbers>

Numbers are rendered with %.17g, which round-trips IEEE doubles exactly, so
``read_model(write_model(m))`` reproduces every coefficient bit-for-bit.
`_sections` lists each kind's matrix sections in file order (``phi1..phip``,
or ``alpha``, ``beta``, ``gamma1..gamma{p-1}``; then ``psi``, ``resid_cov``).
A VECM file may end with its eigenvalue vector; only blank lines may follow.
A line that ``read_model`` cannot read raises `ParseError` with its number:
a count (``d``, ``p``, ``r``, a size) that is not ASCII digits, a value that
is not a finite number as %.17g writes it, section sizes that disagree with
the ``d``/``p``/``r``/``det`` header, or eigenvalues not sorted descending in
[0, 1). `write_model` never writes what `read_model` rejects: a non-finite
value raises `InvalidInputError` naming its section before the file is opened.
"""

from __future__ import annotations

import re
from collections.abc import Iterator
from pathlib import Path

import numpy as np

from .errors import InvalidInputError, ParseError
from .panel import DeterministicSpec
from .var import VarModel
from .vecm import VecmModel

_MAGIC = "windvecm-model 1"

#: How `write_model` writes a count and a value; `_Reader.number` reads nothing else.
_WRITTEN = {int: re.compile("[0-9]{1,18}"),
            float: re.compile(r"-?[0-9]+(\.[0-9]+)?(e[-+][0-9]+)?")}
_MAX = np.finfo(float).max


def _sections(kind: str, d: int, p: int, r: int, m: int) -> Iterator[tuple[str, int, int]]:
    """(name, rows, cols) of each matrix section in file order, yielded lazily so a
    reader stops at the first missing one however large a malformed ``p`` is."""
    if kind == "vecm":
        yield from [("alpha", d, r), ("beta", d, r)]
        yield from ((f"gamma{k}", d, d) for k in range(1, p))
    else:
        yield from ((f"phi{k}", d, d) for k in range(1, p + 1))
    yield from [("psi", d, m), ("resid_cov", d, d)]


def write_model(model: VarModel | VecmModel, path) -> None:
    if isinstance(model, VecmModel):
        kind, r, eigenvalues = "vecm", model.r, model.eigenvalues
        mats = [model.alpha, model.beta, *model.gamma]
    elif isinstance(model, VarModel):
        kind, r, eigenvalues = "var", 0, None
        mats = list(model.phi)
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    lines = [_MAGIC, f"kind {kind}", f"det {model.det.value}", f"d {model.d}",
             f"p {model.p}", *([f"r {r}"] if kind == "vecm" else [])]
    sections = _sections(kind, model.d, model.p, r, model.det.n_terms)
    for (name, rows, cols), mat in zip(sections, mats + [model.psi, model.resid_cov]):
        if not np.isfinite(mat).all():
            raise InvalidInputError(f"model section {name} holds non-finite values")
        lines.append(f"matrix {name} {rows} {cols}")
        lines += [" ".join(f"{v:.17g}" for v in row) for row in mat]
    if eigenvalues is not None:
        lines.append(f"vector eigenvalues {eigenvalues.size}")
        lines.append(" ".join(f"{v:.17g}" for v in eigenvalues))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


class _Reader:
    def __init__(self, path):
        self.lines = Path(path).read_text(encoding="utf-8").splitlines()
        self.pos = 0

    def next_line(self) -> str:
        if self.pos >= len(self.lines):
            raise ParseError("unexpected end of model file", line=self.pos + 1)
        line = self.lines[self.pos]
        self.pos += 1
        return line

    def scalar(self, key: str) -> str:
        line = self.next_line()
        parts = line.split()
        if len(parts) != 2 or parts[0] != key:
            raise ParseError(f"expected '{key} <value>', got {line!r}", line=self.pos)
        return parts[1]

    def number(self, token: str, what: str, kind=float, minimum=-_MAX, maximum=_MAX):
        """``token`` of the line just read: a `_WRITTEN` ``kind`` in [minimum, maximum]."""
        value = kind(token) if _WRITTEN[kind].fullmatch(token) else np.nan
        if not minimum <= value <= maximum:  # also false for NaN
            raise ParseError(f"invalid {what} {token!r}", line=self.pos)
        return value

    def header(self, words: list[str], sizes: list[int]) -> None:
        """A ``<words> <size>...`` line whose sizes must equal ``sizes``."""
        line = self.next_line()
        parts = line.split()
        if len(parts) != len(words) + len(sizes) or parts[: len(words)] != words:
            raise ParseError(f"expected {' '.join(words)}, got {line!r}", line=self.pos)
        found = [self.number(t, "size", int, 0) for t in parts[len(words) :]]
        if found != sizes:
            raise ParseError(
                f"{' '.join(words)} has sizes {found}, expected {sizes}", line=self.pos
            )

    def row(self, what: str, cols: int) -> list[float]:
        tokens = self.next_line().split()
        if len(tokens) != cols:
            raise ParseError(
                f"{what} has {len(tokens)} values, expected {cols}", line=self.pos
            )
        return [self.number(t, f"{what} value") for t in tokens]

    def matrix(self, name: str, rows: int, cols: int) -> np.ndarray:
        """A ``rows`` x ``cols`` section; other sizes fail at the header line.

        The array is built from the rows read, so a header's sizes allocate
        nothing before its rows are there.
        """
        self.header(["matrix", name], [rows, cols])
        read = [self.row(f"matrix {name} row {i}", cols) for i in range(rows)]
        return np.array(read).reshape(rows, cols)


def read_model(path) -> VarModel | VecmModel:
    reader = _Reader(path)
    if reader.next_line().strip() != _MAGIC:
        raise ParseError("not a windvecm model file", line=1)
    kind = reader.scalar("kind")
    if kind not in ("vecm", "var"):
        raise ParseError(f"unknown model kind {kind!r}", line=reader.pos)
    det_name = reader.scalar("det")
    try:
        det = DeterministicSpec(det_name)
    except ValueError:
        raise ParseError(f"unknown det {det_name!r}", line=reader.pos) from None
    d = reader.number(reader.scalar("d"), "d", int, 1)
    p = reader.number(reader.scalar("p"), "p", int, 1)
    r = reader.number(reader.scalar("r"), "r", int, 0, d) if kind == "vecm" else 0
    *own, psi, resid_cov = [reader.matrix(*s) for s in _sections(kind, d, p, r, det.n_terms)]
    eigenvalues = None
    rest = reader.lines[reader.pos :]
    if kind == "vecm" and rest and rest[0].startswith("vector eigenvalues"):
        reader.header(["vector", "eigenvalues"], [d])
        eigenvalues = np.array(reader.row("vector eigenvalues", d))
    for line_no, line in enumerate(reader.lines[reader.pos :], start=reader.pos + 1):
        if line.strip():
            raise ParseError(f"unexpected {line!r} after the last section", line=line_no)
    if kind == "var":
        return VarModel(phi=tuple(own), psi=psi, det=det, resid_cov=resid_cov)
    alpha, beta, *gamma = own
    try:  # the header checks fix every shape: only the eigenvalue row, read last, can fail
        return VecmModel(
            alpha=alpha, beta=beta, gamma=tuple(gamma), psi=psi, det=det,
            eigenvalues=eigenvalues, resid_cov=resid_cov,
        )
    except InvalidInputError as exc:
        raise ParseError(str(exc), line=reader.pos) from None
