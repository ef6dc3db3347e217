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
A line that ``read_model`` cannot read raises `ParseError` with its number;
so does a section header whose sizes disagree with the ``d``/``p``/``r``/``det``
header (``alpha``/``beta`` d x r, ``gammaK``/``phiK`` and ``resid_cov`` d x d,
``psi`` d x m with m deterministic terms, d eigenvalues). `write_model` never
writes what `read_model` rejects: a NaN or infinite value raises
`InvalidInputError` naming its section before the file is opened.
A VAR file carries matrices ``phi1..phip``, ``psi``, ``resid_cov``; a VECM
file carries ``alpha``, ``beta``, ``gamma1..gamma{p-1}``, ``psi``,
``resid_cov`` and optionally the eigenvalue vector. Only blank lines may
follow the last section.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from .errors import InvalidInputError, ParseError
from .panel import DeterministicSpec
from .var import VarModel
from .vecm import VecmModel

_MAGIC = "windvecm-model 1"


def _format_matrix(name: str, mat: np.ndarray) -> list[str]:
    if not np.isfinite(mat).all():
        raise InvalidInputError(f"model section {name} holds non-finite values")
    rows, cols = mat.shape
    lines = [f"matrix {name} {rows} {cols}"]
    for i in range(rows):
        lines.append(" ".join(f"{v:.17g}" for v in mat[i]))
    return lines


def write_model(model: VarModel | VecmModel, path) -> None:
    if isinstance(model, VecmModel):
        kind, extra, eigenvalues = "vecm", [f"r {model.r}"], model.eigenvalues
        own = [("alpha", model.alpha), ("beta", model.beta)]
        own += [(f"gamma{k}", g) for k, g in enumerate(model.gamma, start=1)]
    elif isinstance(model, VarModel):
        kind, extra, eigenvalues = "var", [], None
        own = [(f"phi{k}", m) for k, m in enumerate(model.phi, start=1)]
    else:
        raise TypeError(f"cannot serialize {type(model).__name__}")
    lines = [_MAGIC, f"kind {kind}", f"det {model.det.value}", f"d {model.d}",
             f"p {model.p}", *extra]
    for name, mat in own + [("psi", model.psi), ("resid_cov", model.resid_cov)]:
        lines += _format_matrix(name, mat)
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

    def number(self, token: str, what: str, kind=float, minimum=-np.inf, below=np.inf):
        """``token`` of the line just read as a ``kind`` in [``minimum``, ``below``)."""
        try:
            value = kind(token)
        except ValueError:
            value = np.nan
        if not minimum <= value < below:  # also false for NaN
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
    if kind == "vecm":
        r = reader.number(reader.scalar("r"), "r", int, 0, d + 1)
        alpha = reader.matrix("alpha", d, r)
        beta = reader.matrix("beta", d, r)
        gamma = tuple(reader.matrix(f"gamma{k}", d, d) for k in range(1, p))
    else:
        phi = tuple(reader.matrix(f"phi{k}", d, d) for k in range(1, p + 1))
    psi = reader.matrix("psi", d, det.n_terms)
    resid_cov = reader.matrix("resid_cov", d, d)
    eigenvalues = None
    rest = reader.lines[reader.pos :]
    if kind == "vecm" and rest and rest[0].startswith("vector eigenvalues"):
        reader.header(["vector", "eigenvalues"], [d])
        eigenvalues = np.array(reader.row("vector eigenvalues", d))
    for line_no, line in enumerate(reader.lines[reader.pos :], start=reader.pos + 1):
        if line.strip():
            raise ParseError(f"unexpected {line!r} after the last section", line=line_no)
    if kind == "var":
        return VarModel(phi=phi, psi=psi, det=det, resid_cov=resid_cov)
    return VecmModel(
        alpha=alpha, beta=beta, gamma=gamma, psi=psi, det=det,
        eigenvalues=eigenvalues, resid_cov=resid_cov,
    )
