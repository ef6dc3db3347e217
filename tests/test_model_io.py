import dataclasses

import numpy as np
import pytest

from helpers import stable_var_model

from windvecm import (
    DeterministicSpec,
    InvalidInputError,
    ParseError,
    cointegrated_spec,
    fit_var,
    fit_vecm,
    generate,
    read_model,
    write_model,
)
from windvecm.var import VarModel
from windvecm.vecm import VecmModel


def test_var_model_roundtrip_bit_exact(tmp_path):
    rng = np.random.default_rng(1)
    model = stable_var_model(rng, d=3, p=2, det=DeterministicSpec.CONSTANT)
    path = tmp_path / "model.txt"
    write_model(model, path)
    back = read_model(path)
    assert type(back).__name__ == "VarModel"
    for a, b in zip(model.phi, back.phi):
        assert np.array_equal(a, b)
    assert np.array_equal(model.psi, back.psi)
    assert np.array_equal(model.resid_cov, back.resid_cov)
    assert back.det is DeterministicSpec.CONSTANT


def test_vecm_model_roundtrip_bit_exact(tmp_path):
    panel = generate(cointegrated_spec(d=4, r_true=2, n_obs=600, seed=2))
    model = fit_vecm(panel, p=3, r=2)
    path = tmp_path / "model.txt"
    write_model(model, path)
    back = read_model(path)
    assert isinstance(back, VecmModel)
    assert (back.p, back.r, back.d) == (3, 2, 4)
    assert np.array_equal(model.alpha, back.alpha)
    assert np.array_equal(model.beta, back.beta)
    for a, b in zip(model.gamma, back.gamma):
        assert np.array_equal(a, b)
    assert np.array_equal(model.psi, back.psi)
    assert np.array_equal(model.eigenvalues, back.eigenvalues)
    assert np.array_equal(model.resid_cov, back.resid_cov)


def test_rank_zero_model_roundtrip(tmp_path):
    panel = generate(cointegrated_spec(d=2, r_true=0, n_obs=300, seed=3))
    model = fit_vecm(panel, p=2, r=0, det=DeterministicSpec.NONE)
    path = tmp_path / "m.txt"
    write_model(model, path)
    back = read_model(path)
    assert back.r == 0
    assert back.alpha.shape == (2, 0)
    assert np.array_equal(model.gamma[0], back.gamma[0])


def test_rewrite_is_byte_identical(tmp_path):
    panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=400, seed=4))
    model = fit_vecm(panel, p=2, r=1)
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_model(model, a)
    write_model(read_model(a), b)
    assert a.read_bytes() == b.read_bytes()


def test_write_refuses_an_object_that_is_no_model(tmp_path):
    path = tmp_path / "model.txt"
    with pytest.raises(TypeError, match="cannot serialize dict"):
        write_model({"phi": [np.eye(2)]}, path)
    assert not path.exists()


def test_read_rejects_foreign_file(tmp_path):
    path = tmp_path / "junk.txt"
    path.write_text("hello\nworld\n")
    with pytest.raises(ParseError):
        read_model(path)


def _replace_line(lines, prefix, new, offset=0):
    """Replace the chosen line by ``new``; with ``new`` None, end the file before it."""
    i = next(i for i, line in enumerate(lines) if line.startswith(prefix)) + offset
    return lines[:i] + ([] if new is None else [new, *lines[i + 1 :]]), i + 1


@pytest.mark.parametrize(
    "kind, prefix, offset, new",
    [
        ("vecm", "d ", 0, "d x"),
        ("vecm", "d ", 0, "d 0"),
        ("var", "d ", 0, "d 0"),
        ("vecm", "det ", 0, "det linear"),
        ("vecm", "matrix alpha", 1, "abc"),
        ("var", "matrix phi1", 0, "matrix phi1 one 1"),
        ("var", "p ", 0, "p 0"),
        ("vecm", "r ", 0, "r 4"),
        ("vecm", "vector eigenvalues", 0, "vector eigenvalues"),
        ("vecm", "matrix alpha", 1, "nan"),
        ("var", "matrix psi", 1, "1e999"),
        ("vecm", "vector eigenvalues", 1, "0.5 nan 0.1"),
        ("vecm", "matrix alpha", 0, "matrix alpha 3 2"),
        ("vecm", "matrix beta", 0, "matrix beta 2 1"),
        ("vecm", "matrix gamma1", 0, "matrix gamma1 3 2"),
        ("vecm", "matrix psi", 0, "matrix psi 3 0"),
        ("vecm", "matrix resid_cov", 0, "matrix resid_cov 2 3"),
        ("vecm", "vector eigenvalues", 0, "vector eigenvalues 2"),
        ("var", "matrix phi1", 0, "matrix phi1 3 2"),
        ("var", "matrix phi2", 0, "matrix phi2 2 3"),
        ("var", "matrix psi", 0, "matrix psi 3 2"),
        ("var", "matrix resid_cov", 0, "matrix resid_cov 3 4"),
        ("vecm", "kind ", 0, "kind varx"),
        ("vecm", "det ", 0, "dett none"),
        ("vecm", "matrix alpha", 1, "0.5 0.25"),
        ("var", "matrix resid_cov", 2, None),
        # counts are ASCII digits as written, not whatever int() accepts
        ("vecm", "d ", 0, "d \uff13"),
        ("var", "p ", 0, "p 1_0"),
        pytest.param("var", "matrix phi1", 0, "matrix phi1 3 " + "3" * 5000,
                     id="size-of-5000-digits"),
        # values are finite numbers in %.17g's form, not whatever float() accepts
        ("var", "matrix phi1", 1, "-inf 0 0"),
        ("var", "matrix phi1", 1, "1_0 0 0"),
        # an eigenvalue row the model refuses fails at that row
        ("vecm", "vector eigenvalues", 1, "0.1 0.5 0.2"),
        ("vecm", "vector eigenvalues", 1, "1 0.5 0.1"),
        ("vecm", "vector eigenvalues", 1, "0.5 0.1 -0.1"),
    ],
)
def test_read_rejects_malformed_line_with_its_number(tmp_path, kind, prefix, offset, new):
    panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=300, seed=4))
    model = fit_vecm(panel, p=2, r=1) if kind == "vecm" else fit_var(panel, 2)
    path = tmp_path / "model.txt"
    write_model(model, path)
    lines, line_no = _replace_line(path.read_text().splitlines(), prefix, new, offset)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError) as info:
        read_model(path)
    assert info.value.line == line_no


def test_section_is_refused_at_its_short_row_before_any_allocation(tmp_path):
    # The header claims a 100000 x 100000 section (74.5 GiB) and one short
    # row follows: the file is refused at that row, and no array of the
    # claimed size is made first.
    path = tmp_path / "model.txt"
    path.write_text("\n".join([
        "windvecm-model 1", "kind var", "det none", "d 100000", "p 1",
        "matrix phi1 100000 100000", "1 2 3",
    ]) + "\n")
    with pytest.raises(ParseError, match="row 0 has 3 values, expected 100000") as info:
        read_model(path)
    assert info.value.line == 7


def test_huge_order_fails_at_its_first_missing_section(tmp_path):
    # p = 10**17 in a p = 2 file: the sections are walked as they are read,
    # so the file is refused where phi3 should start, without a list of
    # 10**17 section names being built first.
    path = tmp_path / "model.txt"
    write_model(fit_var(generate(cointegrated_spec(d=3, r_true=1, n_obs=300, seed=4)), 2), path)
    lines, _ = _replace_line(path.read_text().splitlines(), "p ", "p " + "1" + "0" * 17)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ParseError, match="expected matrix phi3") as info:
        read_model(path)
    assert info.value.line == 14


_PHI3 = ["matrix phi3 3 3", "1 0 0", "0 1 0", "0 0 1"]


@pytest.mark.parametrize(
    "kind, eigenvalues, extra",
    [
        ("var", False, _PHI3),
        ("var", False, ["", "vector eigenvalues 3", "0.5 0.25 0.125"]),
        ("vecm", True, ["", "  ", "# comment"]),
        ("vecm", False, ["matrix gamma2 3 3", "1 0 0", "0 1 0", "0 0 1"]),
        ("vecm", False, ["", "vector eigenvalues 3", "0.5 0.25 0.125"]),
        ("vecm", True, ["vector eigenvalues 3", "0.5 0.25 0.125"]),
    ],
    ids=["var-phi3", "var-eigenvalues", "vecm-comment", "vecm-gamma2",
         "vecm-eigenvalues-after-blank", "vecm-second-eigenvalues"],
)
def test_read_rejects_content_after_last_section(tmp_path, kind, eigenvalues, extra):
    panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=300, seed=4))
    if kind == "var":
        model = fit_var(panel, 2)
    else:
        model = fit_vecm(panel, p=2, r=1)
        if not eigenvalues:
            model = dataclasses.replace(model, eigenvalues=None)
    path = tmp_path / "model.txt"
    write_model(model, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines + ["", "  "]) + "\n")
    assert read_model(path).d == 3             # trailing blank lines are fine
    path.write_text("\n".join(lines + extra) + "\n")
    with pytest.raises(ParseError) as info:
        read_model(path)
    first = next(i for i, line in enumerate(extra) if line.strip())
    assert info.value.line == len(lines) + first + 1


GOLDEN_VAR = """\
windvecm-model 1
kind var
det constant
d 2
p 2
matrix phi1 2 2
0.5 -0.25
0.125 1
matrix phi2 2 2
0 0.10000000000000001
-2 0.75
matrix psi 2 1
1.5
-0.5
matrix resid_cov 2 2
1 0.25
0.25 2
"""

GOLDEN_VECM = """\
windvecm-model 1
kind vecm
det constant
d 2
p 2
r 1
matrix alpha 2 1
-0.5
0.25
matrix beta 2 1
1
-1
matrix gamma1 2 2
0.20000000000000001 0
0 -0.29999999999999999
matrix psi 2 1
0.5
3
matrix resid_cov 2 2
1 0
0 0.5
vector eigenvalues 2
0.375 0.0625
"""


def test_written_text_is_pinned(tmp_path):
    # Exact file text for a hand-built VAR and VECM: the header, every
    # section and its order, and the %.17g rendering.
    var = VarModel(
        phi=(np.array([[0.5, -0.25], [0.125, 1.0]]), np.array([[0.0, 0.1], [-2.0, 0.75]])),
        psi=np.array([[1.5], [-0.5]]),
        det=DeterministicSpec.CONSTANT,
        resid_cov=np.array([[1.0, 0.25], [0.25, 2.0]]),
    )
    vecm = VecmModel(
        alpha=np.array([[-0.5], [0.25]]),
        beta=np.array([[1.0], [-1.0]]),
        gamma=(np.array([[0.2, 0.0], [0.0, -0.3]]),),
        psi=np.array([[0.5], [3.0]]),
        det=DeterministicSpec.CONSTANT,
        eigenvalues=np.array([0.375, 0.0625]),
        resid_cov=np.array([[1.0, 0.0], [0.0, 0.5]]),
    )
    for model, golden in ((var, GOLDEN_VAR), (vecm, GOLDEN_VECM)):
        path = tmp_path / "model.txt"
        write_model(model, path)
        assert path.read_text(encoding="utf-8") == golden
        write_model(read_model(path), path)
        assert path.read_text(encoding="utf-8") == golden


@pytest.mark.parametrize(
    "kind, field, section, bad",
    [
        ("vecm", "alpha", "alpha", np.nan),
        ("vecm", "gamma", "gamma1", np.inf),
        ("vecm", "resid_cov", "resid_cov", np.inf),
        ("var", "phi", "phi2", -np.inf),
        ("var", "psi", "psi", np.nan),
    ],
)
def test_write_refuses_non_finite_values(tmp_path, kind, field, section, bad):
    # read_model rejects such a file, so write_model writes none of it.
    panel = generate(cointegrated_spec(d=3, r_true=1, n_obs=300, seed=4))
    model = fit_vecm(panel, p=2, r=1) if kind == "vecm" else fit_var(panel, 2)
    value = getattr(model, field)          # a matrix, or a tuple of them
    last = (value[-1] if isinstance(value, tuple) else value).copy()
    last[-1, -1] = bad
    value = (*value[:-1], last) if isinstance(value, tuple) else last
    path = tmp_path / "model.txt"
    with pytest.raises(InvalidInputError, match=f"section {section} holds non-finite"):
        write_model(dataclasses.replace(model, **{field: value}), path)
    assert not path.exists()
