"""Key=value experiment configuration: parsing, validation, canonical echo."""

import re
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from heislab import (
    ConfigError,
    ExperimentConfig,
    REGISTRY_DEFAULT_SELECTION,
    build_form,
    build_projection,
    canonical_text,
    parse_config,
)
from heislab.config import format_value


class TestDefaults:
    def test_empty_document(self):
        cfg = parse_config("")
        assert cfg == ExperimentConfig()
        assert cfg.n == 1
        assert cfg.t == (1.0,) and cfg.N == 1000 and cfg.m == 200000
        assert cfg.seed == 42 and cfg.c_ref == 4.0 and cfg.space == "G"
        assert cfg.K == 64
        assert cfg.lambdas == (0.5, 1.0, 2.0) and cfg.dims == (1, 2, 3, 4)
        assert cfg.scan_forms == ("isotropic", "ascending_weights")
        assert cfg.target_w == (3.0, 4.0) and cfg.target_c == 0.0
        assert cfg.weights is None and cfg.projection is None and cfg.out is None
        assert cfg.f == ()
        assert cfg.f_or_default() == REGISTRY_DEFAULT_SELECTION
        assert cfg.f_or_default(("cos_theta",)) == ("cos_theta",)

    def test_comments_and_blank_lines(self):
        cfg = parse_config("# a comment\n\n  t = 2.0  # trailing\n   \n")
        assert cfg.t == (2.0,)

    def test_last_duplicate_wins(self):
        assert parse_config("n = 2\nn = 3").n == 3


class TestParsing:
    def test_steps_key_is_capital_n(self):
        assert parse_config("N = 500").N == 500

    def test_every_field_is_a_key(self):
        # a key may be left empty exactly when its default is unset
        for field in fields(ExperimentConfig):
            if field.default in (None, ()):
                assert getattr(parse_config(f"{field.name} ="), field.name) == field.default
            else:
                with pytest.raises(ConfigError, match="needs a value"):
                    parse_config(f"{field.name} =")
        keys = [line.split(" = ")[0] for line in canonical_text(ExperimentConfig()).splitlines()]
        assert keys == sorted(field.name for field in fields(ExperimentConfig))

    def test_lists(self):
        cfg = parse_config(
            "t = 0.5, 1, 2\nf = poly_radial, exp_linear(0.25)\ndims = 1,2\n"
            "lambdas = 0.1,0.2\ntarget_w = 1,0"
        )
        assert cfg.t == (0.5, 1.0, 2.0)
        assert cfg.f == ("poly_radial", "exp_linear(0.25)")
        assert cfg.dims == (1, 2)
        assert cfg.lambdas == (0.1, 0.2)
        assert cfg.target_w == (1.0, 0.0)

    def test_empty_value_means_unset(self):
        cfg = parse_config("out =\nf =\nweights =\nprojection =")
        assert cfg.out is None and cfg.f == ()
        assert cfg.weights is None and cfg.projection is None

    def test_n_inferred_from_weights(self):
        cfg = parse_config("weights = 1, 2, 3")
        assert cfg.n == 3

    def test_explicit_n_must_agree_with_weights(self):
        cfg = parse_config("weights = 1, 2\nn = 2")
        assert cfg.n == 2
        with pytest.raises(ConfigError, match="conflicts"):
            parse_config("weights = 1, 2\nn = 3")


class TestErrorCollection:
    def test_all_problems_reported_at_once(self):
        doc = "bogus = 1\nt = -1\nspace = H\nm = 1\n"
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        messages = err.value.errors
        assert len(messages) == 4
        assert "line 1" in messages[0] and "unknown key" in messages[0]
        assert any("t values must be positive" in msg for msg in messages)
        assert any("space" in msg for msg in messages)
        assert any("m must be >= 2" in msg for msg in messages)
        assert isinstance(err.value, ValueError)

    def test_overrides_are_named_by_their_text(self):
        with pytest.raises(ConfigError) as err:
            parse_config("m = 5\nbogus = 1\n", ["t = -1", "delta_t = 0.1", "m = x"])
        assert err.value.errors[:3] == [
            "line 2: unknown key 'bogus'",
            "--set 'delta_t = 0.1': unknown key 'delta_t'",
            "--set 'm = x': bad value for 'm': invalid literal for int() with base 10: 'x'",
        ]
        assert any("t values must be positive" in msg for msg in err.value.errors)
        # a later override wins over the text
        assert parse_config("m = 5\nseed = 3", ["m = 7"]) == parse_config("seed = 3\nm = 7")

    @pytest.mark.parametrize(
        "doc,needle",
        [
            ("just words", "expected `key = value`"),
            ("t =", "needs a value"),
            ("t = 1,,2", "bad value"),
            ("t = inf", "bad value"),
            ("t = nan", "bad value"),
            ("N = ten", "bad value"),
            ("seed = -1", "seed"),
            ("seed = 18446744073709551616", "seed"),
            ("K = 1", "K must be >= 2"),
            ("K = 100001", "K must be <= 100000"),
            ("k_window = -1", "k_window"),  # no longer a key: rejected as unknown
            ("c_ref = 0", "c_ref"),
            ("dims = 0,1", "dims"),
            ("n = 0", "n must be >= 1"),
            # Omega is (2n)^2 floats: at n = 10^17 the first list fails at once
            ("n = 100000000000000000", "n is too large to allocate"),
            ("form = trace_class", "unknown key 'form'"),  # the weights name the form
            ("weights = 1,-2", "weights must be positive"),
            ("scan_forms = isotropic,diagonal", "unknown form family"),
            ("f = poly_radial,nope", "bad f selector"),
        ],
    )
    def test_single_problems(self, doc, needle):
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert any(needle in msg for msg in err.value.errors), err.value.errors


class TestProjectionValidation:
    def test_valid_sub_projection(self):
        cfg = parse_config("n = 2\nprojection = 3, 4")
        assert cfg.projection == (3, 4)
        form = build_form(cfg)
        assert build_projection(cfg, form).indices == (3, 4)

    def test_default_projection_is_full(self):
        cfg = parse_config("n = 2")
        form = build_form(cfg)
        assert build_projection(cfg, form).indices == (1, 2, 3, 4)

    @pytest.mark.parametrize(
        "doc,needle",
        [
            ("n = 2\nprojection = 1, 3", "bracket-generation"),
            ("n = 2\nprojection = 1, 6", "exceeds dimension"),
            ("n = 2\nprojection = 1, 2, 3", "even"),
            ("n = 2\nprojection = 2, 1", "ascending"),
        ],
    )
    def test_rejected_projections(self, doc, needle):
        with pytest.raises(ConfigError) as err:
            parse_config(doc)
        assert any(needle in msg for msg in err.value.errors), err.value.errors


class TestBuildForm:
    def test_isotropic(self):
        form = build_form(parse_config("n = 3"))
        assert form.n == 3 and form.omega[0, 1] == 1.0

    def test_nonisotropic(self):
        form = build_form(parse_config("weights = 2, 5"))
        assert form.omega[0, 1] == 2.0 and form.omega[2, 3] == 5.0

    def test_trace_class(self):
        # Im<w, z>_Q realified is the block form with the eigenvalues q of Q
        # as weights; equal weights of 1 give the isotropic form
        form = build_form(parse_config("weights = 1, 0.5"))
        assert form.omega[0, 1] == 1.0 and form.omega[2, 3] == 0.5
        ones = build_form(parse_config("weights = 1, 1"))
        assert np.array_equal(ones.omega, build_form(parse_config("n = 2")).omega)


class TestCanonicalText:
    def test_roundtrip_and_shape(self):
        cfg = parse_config("")
        text = canonical_text(cfg)
        lines = text.strip().split("\n")
        assert len(lines) == len(fields(ExperimentConfig)) == 17
        assert lines[0].startswith("K = ")
        assert lines == sorted(lines, key=lambda ln: ln.split(" = ")[0])
        assert parse_config(text) == cfg
        assert canonical_text(parse_config(text)) == text

    @pytest.mark.parametrize(
        "doc",
        [
            "weights = 1.5, 2.25\nt = 0.1, 1, 10\nm = 50",
            "f = exp_linear(0.5), cos_theta\nspace = Gtilde\nseed = 7",
            "n = 4\nprojection = 1, 2, 5, 6\nout = results",
            "weights = 1, 0.5\nK = 7\ntarget_c = -2.5",
        ],
    )
    def test_roundtrip_nontrivial(self, doc):
        cfg = parse_config(doc)
        assert parse_config(canonical_text(cfg)) == cfg

    def test_float_echo_is_exact(self):
        cfg = parse_config("t = 0.30000000000000004")
        assert "t = 0.30000000000000004" in canonical_text(cfg)


def _text_list(elements, min_size=1):
    return st.lists(elements, min_size=min_size, max_size=4).map(", ".join)


_FLOAT = st.floats(allow_nan=False, allow_infinity=False).map(repr)
_POSITIVE = st.one_of(
    st.floats(min_value=0.0, exclude_min=True, allow_infinity=False).map(repr),
    st.integers(1, 10 ** 6).map(str),
)
_WEIGHT = st.floats(min_value=0.01, max_value=100.0).map(repr)
_SELECTOR = st.sampled_from(
    ["poly_radial", "vertical_sq", "cos_theta", "exp_linear", "exp_linear(2)",
     "gauss_bump(1.0)", "gauss_bump( 0.25 )"]
)
# every key but weights, n and projection, which must agree with each other
_VALUES = {
    "t": _text_list(_POSITIVE),
    "N": st.integers(1, 10 ** 6).map(str),
    "m": st.integers(2, 10 ** 9).map(str),
    "seed": st.integers(0, 2 ** 64 - 1).map(str),
    "f": _text_list(_SELECTOR, min_size=0),
    "c_ref": _POSITIVE,
    "space": st.sampled_from(["G", "Gtilde"]),
    "out": st.text("abc_-./0123456789", max_size=8),
    "K": st.integers(2, 1000).map(str),
    "lambdas": _text_list(_FLOAT),
    "dims": _text_list(st.integers(1, 64).map(str)),
    "scan_forms": _text_list(st.sampled_from(["isotropic", "ascending_weights"])),
    "target_w": _text_list(_FLOAT),
    "target_c": _FLOAT,
}


@st.composite
def _documents(draw):
    """A valid configuration document: weights or n, a projection that fits
    them, and any subset of the other keys, in any order."""
    lines = []
    if draw(st.booleans()):
        weights = draw(st.lists(_WEIGHT, min_size=1, max_size=4))
        lines.append("weights = " + ", ".join(weights))
        n = len(weights)
        if draw(st.booleans()):
            lines.append(f"n = {n}")
    else:
        n = draw(st.integers(1, 4))
        lines.append(f"n = {n}")
    full = ", ".join(str(i) for i in range(1, 2 * n + 1))
    projection = draw(st.sampled_from([None, "", "1, 2", full]))
    if projection is not None:
        lines.append(f"projection = {projection}")
    for key in draw(st.lists(st.sampled_from(sorted(_VALUES)), unique=True)):
        lines.append(f"{key} = {draw(_VALUES[key])}")
    return "\n".join(draw(st.permutations(lines)))


class TestCanonicalTextProperty:
    @settings(derandomize=True, database=None, max_examples=150, deadline=None)
    @given(_documents())
    def test_canonical_text_parses_back_to_the_same_config(self, doc):
        cfg = parse_config(doc)
        text = canonical_text(cfg)
        assert parse_config(text) == cfg
        assert canonical_text(parse_config(text)) == text


class TestFormatValue:
    def test_numpy_scalars_format_like_python_ones(self):
        assert format_value(np.float64(0.1)) == format_value(0.1) == "0.1"
        assert format_value(np.float32(0.5)) == "0.5"
        assert format_value(np.int64(7)) == format_value(7) == "7"
        assert format_value(np.bool_(True)) == format_value(True) == "true"
        assert format_value(None) == "" and format_value(False) == "false"
        assert format_value(("a", 1.5, 2)) == "a,1.5,2"


class TestReadmeKeys:
    def test_key_table_lists_exactly_the_config_fields(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        section = readme.split("### Configuration keys", 1)[1].split("\n#", 1)[0]
        keys = re.findall(r"^\| `(\w+)`", section, flags=re.MULTILINE)
        assert len(keys) == len(set(keys))
        assert set(keys) == {fld.name for fld in fields(ExperimentConfig)}
