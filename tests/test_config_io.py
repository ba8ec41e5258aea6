"""Unit tests for configuration parsing and CSV input/output."""

import csv
import errno
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
import time
import typing
import warnings
from dataclasses import MISSING, asdict, fields
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from betsim import config as bconfig
from betsim import conservative, core, inference
from betsim import rng as rngmod
from betsim import io as csvio
from betsim.config import (
    InferenceConfig,
    IoConfig,
    RunConfig,
    SuperstatConfig,
    emit_config,
    parse_config,
)
from betsim.conservative import ConservativeConfig, run_conservative
from betsim.dissipative import REMOVAL_POLICIES, DissipativeConfig, run_dissipative
from betsim.errors import ConfigError, DataError
from betsim.inference import (
    GAUSSIAN_KNOWN_MEAN,
    LIKELIHOOD_KINDS,
    InvGammaParams,
    ModelPosterior,
    ModelSpec,
)
from betsim.superstat import KINDS, ReturnSeries
import oracle
from oracle import ingest_price_csv as reference_ingest
from oracle import read_returns_csv as reference_read_returns
from test_cli import CSV_FIELDS, CSV_NUMBERS

# ---------------------------------------------------------------------------
# config documents

def test_parse_minimal_document():
    cfg = parse_config("[conservative]\nsteps = 5\n")
    assert cfg.conservative is not None
    assert cfg.conservative.steps == 5
    assert cfg.conservative.n_microstates == 50  # default
    assert cfg.dissipative is None and cfg.io is None


def test_parse_full_document():
    text = """
[dissipative]
steps = 100
grain_sizes = 150, 225, 425, 750
seed = 7
bets_per_grain = 2
injection_prob = 0.1
injection_size_range = 50, 200
removal_prob = 0.05
removal_policy = closest-to-equilibrium

[io]
input = data/prices.csv
write_microstates = false
histogram_bins = 32
histogram_every = 10
"""
    cfg = parse_config(text)
    assert cfg.dissipative.grain_sizes == (150, 225, 425, 750)
    assert cfg.dissipative.bets_per_grain == 2
    assert cfg.dissipative.removal_policy == "closest-to-equilibrium"
    assert cfg.io.write_microstates is False
    assert cfg.io.input == "data/prices.csv"


def test_round_trip_all_sections():
    cfg = RunConfig(
        conservative=ConservativeConfig(
            steps=11, n_microstates=9, bets_per_step=2, seed=3
        ),
        dissipative=DissipativeConfig(
            steps=7,
            grain_sizes=(5, 9),
            seed=1,
            bets_fraction=0.25,
            injection_prob=0.125,
            removal_prob=0.0625,
            removal_policy="random",
        ),
        superstat=SuperstatConfig(
            kind="generalized-inverse-gamma", alpha=2.5, beta=1.25, gamma=1.75, n=64, tau=4, seed=2
        ),
        inference=InferenceConfig(mu=0.5, prior_alpha=2.75, prior_beta=1.125),
        io=IoConfig(input="x.csv", write_microstates=False, histogram_bins=10, histogram_every=5),
    )
    assert parse_config(emit_config(cfg)) == cfg


def test_round_trip_unset_optional_stays_unset():
    cfg = RunConfig(dissipative=DissipativeConfig(steps=3))
    text = emit_config(cfg)
    assert "bets_per_grain" not in text
    back = parse_config(text)
    assert back.dissipative.bets_per_grain is None
    with_budget = RunConfig(dissipative=DissipativeConfig(steps=3, bets_per_grain=1))
    assert parse_config(emit_config(with_budget)).dissipative.bets_per_grain == 1


def _all_sections(bets_per_grain):
    return RunConfig(
        conservative=ConservativeConfig(
            steps=11, n_microstates=9, bets_per_step=2, seed=3
        ),
        dissipative=DissipativeConfig(
            steps=7,
            grain_sizes=(5, 9),
            seed=2**64 - 1,
            bets_fraction=0.25,
            bets_per_grain=bets_per_grain,
            injection_prob=0.125,
            injection_size_range=(3, 12),
            removal_prob=0.0625,
            removal_policy="random",
        ),
        superstat=SuperstatConfig(
            kind="generalized-inverse-gamma",
            alpha=2.5,
            beta=1.25,
            gamma=1.75,
            sigma0=0.3,
            n=64,
            tau=4,
            seed=2,
            slow_mixing=True,
        ),
        inference=InferenceConfig(
            mu=0.5,
            prior_alpha=2.75,
            prior_beta=1.125,
            models=("exponential", "gaussian-known-mean"),
            model_priors=(0.25, 0.75),
            model_alphas=(1.5, 2.0),
            model_betas=(0.5, 3.0),
            rel_tol=1e-10,
        ),
        io=IoConfig(input="data/x.csv", write_microstates=False, histogram_bins=10, histogram_every=5),
    )


# canonical text pinned across refactors: section and key order, list
# separators, bool spelling and repr float formatting
GOLDEN_CONFIG_TEXT = """\
[conservative]
steps = 11
n_microstates = 9
bets_per_step = 2
seed = 3

[dissipative]
steps = 7
grain_sizes = 5,9
seed = 18446744073709551615
bets_fraction = 0.25
bets_per_grain = 2
injection_prob = 0.125
injection_size_range = 3,12
removal_prob = 0.0625
removal_policy = random

[superstat]
kind = generalized-inverse-gamma
alpha = 2.5
beta = 1.25
gamma = 1.75
sigma0 = 0.3
n = 64
tau = 4
seed = 2
slow_mixing = true

[inference]
mu = 0.5
prior_alpha = 2.75
prior_beta = 1.125
models = exponential,gaussian-known-mean
model_priors = 0.25,0.75
model_alphas = 1.5,2.0
model_betas = 0.5,3.0
rel_tol = 1e-10

[io]
input = data/x.csv
write_microstates = false
histogram_bins = 10
histogram_every = 5

"""


@pytest.mark.parametrize(
    "bets_per_grain, expect",
    [(2, GOLDEN_CONFIG_TEXT), (None, GOLDEN_CONFIG_TEXT.replace("bets_per_grain = 2\n", ""))],
    ids=["bets_per_grain-set", "bets_per_grain-unset"],
)
def test_emit_config_matches_golden_text(bets_per_grain, expect):
    cfg = _all_sections(bets_per_grain)
    assert emit_config(cfg) == expect
    assert parse_config(expect) == cfg


@given(
    steps=st.integers(0, 10_000),
    seed=st.integers(0, 2**31),
    frac=st.floats(0.01, 1.0, allow_nan=False),
    prob=st.floats(0.0, 1.0, allow_nan=False),
)
def test_round_trip_preserves_exact_floats(steps, seed, frac, prob):
    cfg = RunConfig(
        dissipative=DissipativeConfig(steps=steps, seed=seed, bets_fraction=frac, injection_prob=prob)
    )
    back = parse_config(emit_config(cfg))
    assert back.dissipative.bets_fraction == frac
    assert back.dissipative.injection_prob == prob


def test_parse_rejects_unknown_section():
    with pytest.raises(ConfigError, match="unknown section"):
        parse_config("[market]\nsteps = 1\n")


def test_parse_rejects_unknown_key():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[conservative]\nsteps = 1\nwarmup = 5\n")
    # the smoothed-mean window and the class tolerance are constants
    for key in ("smoothing_window", "eps_class"):
        with pytest.raises(ConfigError, match=f"unknown key '{key}'"):
            parse_config(f"[conservative]\nsteps = 1\n{key} = 25\n")
    # so is the evidence grid's cap, inference.MAX_NODES
    with pytest.raises(ConfigError, match=r"unknown key 'max_doublings' in section \[inference\]"):
        parse_config("[inference]\nmax_doublings = 8\n")


def test_parse_keys_are_case_sensitive():
    with pytest.raises(ConfigError, match="unknown key"):
        parse_config("[conservative]\nSteps = 1\n")


def test_parse_rejects_bad_value():
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("[conservative]\nsteps = lots\n")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config("[io]\nwrite_microstates = yes\n")


def _float_keys():
    """(section, key) for every key typed float or tuple of floats."""
    for name, schema in bconfig._SCHEMAS.items():
        hints = typing.get_type_hints(bconfig._SECTIONS[name])
        for key in schema:
            hint = bconfig._unwrap_optional(hints[key])
            if hint is float or typing.get_args(hint)[:1] == (float,):
                yield name, key


FLOAT_KEYS = list(_float_keys())


def test_float_keys_cover_every_section_with_floats():
    assert {s for s, _ in FLOAT_KEYS} == {"dissipative", "superstat", "inference"}
    assert ("inference", "mu") in FLOAT_KEYS and ("inference", "model_priors") in FLOAT_KEYS


@pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("section, key", FLOAT_KEYS, ids=[f"{s}.{k}" for s, k in FLOAT_KEYS])
def test_parse_rejects_non_finite_floats(section, key, text):
    required = "".join(
        f"{f.name} = 1\n" for f in fields(bconfig._SECTIONS[section]) if f.default is MISSING
    )
    with pytest.raises(ConfigError, match=f"\\[{section}\\] {key} = .*finite"):
        parse_config(f"[{section}]\n{required}{key} = {text}\n")


SECTION_KEYS = [(name, key) for name, schema in bconfig._SCHEMAS.items() for key in schema]
# values a key's parser may meet: its own type, another key's type, list
# syntax, non-finite and out-of-range numbers, and arbitrary text
CONFIG_VALUES = st.one_of(
    st.integers(-(2**70), 2**70).map(str),
    st.floats().map(repr),
    st.sampled_from(["true", "false", "", "nan", "1e400", "0x10", "1_000", "a,b", "1,,2"]),
    st.lists(st.floats(allow_nan=False), min_size=1, max_size=5).map(
        lambda xs: ",".join(map(repr, xs))
    ),
    st.sampled_from(LIKELIHOOD_KINDS + KINDS + REMOVAL_POLICIES),
    st.text(max_size=12),
)


@settings(derandomize=True, max_examples=400, deadline=None)
@given(st.lists(st.tuples(st.sampled_from(SECTION_KEYS), CONFIG_VALUES), max_size=12))
def test_parse_config_returns_a_config_or_a_config_error(entries):
    by_section: dict[str, list[str]] = {}
    for (name, key), value in entries:
        by_section.setdefault(name, []).append(f"{key} = {value}")
    text = "".join(f"[{name}]\n" + "\n".join(lines) + "\n" for name, lines in by_section.items())
    try:
        cfg = parse_config(text)
    except ConfigError:
        return
    assert isinstance(cfg, RunConfig)


def test_parse_requires_steps():
    with pytest.raises(ConfigError, match="requires key 'steps'"):
        parse_config("[conservative]\nseed = 1\n")


def test_parse_rejects_invariant_violation():
    with pytest.raises(ConfigError, match="invalid \\[conservative\\]"):
        parse_config("[conservative]\nsteps = -4\n")


INFERENCE_SECTIONS = [
    InferenceConfig(),
    InferenceConfig(
        mu=0.25, prior_alpha=0.5, prior_beta=7.0, models=("exponential",),
        model_priors=(1.0,), model_alphas=(1.5,), model_betas=(0.25,),
        rel_tol=1e-6,
    ),
]


@pytest.mark.parametrize("section", INFERENCE_SECTIONS)
def test_inference_section_builds_the_model_specs(section):
    # the specs fit-variance and compare-models built from the keys by hand
    fit = ModelSpec(
        id=GAUSSIAN_KNOWN_MEAN,
        likelihood_kind=GAUSSIAN_KNOWN_MEAN,
        prior=InvGammaParams(section.prior_alpha, section.prior_beta),
        rel_tol=section.rel_tol,
    )
    compared = [
        ModelSpec(
            id=kind, likelihood_kind=kind, prior=InvGammaParams(a, b), rel_tol=section.rel_tol
        )
        for kind, a, b in zip(section.models, section.model_alphas, section.model_betas)
    ]
    assert asdict(section.fit_model()) == asdict(fit)
    assert [asdict(spec) for spec in section.compared_models()] == [
        asdict(spec) for spec in compared
    ]


def test_parse_rejects_duplicate_section():
    with pytest.raises(ConfigError, match="syntax"):
        parse_config("[io]\ninput = a\n[io]\ninput = b\n")


def test_readme_config_grammar_lists_every_key():
    # the ini block under "Config grammar": sections and keys, comments stripped
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    block = readme.split("### Config grammar", 1)[1].split("```ini\n", 1)[1].split("```", 1)[0]
    listed: dict[str, list[str]] = {}
    for line in block.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("["):
            keys = listed.setdefault(line.strip("[]"), [])
        elif line:
            keys.append(line.split("=", 1)[0].strip())
    assert listed == {
        name: [f.name for f in fields(section)] for name, section in bconfig._SECTIONS.items()
    }


def test_readme_states_the_constants_of_the_code():
    # every "`NAME` = value" the README states, with or without its module
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    constants = {
        "BLOCK_STEPS": conservative.BLOCK_STEPS,
        "CENSUS_BATCH_ROWS": core.CENSUS_BATCH_ROWS,
        "KEYED_STEPS": rngmod.KEYED_STEPS,
        "CHUNK": rngmod.CHUNK,
        "INITIAL_NODES": inference.INITIAL_NODES,
        "MAX_NODES": inference.MAX_NODES,
    }
    for name, value in constants.items():
        stated = re.findall(rf"`(?:\w+\.)?{name}` = ([\d,]+)", readme)
        assert stated, f"the README states no value of {name}"
        assert {int(v.replace(",", "")) for v in stated} == {value}, (name, stated)
    # each doubling of the quadrature grid adds a node between every two
    doublings = int(re.search(r"\((\d+) doublings from `inference.INITIAL_NODES`", readme)[1])
    assert (inference.INITIAL_NODES - 1) * 2**doublings + 1 == inference.MAX_NODES


# ---------------------------------------------------------------------------
# price ingestion

def _write_prices(path, rows, header="t,price"):
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(str(c) for c in row) + "\n")


def test_ingest_log_returns(tmp_path):
    path = tmp_path / "prices.csv"
    prices = [100.0, 105.0, 103.0, 110.0]
    _write_prices(path, list(enumerate(prices)))
    series = csvio.ingest_price_csv(str(path), tau=1)
    assert series.tau == 1
    expect = [math.log(prices[i + 1] / prices[i]) for i in range(3)]
    assert np.allclose(series.samples, expect, atol=1e-15)


def test_ingest_multi_step_horizon(tmp_path):
    path = tmp_path / "prices.csv"
    prices = [100.0, 105.0, 103.0, 110.0, 99.0]
    _write_prices(path, list(enumerate(prices)))
    series = csvio.ingest_price_csv(str(path), tau=2)
    assert len(series.samples) == 3
    assert series.samples[0] == pytest.approx(math.log(103.0 / 100.0))


def test_ingest_accepts_date_header(tmp_path):
    path = tmp_path / "prices.csv"
    _write_prices(
        path,
        [("2024-01-02", 10.0), ("2024-01-03", 11.0), ("2024-01-04", 12.0)],
        header="date,price",
    )
    series = csvio.ingest_price_csv(str(path), tau=1)
    assert len(series.samples) == 2


def test_ingest_missing_file():
    with pytest.raises(DataError):
        csvio.ingest_price_csv("/nonexistent/prices.csv", tau=1)


def test_ingest_rejects_bad_header(tmp_path):
    path = tmp_path / "prices.csv"
    _write_prices(path, [(0, 1.0)], header="time;price")
    with pytest.raises(DataError, match="header"):
        csvio.ingest_price_csv(str(path), tau=1)


def test_ingest_rejects_wrong_field_count(tmp_path):
    path = tmp_path / "prices.csv"
    with open(path, "w") as fh:
        fh.write("t,price\n0,1.0,extra\n")
    with pytest.raises(DataError, match="line 2"):
        csvio.ingest_price_csv(str(path), tau=1)


def test_ingest_rejects_nonpositive_price(tmp_path):
    path = tmp_path / "prices.csv"
    _write_prices(path, [(0, 5.0), (1, 0.0), (2, 5.0)])
    with pytest.raises(DataError, match="line 3"):
        csvio.ingest_price_csv(str(path), tau=1)


def test_ingest_rejects_nonincreasing_time(tmp_path):
    path = tmp_path / "prices.csv"
    _write_prices(path, [(0, 5.0), (2, 5.5), (1, 6.0)])
    with pytest.raises(DataError, match="increas"):
        csvio.ingest_price_csv(str(path), tau=1)


def test_ingest_needs_enough_rows(tmp_path):
    path = tmp_path / "prices.csv"
    _write_prices(path, [(0, 5.0), (1, 5.5)])
    with pytest.raises(DataError, match="rows"):
        csvio.ingest_price_csv(str(path), tau=2)


# ---------------------------------------------------------------------------
# return series files

def test_returns_round_trip_exact(tmp_path):
    path = str(tmp_path / "returns.csv")
    samples = np.random.default_rng(0).normal(0, 1e-3, 50)
    csvio.emit_returns_csv(ReturnSeries(tau=3, samples=samples), path)
    back = csvio.read_returns_csv(path, tau=3)
    assert back.tau == 3
    assert np.array_equal(back.samples, samples), "full-precision round trip"


def test_read_returns_rejects_bad_header(tmp_path):
    path = tmp_path / "returns.csv"
    path.write_text("index,ret\n0,0.1\n")
    with pytest.raises(DataError, match="header"):
        csvio.read_returns_csv(str(path))


def test_read_returns_rejects_bad_value(tmp_path):
    path = tmp_path / "returns.csv"
    path.write_text("i,value\n0,0.1\n1,abc\n")
    with pytest.raises(DataError, match="line 3"):
        csvio.read_returns_csv(str(path))


def test_returns_round_trip_over_several_blocks(tmp_path, monkeypatch):
    block = 4096
    monkeypatch.setattr(csvio, "_BLOCK_CHARS", block)
    path = str(tmp_path / "returns.csv")
    n = 3 * block + 1  # every line is longer than one character
    samples = np.random.default_rng(4).standard_t(3, n) * 1e-2
    samples[:4] = [-0.0, 5e-324, -1.7976931348623157e308, 1e-310]
    csvio.emit_returns_csv(ReturnSeries(tau=1, samples=samples), path)
    with open(path, "rb") as handle:
        assert csvio._read_blocks(handle.fileno(), "i,value", (1,)).shape == (n, 1)  # no fallback
    back = csvio.read_returns_csv(path)
    assert back.samples.tobytes() == samples.tobytes()


def test_block_reader_leaves_an_overlong_field_to_the_csv_reader(tmp_path):
    # a finite number, but a field longer than the csv reader takes
    path = tmp_path / "returns.csv"
    path.write_text("i,value\n0,0." + "0" * csv.field_size_limit() + "1\n1,2.5\n")
    with pytest.raises(DataError, match="line 2: field larger than field limit"):
        csvio.read_returns_csv(str(path))


# fields the block reader must leave to the per-row reader, or read the
# way csv.reader and float() do: blanks, quotes, separators that str.strip
# removes, a non-ASCII digit, an underscore, non-finite values
ODD_FIELDS = st.one_of(
    CSV_FIELDS,
    st.sampled_from([
        b"\x1c", b"\x1d1", b"2\x1e", b"\x1f", "\u0661".encode(), "1\u0661".encode(),
        b"1_000", b'"2.5"', b'""', b"nan", b"inf", b"-inf", b"Infinity", b"1e5",
        b"+1.", b"1e+3", b"\t3", b"3 ", b"#1", b"0x10",
    ]),
)
# values that parse but are not finite, or not a valid price
EDGE_VALUES = st.sampled_from([b"1e999", b"-1e999", b"1e-400", b"-0.0", b"0", b"-1"])
# (time step, value) rows, of prices or of any numbers; a time step of
# 0 or -1 breaks the increasing time index, at a block edge or within one
TIME_STEPS = st.sampled_from([1, 1, 1, 1, 2, 0, -1])
PRICES = st.floats(1e-3, 1e3).map(lambda x: repr(x).encode())
ROWS = st.one_of(
    st.lists(st.tuples(TIME_STEPS, PRICES), max_size=15),
    st.lists(st.tuples(TIME_STEPS, st.one_of(PRICES, CSV_NUMBERS, EDGE_VALUES)), max_size=15),
)
# two price rows joined by a character at which str.splitlines ends a
# line and the csv reader does not: one row of three fields to the latter
JOINED_ROWS = st.tuples(
    PRICES,
    st.sampled_from([b"\x0b", b"\x0c", b"\x1c", b"\x1d", b"\x1e", "\x85".encode(), "\u2028".encode()]),
    PRICES,
).map(lambda t: [b"1", t[0] + t[1] + b"2", t[2]])
ODD_ROWS = st.lists(
    st.tuples(
        st.integers(0, 15),
        st.one_of(st.just([]), st.lists(ODD_FIELDS, min_size=1, max_size=3), JOINED_ROWS),
    ),
    max_size=2,
)
# a row of three numbers, and a blank row or one of one or two numbers:
# both pass the character check, and a blank or one-number row evens out
# the commas of the three-number row, so only loadtxt's checks, on both
# columns or on the value column alone, can turn such a block down
SHORT_AND_LONG_ROWS = st.tuples(
    st.tuples(st.integers(0, 15), st.lists(PRICES, min_size=3, max_size=3)),
    st.tuples(st.integers(0, 15), st.lists(PRICES, max_size=2)),
).map(list)


def _assert_readers_agree(path, tau):
    """Read as returns and as prices, the block reader gives the per-row
    reader's array bytes or its DataError text, and neither warns."""
    for read, reference in (
        (lambda: csvio.read_returns_csv(path).samples, lambda: reference_read_returns(path)),
        (lambda: csvio.ingest_price_csv(path, tau).samples, lambda: reference_ingest(path, tau)),
    ):
        outcomes = []
        for reader in (read, reference):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                try:
                    outcomes.append(reader().tobytes())
                except DataError as exc:
                    outcomes.append(str(exc))
            assert not caught, [str(w.message) for w in caught]
        assert outcomes[0] == outcomes[1]


@settings(derandomize=True, max_examples=500, deadline=None)
@given(
    header=st.sampled_from(
        [b"i,value", b"i,value", b"t,price", b"t,price", b"date,price", b" T , Price", b"t;price"]
    ),
    rows=ROWS,
    odd_rows=st.one_of(st.just([]), ODD_ROWS, SHORT_AND_LONG_ROWS),
    newline=st.sampled_from([b"\n", b"\r\n", b"\r"]),
    final_newline=st.booleans(),
    block=st.one_of(st.integers(1, 4), st.just(1 << 20)),
    field_limit=st.one_of(st.none(), st.integers(1, 40)),
    tau=st.integers(1, 3),
)
# an 8-character limit makes 8-character blocks: the second row, whose
# value is longer than 8 characters, ends the first block past its edge
@example(
    header=b"i,value", rows=[(1, b"0.5"), (1, b"123.456789"), (1, b"0.25")], odd_rows=[],
    newline=b"\n", final_newline=True, block=1 << 20, field_limit=8, tau=1,
)
def test_block_reader_matches_the_per_row_reader(
    header, rows, odd_rows, newline, final_newline, block, field_limit, tau
):
    # a field limit below the line lengths makes blocks of that many
    # characters, so an overlong line ends a block, at its edge or past it
    times = np.cumsum([step for step, _ in rows], dtype=np.int64)
    lines = [header] + [b"%d,%s" % (t, value) for t, (_, value) in zip(times, rows)]
    for at, fields in odd_rows:
        lines.insert(1 + at, b",".join(fields))
    data = newline.join(lines) + (newline if final_newline else b"")
    limit = csv.field_size_limit()
    try:
        if field_limit is not None:
            csv.field_size_limit(field_limit)
        with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
            mp.setattr(csvio, "_BLOCK_CHARS", block)
            path = os.path.join(tmp, "in.csv")
            with open(path, "wb") as fh:
                fh.write(data)
            _assert_readers_agree(path, tau)
    finally:
        csv.field_size_limit(limit)


@settings(derandomize=True, max_examples=200, deadline=None)
@given(data=st.binary(max_size=80), block=st.integers(1, 3))
def test_block_reader_matches_the_per_row_reader_on_any_bytes(data, block):
    with tempfile.TemporaryDirectory() as tmp, pytest.MonkeyPatch.context() as mp:
        mp.setattr(csvio, "_BLOCK_CHARS", block)
        for header in (b"i,value\n", b"t,price\n"):
            path = os.path.join(tmp, "in.csv")
            with open(path, "wb") as fh:
                fh.write(header + data)
            _assert_readers_agree(path, 1)


def _forks(monkeypatch):
    """The pids of the children ``os.fork`` makes from here on, a list that grows."""
    pids, fork = [], os.fork

    def counted():
        pid = fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return pids


def _line_of(data: bytes, pos: int) -> int:
    """The 0-based index of the LF-ended line byte ``pos`` of ``data`` lies on."""
    return data.count(b"\n", 0, pos)


ODD_LINES = [
    b"abc", b"1,2,3", b"7", b"", b'"1",2', b"1,nan", b"1,1e999", b"1,-1", b"1,0.5\r2,0.5",
    b"1," + b"0" * 60 + b"1",
]


@pytest.mark.parametrize("where", ["boundary", "child_first", "child_last"])
@pytest.mark.parametrize("odd", ODD_LINES)
@pytest.mark.parametrize("newline", [b"\n", b"\r\n"])
def test_split_reader_reads_an_odd_line_in_either_span(tmp_path, monkeypatch, where, odd, newline):
    # the parent parses up to the end of the line the middle byte is on (the
    # boundary line), the child from the next line to the end of the file
    monkeypatch.setattr(csvio, "_BLOCK_CHARS", 4)
    forks = _forks(monkeypatch)
    # the last row's trailing zeros move the middle byte over the lines
    for pad, k in ((pad, k) for pad in range(20) for k in range(41)):
        rows = [b"%d,%d.5" % (t, t) for t in range(1, 41)]
        rows[-1] += b"0" * pad
        data = newline.join([b"t,price", *rows[:k], odd, *rows[k:]]) + newline
        middle = len(data) // 2
        child_first = data.index(b"\n", middle) + 1
        line = {"boundary": _line_of(data, middle), "child_first": _line_of(data, child_first),
                "child_last": data.count(b"\n") - 1}[where]
        if line == k + 1:
            break
    else:
        pytest.fail(f"no layout puts the odd line on the {where} line")
    path = tmp_path / "in.csv"
    limit = csv.field_size_limit()
    try:
        csv.field_size_limit(40)  # the long odd line is a field the csv reader rejects
        for header in (b"t,price", b"i,value"):
            path.write_bytes(header + data[7:])
            _assert_readers_agree(str(path), 2)
    finally:
        csv.field_size_limit(limit)
    assert len(forks) >= 2 or not csvio._can_split()  # one read of each file went through a child


@pytest.mark.parametrize("odd", [None, b"1,2,3", b"x", b"1," + b"0" * 20 + b"1"])
@pytest.mark.parametrize("newline", [b"\r", b"\r\n"])
def test_split_reader_on_cr_files_and_a_crlf_split_at_the_middle(tmp_path, monkeypatch, odd, newline):
    # an all-CR file, an LF header over CR lines, and a CRLF file whose
    # middle byte is the LF of a CRLF pair; a block's last line, read to
    # the next LF, holds CR lines, one of them a field the csv reader rejects
    monkeypatch.setattr(csvio, "_BLOCK_CHARS", 4)
    path = tmp_path / "in.csv"
    for n in range(30, 60):
        rows = [b"%d,%d.25" % (t, t) for t in range(1, n)]
        if odd is not None:
            rows.insert(n // 3, odd)
        data = newline.join([b"t,price", *rows]) + newline
        if newline == b"\r" or data[len(data) // 2 - 1:len(data) // 2 + 1] == b"\r\n":
            break
    variants = [data] if newline == b"\r\n" else [data, data.replace(b"\r", b"\n", 1)]
    limit = csv.field_size_limit(12)
    try:
        for data in variants:
            for header in (b"t,price", b"i,value"):
                path.write_bytes(header + data[7:])
                _assert_readers_agree(str(path), 1)
    finally:
        csv.field_size_limit(limit)


def _rows(n: int, row: bytes) -> bytes:
    return b"".join(row % (i, i) for i in range(n))


# (reader, bytes): a header the block reader declines, with too few rows
# and with enough; a bad row on line 3; valid price and returns files
PIPED_FILES = {
    "declined header, one row": ("prices", b"T,Price\n0,1.5\n"),
    "declined header": ("prices", b"T,Price\n" + _rows(5000, b"%d,1%d.5\n")),
    "bad row on line 3": ("prices", b"t,price\n0,2\n1,abc\n2,3\n"),
    "valid prices": ("prices", b"t,price\n" + _rows(5000, b"%d,1%d.5\n")),
    "valid returns": ("returns", b"i,value\n" + _rows(5000, b"%d,%d.25\n")),
}


def _read_outcome(path, reader):
    """The values' bytes (as hex) or the DataError text of reading ``path``."""
    try:
        if reader == "returns":
            return csvio.read_returns_csv(path).samples.tobytes().hex()
        return csvio.ingest_price_csv(path, 1).samples.tobytes().hex()
    except DataError as exc:
        return str(exc)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="needs named pipes")
@pytest.mark.parametrize("case", PIPED_FILES)
def test_a_named_pipe_reads_as_the_regular_file_does(tmp_path, case):
    # a fresh interpreter reads the bytes from a named pipe that a thread of
    # its own feeds; a second open of the pipe would wait for a new writer
    reader, data = PIPED_FILES[case]
    path = tmp_path / "in.csv"
    code = (
        "import os, sys, threading\n"
        "from test_config_io import _read_outcome\n"
        "path, data = sys.argv[1], sys.stdin.buffer.read()\n"
        "os.mkfifo(path)\n"
        "threading.Thread(target=lambda: open(path, 'wb').write(data), daemon=True).start()\n"
        f"print(_read_outcome(path, {reader!r}))\n"
    )
    tests, src = Path(__file__).resolve().parent, Path(__file__).resolve().parents[1] / "src"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(path)], input=data, capture_output=True, timeout=60,
        env=dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(tests)])),
    )
    assert proc.returncode == 0, proc.stderr
    path.unlink()
    path.write_bytes(data)
    assert proc.stdout.decode().strip() == _read_outcome(str(path), reader)


def _before_the_parents_span(mp, action):
    """Make this process call ``action()`` once, before its first span parse."""
    parent, real, pending = os.getpid(), csvio._span, [action]

    def span(*args):
        if os.getpid() == parent and pending:
            pending.pop()()
        return real(*args)

    mp.setattr(csvio, "_span", span)


def _returns_and_prices(tmp_path, seed):
    """A returns file and a ``t,price`` file, above the split size once
    ``_BLOCK_CHARS`` is 1 << 14."""
    samples = np.random.default_rng(seed).standard_t(3, 20000) * 1e-2
    returns, prices = tmp_path / f"returns{seed}.csv", tmp_path / f"prices{seed}.csv"
    csvio.emit_returns_csv(ReturnSeries(tau=1, samples=samples), str(returns))
    prices.write_text("t,price\n" + "".join(
        f"{t},{p!r}\n" for t, p in enumerate((100 * np.exp(np.cumsum(samples))).tolist())
    ))
    return returns, prices


@pytest.mark.parametrize("one_cpu", [False, True])
def test_a_file_replaced_while_it_is_read_gives_its_own_values(tmp_path, monkeypatch, one_cpu):
    # the child parses from the descriptor it inherits, never from the path
    monkeypatch.setattr(csvio, "_BLOCK_CHARS", 1 << 14)
    if one_cpu:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    first, other = _returns_and_prices(tmp_path, 1), _returns_and_prices(tmp_path, 2)
    expect = [reference_read_returns(str(first[0])), reference_ingest(str(first[1]), 1)]
    forks = _forks(monkeypatch)
    for path, replacement, read in zip(first, other, (
        lambda p: csvio.read_returns_csv(p).samples, lambda p: csvio.ingest_price_csv(p, 1).samples,
    )):
        with monkeypatch.context() as mp:
            _before_the_parents_span(mp, lambda: os.replace(replacement, path))
            got = read(str(path))
        assert got.tobytes() == expect.pop(0).tobytes()
        assert not replacement.exists()  # the path named the other file while it was read
    assert len(forks) == (0 if one_cpu or not csvio._can_split() else 2)


@pytest.mark.parametrize("one_cpu", [False, True])
def test_a_file_truncated_while_it_is_read_gives_what_it_then_holds(tmp_path, monkeypatch, one_cpu):
    # read by offset, a truncated file reads short: the reader neither
    # mixes old and new bytes nor is killed by a signal, as a map of it would be
    monkeypatch.setattr(csvio, "_BLOCK_CHARS", 1 << 14)
    if one_cpu:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    for path, reader in zip(_returns_and_prices(tmp_path, 3), ("returns", "prices")):
        with monkeypatch.context() as mp:
            _before_the_parents_span(mp, lambda: os.truncate(path, 100))
            got = _read_outcome(str(path), reader)
        assert path.stat().st_size == 100
        assert got == _read_outcome(str(path), reader)


def _one_process_and_split_outcomes(tmp_path, monkeypatch, fail):
    """What the returns writer writes, and what both readers read, in one
    process and then with ``fail`` applied to the split."""
    monkeypatch.setattr(csvio, "_BLOCK_CHARS", 1 << 14)
    samples = np.random.default_rng(5).standard_t(3, 40000) * 1e-2  # above either split size
    prices = tmp_path / "prices.csv"
    prices.write_text("t,price\n" + "".join(
        f"{t},{p!r}\n" for t, p in enumerate((100 * np.exp(np.cumsum(samples))).tolist())
    ))
    path = str(tmp_path / "returns.csv")

    def outcomes():
        csvio.emit_returns_csv(ReturnSeries(tau=1, samples=samples), path)
        with open(path, "rb") as fh:
            written = fh.read()
        read = csvio.read_returns_csv(path).samples.tobytes()
        return written, read, csvio.ingest_price_csv(str(prices), 2).samples.tobytes()

    with monkeypatch.context() as mp:
        mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        forks = _forks(mp)
        one_process = outcomes()
        assert not forks
    with monkeypatch.context() as mp:
        forks = _forks(mp)
        fail(mp)
        return one_process, outcomes(), forks


def _in_the_child(mp, action):
    """Make the child's first format or parse call do ``action`` instead."""
    parent = os.getpid()
    for name in ("_blocks", "_span"):
        def call(*args, real=getattr(csvio, name)):
            if os.getpid() != parent:
                action()
            return real(*args)

        mp.setattr(csvio, name, call)


def _raise_oserror():
    raise OSError("no fork")


def _exit_1():
    raise RuntimeError("the child fails")


def _reaped_elsewhere(mp):
    """Make ``os.waitpid`` reap the child, then raise as it does when a
    SIGCHLD handler has reaped it first."""
    waitpid = os.waitpid

    def reap(pid, options):
        waitpid(pid, options)
        raise ChildProcessError(errno.ECHILD, os.strerror(errno.ECHILD))

    mp.setattr(os, "waitpid", reap)


FALLBACKS = {
    "fork raises": lambda mp: mp.setattr(os, "fork", _raise_oserror),
    "child reaped elsewhere": _reaped_elsewhere,
    "child exits 1": lambda mp: _in_the_child(mp, _exit_1),
    "child killed": lambda mp: _in_the_child(mp, lambda: os.kill(os.getpid(), signal.SIGKILL)),
    "one CPU": lambda mp: mp.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False),
}


@pytest.mark.parametrize("fallback", FALLBACKS)
def test_split_fallbacks_give_the_one_process_bytes(tmp_path, monkeypatch, fallback):
    one_process, split, forks = _one_process_and_split_outcomes(
        tmp_path, monkeypatch, FALLBACKS[fallback]
    )
    assert split == one_process
    if fallback.startswith("child") and csvio._can_split():
        assert len(forks) == 3  # the writer and both readers forked a child that failed


def test_split_writer_and_readers_give_the_one_process_bytes(tmp_path, monkeypatch):
    one_process, split, forks = _one_process_and_split_outcomes(
        tmp_path, monkeypatch, lambda mp: None
    )
    assert split == one_process
    assert len(forks) == (3 if csvio._can_split() else 0)


def test_no_split_while_another_thread_runs(tmp_path, monkeypatch):
    # a child forked beside another thread could inherit a lock that thread
    # holds and wait on it for ever: the writer and both readers fork none
    release = threading.Event()
    other = threading.Thread(target=release.wait)
    other.start()
    try:
        one_process, split, forks = _one_process_and_split_outcomes(
            tmp_path, monkeypatch, lambda mp: None
        )
    finally:
        release.set()
        other.join()
    assert split == one_process
    assert not forks


def test_no_split_with_sigchld_ignored():
    # the kernel then reaps the child itself, and no exit status can be read
    previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    try:
        assert not csvio._can_split()
    finally:
        signal.signal(signal.SIGCHLD, previous)


def test_a_failed_split_writer_leaves_no_file(tmp_path, monkeypatch):
    # the parent's half fails while the child formats; the child is killed
    # and reaped (the autouse fixture checks), the file removed
    parent, real = os.getpid(), csvio._blocks

    def blocks(*args):
        if os.getpid() == parent:
            raise RuntimeError("the parent fails")
        return real(*args)

    monkeypatch.setattr(csvio, "_blocks", blocks)
    path = tmp_path / "returns.csv"
    with pytest.raises(RuntimeError, match="the parent fails"):
        csvio.emit_returns_csv(ReturnSeries(tau=1, samples=np.zeros(40000)), str(path))
    assert not path.exists()


@pytest.mark.skipif(not csvio._can_split(), reason="needs fork and two usable CPUs")
def test_two_halves_kills_the_child_when_this_process_raises():
    def second():
        time.sleep(60)  # reaping a child left to run would wait for this
        return [b"never sent"]

    def first():
        raise KeyboardInterrupt

    started = time.monotonic()
    with pytest.raises(KeyboardInterrupt):
        csvio._two_halves(first, second, [].append, True)
    assert time.monotonic() - started < 30


@pytest.mark.skipif(not csvio._can_split(), reason="needs fork and two usable CPUs")
def test_two_halves_completes_the_bytes_of_a_child_killed_part_way(monkeypatch):
    chunks = [bytes([k]) * 4096 for k in range(256)]  # 1 MiB, more than a pipe holds
    forks = _forks(monkeypatch)
    got = []

    def first():
        time.sleep(1.0)  # the child has filled the pipe and waits to write the rest
        os.kill(forks[0], signal.SIGKILL)
        return "first"

    assert csvio._two_halves(first, lambda: chunks, got.append, True) == "first"
    assert b"".join(got) == b"".join(chunks)
    assert isinstance(got[0], bytes)  # the first bytes came through the pipe


# ---------------------------------------------------------------------------
# simulation emitters

def test_trajectory_csv_layout(tmp_path):
    traj = run_conservative(ConservativeConfig(steps=6, n_microstates=8, seed=1))
    path = str(tmp_path / "trajectory.csv")
    csvio.emit_trajectory_csv(traj.snapshots, path)
    lines = open(path).read().splitlines()
    assert lines[0] == csvio.TRAJECTORY_HEADER
    assert len(lines) == 1 + 7
    first = lines[1].split(",")
    assert first[0] == "0"
    assert float(first[1]) == traj.snapshots[0].mean_posterior


def test_microstates_csv_layout(tmp_path):
    cfg = ConservativeConfig(steps=2, n_microstates=4, seed=0)
    path = str(tmp_path / "m.csv")
    traj = csvio.emit_microstates_csv(lambda sink: run_conservative(cfg, sink), path)
    assert len(traj.snapshots) == 3  # the writer returns what the run returns
    lines = open(path).read().splitlines()
    assert lines[0] == "step,microstate,wins,losses,posterior"
    assert len(lines) == 1 + 3 * 4
    assert lines[1] == "0,0,1,0,1"


def test_histogram_csv_layout(tmp_path):
    result = run_dissipative(DissipativeConfig(steps=3, grain_sizes=(6, 9), seed=2), bins=4)
    snap = result.pooled[-1]
    path = str(tmp_path / "h.csv")
    csvio.emit_histogram_csv(snap, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "bin_left,bin_right,count"
    assert len(lines) == 5
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == 15


def test_grains_csv_layout(tmp_path):
    result = run_dissipative(DissipativeConfig(steps=2, grain_sizes=(6, 4), seed=3))
    path = str(tmp_path / "g.csv")
    csvio.emit_grains_csv(result.grain_tracks, path)
    lines = open(path).read().splitlines()
    assert lines[0] == "step,grain,size,birth_step,mean_posterior,entropy"
    assert len(lines) == 1 + 2 * 3
    # grain ids in sorted order, three snapshots each
    assert [line.split(",")[1] for line in lines[1:4]] == ["0", "0", "0"]
    assert lines[1].split(",")[2] == "6"


def test_fit_csv_layout(tmp_path):
    path = str(tmp_path / "fit.csv")
    csvio.emit_fit_csv([("n", 10), ("posterior_alpha", 8.0)], path)
    lines = open(path).read().splitlines()
    assert lines[0] == "quantity,value"
    assert lines[1] == "n,10"
    assert lines[2] == "posterior_alpha,8"


def test_models_csv_marks_selection(tmp_path):
    prior = InvGammaParams(3.0, 2.0)
    specs = [
        ModelSpec(id="a", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=prior),
        ModelSpec(id="b", likelihood_kind=GAUSSIAN_KNOWN_MEAN, prior=prior),
    ]
    posteriors = [
        ModelPosterior("a", 0.5, -10.0, 0.8),
        ModelPosterior("b", 0.5, -11.0, 0.2),
    ]
    path = str(tmp_path / "models.csv")
    csvio.emit_models_csv(posteriors, specs, 0, path)
    lines = open(path).read().splitlines()
    assert lines[0].startswith("model,")
    assert lines[1].split(",")[-1] == "1"
    assert lines[2].split(",")[-1] == "0"

    tie = [ModelPosterior("a", 0.5, -10.0, 0.5), ModelPosterior("b", 0.5, -10.0, 0.5)]
    csvio.emit_models_csv(tie, specs, None, path)
    lines = open(path).read().splitlines()
    assert lines[1].split(",")[-1] == "tie"
    assert lines[2].split(",")[-1] == "tie"


# values the writers must render as the f-strings did: not-a-number, both
# infinities, signed zero, the least subnormal and normal floats, the
# largest float below 1e16 and 1e16 itself (where repr and .12g turn to
# exponents), 1e-5 and 1e-4 (where .12g does), and ints at the int64 ends
FLOAT_EDGES = np.array([
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
    9.999999999999999e15, 1e16, 1e-5, 1e-4,
])
INT_EDGES = np.array([-(2**63), -(2**63) + 1, -1, 0, 1, 2**63 - 2, 2**63 - 1], dtype=np.int64)
ROW_COUNTS = st.sampled_from([0, 1, 1023, 1024, 1025, 2049])
INT_FIELDS = {f.name for f in fields(core.MacroSnapshot) if f.type == "int"}
# user strings with conversion specifiers in them, which must come out as they are
KEYS = ["n", "log_evidence", "100%", "%s", "%d%%", "%(x)s", "a,b"]


def _floats(rng, shape):
    values = rng.standard_normal(shape) * 10.0 ** rng.integers(-20, 21, shape)
    edge = rng.random(shape) < 0.3
    values[edge] = rng.choice(FLOAT_EDGES, edge.sum())
    return values


def _ints(rng, shape):
    values = rng.integers(-(10**6), 10**6, shape)
    edge = rng.random(shape) < 0.3
    values[edge] = rng.choice(INT_EDGES, edge.sum())
    return values


class _Columns:
    """What the writers read of a ``Snapshots`` record: ``len`` and ``column``,
    here of any values."""

    def __init__(self, **columns):
        self._columns = columns

    def __len__(self):
        return len(next(iter(self._columns.values())))

    def column(self, name):
        return self._columns[name]


def _snapshot_columns(rng, rows, names):
    columns = {name: (_ints if name in INT_FIELDS else _floats)(rng, rows) for name in names}
    # the trajectory writer smooths the mean posterior, which is finite in a run
    mean = columns["mean_posterior"]
    mean[~np.isfinite(mean)] = 0.5
    return _Columns(**columns)


def _scalars(rng, size):
    """Python and numpy floats and ints, the Python ints past the int64 ends too."""
    kinds = zip(
        _floats(rng, size).tolist(), _floats(rng, size),
        _ints(rng, size).tolist(), _ints(rng, size), [2 * v for v in _ints(rng, size).tolist()],
    )
    return [values[k] for values, k in zip(kinds, rng.integers(0, 5, size).tolist())]


def _writer_args(name, rows, rng):
    """Arguments of ``emit_<name>_csv`` (but the path) with ``rows`` data rows."""
    if name == "trajectory":
        return (_snapshot_columns(rng, rows, core.SNAPSHOT_FIELDS),)
    if name == "histogram":
        return (SimpleNamespace(counts=_ints(rng, rows)),)
    if name == "grains":
        cuts = np.sort(rng.integers(0, rows + 1, rng.integers(0, 4)))
        return ({
            int(gid): SimpleNamespace(
                size=int(size), birth_step=int(birth),
                snapshots=_snapshot_columns(rng, len(part), ("step", "mean_posterior", "entropy")),
            )
            for gid, size, birth, part in zip(
                rng.choice(INT_EDGES, 4, replace=False), _ints(rng, 4), _ints(rng, 4),
                np.split(np.arange(rows), cuts),
            )
        },)
    if name == "returns":
        return (ReturnSeries(tau=1, samples=_floats(rng, rows)),)
    if name == "fit":
        return (list(zip(rng.choice(KEYS, rows).tolist(), _scalars(rng, rows))),)
    posteriors = [
        SimpleNamespace(model_id=key, prior_prob=p, log_evidence=e, posterior_prob=q)
        for key, p, e, q in zip(
            rng.choice(KEYS, rows).tolist(), _scalars(rng, rows), _scalars(rng, rows),
            _scalars(rng, rows),
        )
    ]
    specs = [
        SimpleNamespace(likelihood_kind=kind, prior=SimpleNamespace(alpha=a, beta=b))
        for kind, a, b in zip(
            rng.choice(KEYS, rows).tolist(), _scalars(rng, rows), _scalars(rng, rows)
        )
    ]
    return posteriors, specs, [None, 0, rows - 1, rows][rng.integers(4)]


def _written(write, *args):
    """The bytes ``write(*args, path)`` writes and what it returns, or the
    text of what it raises."""
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        try:
            returned = write(*args, path)
        except Exception as exc:  # noqa: BLE001 - compared with the reference's
            return f"{type(exc).__name__}: {exc}"
        with open(path, "rb") as fh:
            return fh.read(), returned


@pytest.mark.parametrize("name", ["trajectory", "histogram", "grains", "returns", "fit", "models"])
@settings(derandomize=True, max_examples=30, deadline=None)
@given(rows=ROW_COUNTS, seed=st.integers(0, 2**32 - 1))
def test_writers_write_the_reference_bytes(name, rows, seed):
    args = _writer_args(name, rows, np.random.default_rng(seed))
    write = getattr(csvio, f"emit_{name}_csv")
    assert _written(write, *args) == _written(getattr(oracle, f"emit_{name}_csv"), *args)


@settings(derandomize=True, max_examples=15, deadline=None)
@given(
    n=st.sampled_from([2, 17, 1024, 1500]),
    blocks=st.lists(st.integers(1, 64), min_size=1, max_size=3),
    first=st.integers(0, 2**40),
    seed=st.integers(0, 2**32 - 1),
)
def test_microstates_writer_writes_the_reference_bytes(n, blocks, first, seed):
    # at n = 1500 one step holds more rows than one written block
    rng = np.random.default_rng(seed)
    booked = [(_ints(rng, (steps, 2, n)), _floats(rng, (steps, n))) for steps in blocks]

    def run(sink):
        step = first
        for rows, posteriors in booked:
            sink(step, rows, posteriors)
            step += len(rows)
        return step

    assert _written(csvio.emit_microstates_csv, run) == _written(oracle.emit_microstates_csv, run)


def test_ensure_out_dir(tmp_path):
    target = str(tmp_path / "a" / "b")
    csvio.ensure_out_dir(target)
    csvio.ensure_out_dir(target)  # idempotent
    assert os.path.isdir(target)
