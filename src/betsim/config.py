"""Sectioned key-value experiment configuration.

The on-disk grammar is INI-style: ``[section]`` headers, one ``key =
value`` pair per line, ``#``/``;`` comments, UTF-8.  The sections are
the fields of :class:`RunConfig` (``conservative``, ``dissipative``,
``superstat``, ``inference`` and ``io``).  Each section's keys, their
value types and its required keys (the fields without a default) are
read from the section dataclass itself, so a new field is a new key.
Unknown sections or keys are hard errors, so a typo cannot silently
fall back to a default.  ``emit_config`` writes the fully resolved
document (defaults materialized, keys in field order), and
``parse_config(emit_config(cfg)) == cfg`` holds for every valid
configuration.
"""
from __future__ import annotations

import configparser
import io as _io
import math
import typing
from dataclasses import MISSING, dataclass, fields, replace
from typing import Callable

from . import rng as rngmod
from .conservative import ConservativeConfig, _count
from .dissipative import DEFAULT_BINS, DissipativeConfig
from .errors import ConfigError
from .inference import GAUSSIAN_KNOWN_MEAN, InvGammaParams, ModelSpec
from .superstat import MixingModel


@dataclass(frozen=True)
class SuperstatConfig:
    """Mixing-model parameters plus generation controls."""

    kind: str = "inverse-gamma"
    alpha: float = 4.0
    beta: float = 4.0
    gamma: float = 1.0
    sigma0: float = 1.0
    n: int = 10000
    tau: int = 1
    seed: int = 0
    slow_mixing: bool = False

    def __post_init__(self):
        for name in ("n", "tau"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        if self.n < 1:
            raise ValueError("n must be >= 1")
        if self.tau < 1:
            raise ValueError("tau must be >= 1")
        object.__setattr__(self, "seed", rngmod.check_seed(self.seed))
        self.model()  # validate the kind and the distribution parameters eagerly

    def model(self) -> MixingModel:
        """The mixing law; it checks and reads the parameters its kind needs."""
        return MixingModel(self.kind, self.alpha, self.beta, self.gamma, self.sigma0)

    def with_seed(self, seed: int) -> "SuperstatConfig":
        return replace(self, seed=seed)


@dataclass(frozen=True)
class InferenceConfig:
    """Prior, known mean, and model-comparison settings.

    ``models`` lists likelihood kinds; ``model_priors``,
    ``model_alphas`` and ``model_betas`` run parallel to it.  The section
    builds the model specs its commands run, and those check their values.
    """

    mu: float = 0.0
    prior_alpha: float = 3.0
    prior_beta: float = 2.0
    models: tuple[str, ...] = ("gaussian-known-mean", "exponential")
    model_priors: tuple[float, ...] = (0.5, 0.5)
    model_alphas: tuple[float, ...] = (3.0, 3.0)
    model_betas: tuple[float, ...] = (2.0, 2.0)
    rel_tol: float = ModelSpec.rel_tol

    def __post_init__(self):
        if len(self.models) == 0:
            raise ValueError("at least one model is required")
        k = len(self.models)
        for name in ("model_priors", "model_alphas", "model_betas"):
            if len(getattr(self, name)) != k:
                raise ValueError(f"{name} must have one entry per model ({k})")
        if any(p < 0 for p in self.model_priors):
            raise ValueError("model_priors must be nonnegative")
        if abs(sum(self.model_priors) - 1.0) > 1e-9:
            raise ValueError("model_priors must sum to 1")
        self.fit_model()
        self.compared_models()

    def _spec(self, kind: str, alpha: float, beta: float) -> ModelSpec:
        prior = InvGammaParams(alpha, beta)
        return ModelSpec(id=kind, likelihood_kind=kind, prior=prior, rel_tol=self.rel_tol)

    def fit_model(self) -> ModelSpec:
        """The Gaussian known-mean model of ``prior_alpha``/``prior_beta``."""
        return self._spec(GAUSSIAN_KNOWN_MEAN, self.prior_alpha, self.prior_beta)

    def compared_models(self) -> list[ModelSpec]:
        """One model per ``models`` entry, in order, each with its kind as id."""
        return [self._spec(*m) for m in zip(self.models, self.model_alphas, self.model_betas)]


@dataclass(frozen=True)
class IoConfig:
    """File-facing knobs: input path and emission controls.

    ``histogram_every = 0`` emits only the final-step histogram;
    a positive value emits every that-many steps plus the final step.
    """

    input: str = ""
    write_microstates: bool = True
    histogram_bins: int = DEFAULT_BINS
    histogram_every: int = 0

    def __post_init__(self):
        for name in ("histogram_bins", "histogram_every"):
            object.__setattr__(self, name, _count(name, getattr(self, name)))
        if self.histogram_bins < 1:
            raise ValueError("histogram_bins must be >= 1")
        if self.histogram_every < 0:
            raise ValueError("histogram_every must be >= 0")


@dataclass(frozen=True)
class RunConfig:
    """Parsed configuration document; absent sections stay None."""

    conservative: ConservativeConfig | None = None
    dissipative: DissipativeConfig | None = None
    superstat: SuperstatConfig | None = None
    inference: InferenceConfig | None = None
    io: IoConfig | None = None


def _parse_bool(text: str) -> bool:
    t = text.strip().lower()
    if t == "true":
        return True
    if t == "false":
        return False
    raise ValueError(f"expected true or false, got {text!r}")


def _parse_float(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


_NONE = type(None)
_SCALAR_PARSERS = {int: int, float: _parse_float, bool: _parse_bool, str: str.strip}


def _unwrap_optional(hint):
    """``X`` for an ``X | None`` annotation, else ``hint`` itself."""
    args = typing.get_args(hint)
    if _NONE not in args:
        return hint
    (inner,) = (a for a in args if a is not _NONE)
    return inner


def _value_parser(hint) -> Callable[[str], object]:
    """Text-to-value parser for a field annotated ``hint``; _format_value
    is its inverse.  An ``X | None`` key parses as ``X``; leaving it out
    keeps the None default."""
    hint = _unwrap_optional(hint)
    if typing.get_origin(hint) is tuple:
        # comma-separated items; the section checks a fixed length itself
        item = _value_parser(typing.get_args(hint)[0])
        return lambda text: tuple(item(part) for part in text.split(","))
    return _SCALAR_PARSERS[hint]


def _schema(section_type) -> dict[str, Callable[[str], object]]:
    """Key -> value parser for every field of a section dataclass."""
    hints = typing.get_type_hints(section_type)
    return {f.name: _value_parser(hints[f.name]) for f in fields(section_type)}


# section name -> section dataclass, in RunConfig field order
_SECTIONS = {
    name: _unwrap_optional(hint) for name, hint in typing.get_type_hints(RunConfig).items()
}
_SCHEMAS = {name: _schema(section_type) for name, section_type in _SECTIONS.items()}


def parse_config(text: str) -> RunConfig:
    """Parse and validate a configuration document.

    Raises :class:`ConfigError` on syntax errors, unknown sections or
    keys, missing required keys, unparseable values, or values that
    violate a section's invariants.
    """
    cp = configparser.ConfigParser(
        interpolation=None,
        strict=True,
        comment_prefixes=("#", ";"),
        inline_comment_prefixes=None,
        default_section="",
    )
    cp.optionxform = str  # keys are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax error: {exc}") from exc
    sections: dict[str, object] = {}
    for name in cp.sections():
        if name not in _SECTIONS:
            raise ConfigError(
                f"unknown section [{name}]; expected one of {sorted(_SECTIONS)}"
            )
        section_type, schema = _SECTIONS[name], _SCHEMAS[name]
        values: dict[str, object] = {}
        for key, raw in cp.items(name):
            if key not in schema:
                raise ConfigError(f"unknown key {key!r} in section [{name}]")
            try:
                values[key] = schema[key](raw)
            except ValueError as exc:
                raise ConfigError(f"bad value for [{name}] {key} = {raw!r}: {exc}") from exc
        for f in fields(section_type):
            if f.default is MISSING and f.default_factory is MISSING and f.name not in values:
                raise ConfigError(f"section [{name}] requires key {f.name!r}")
        try:
            sections[name] = section_type(**values)
        except ValueError as exc:
            raise ConfigError(f"invalid [{name}] configuration: {exc}") from exc
    return RunConfig(**sections)


def _format_value(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, str)):
        return str(value)
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, tuple):
        return ",".join(_format_value(v) for v in value)
    raise TypeError(f"cannot format config value {value!r}")


def emit_config(config: RunConfig) -> str:
    """Render the document in canonical form (all keys, field order).

    The output parses back to an equal RunConfig: floats are written
    with repr so round-tripping is exact.
    """
    out = _io.StringIO()
    for name in _SECTIONS:
        section = getattr(config, name)
        if section is None:
            continue
        out.write(f"[{name}]\n")
        for f in fields(section):
            value = getattr(section, f.name)
            if value is None:
                continue  # unset optional; absence round-trips to None
            out.write(f"{f.name} = {_format_value(value)}\n")
        out.write("\n")
    return out.getvalue()
