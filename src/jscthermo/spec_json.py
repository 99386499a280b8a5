"""JSON specs (schema/systemspec.json) read into spec objects, on three
rules: a block is a JSON object, named in errors by its dotted path; a number
is a finite JSON number, never a boolean or a string, save "inf" (a forbidden
transition) in `channel.hamiltonian` and `mac.channel3`; and a spec type's
ValueError or TypeError becomes a SpecError naming the block it came from.
"""

from __future__ import annotations

import json
import math
import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

import numpy as np

from .errors import SpecError
from .models import (ChannelSpec, EnsembleSpec, SourceSpec, SystemSpec, energy_from_crossover,
                     field_from_bias, source_shannon_entropy)

if TYPE_CHECKING:   # applications loads the oracle; only its readers import it
    from .applications import MacSpec, WiretapSpec


def _member(obj: dict, key: str, context: str = ""):
    """obj[key] and its dotted path; SpecError naming the path if absent."""
    path = f"{context}.{key}" if context else key
    if key not in obj:
        raise SpecError(path, "missing")
    return obj[key], path


def _block(obj: dict, key: str, context: str = ""):
    """The JSON object at obj[key] and its dotted path."""
    block, path = _member(obj, key, context)
    if not isinstance(block, dict):
        raise SpecError(path, "expected an object")
    return block, path


def _top(obj) -> dict:
    if not isinstance(obj, dict):
        raise SpecError("spec", "top level must be an object")
    return obj


def _number(value, path: str, inf_ok: bool = False) -> float:
    """A finite JSON number as a float; the string "inf" too where inf_ok."""
    if inf_ok and value == "inf":
        return math.inf
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise SpecError(path, "expected a number")
    if not abs(value) <= sys.float_info.max:   # NaN, infinities, ints past any double
        raise SpecError(path, "expected a finite number")
    return float(value)


def _numbers(value, path: str, ndim: int, inf_ok: bool = False) -> np.ndarray:
    """JSON arrays of numbers nested ndim deep as a float array whose finite
    entries differ by at most the largest double; spec types check the shape."""
    def read(node, depth):
        if depth == ndim:
            return _number(node, path, inf_ok)
        if not isinstance(node, list):
            raise SpecError(path, f"expected a {ndim}-d array of numbers")
        return [read(item, depth + 1) for item in node]

    with _checked(path):   # numpy refuses ragged rows
        array = np.array(read(value, 0), dtype=float)
    finite = array[np.isfinite(array)]
    if finite.size and not float(finite.max()) - float(finite.min()) <= sys.float_info.max:
        raise SpecError(path, "numbers must differ by at most the largest double")
    return array


@contextmanager
def _checked(path: str):
    """Re-raise a spec type's ValueError or TypeError as SpecError(path)."""
    try:
        yield
    except SpecError:
        raise
    except (ValueError, TypeError) as exc:
        raise SpecError(path, str(exc)) from exc


# explicit block: spec type and energy ndim; short form: key, parameter and
# energies from (parameter, kT).  Source symbols (0, 1) carry spin (-1, +1).
_FORMS = {
    "source": (SourceSpec, 1, "binary_source", "q",
               lambda q, k_t: np.array([1.0, -1.0]) * field_from_bias(q, k_t)),
    "channel": (ChannelSpec, 2, "bsc", "p",
                lambda p, k_t: np.array([[0.0, 1.0], [1.0, 0.0]]) * energy_from_crossover(p, k_t)),
}


def _boltzmann(kind: str, obj: dict, context: str = "", suffix: str = ""):
    """The source or channel of obj: an explicit {hamiltonian, beta} block, or
    the short form, whose parameter in (0, 1) maps to energies at beta = 1/kT.
    A suffix names a MAC's second user."""
    spec_type, ndim, short, param, short_energies = _FORMS[kind]
    if short + suffix in obj and kind + suffix not in obj:
        block, path = _block(obj, short + suffix, context)
        x = _number(*_member(block, param, path))
        k_t = _number(block.get("kT", 1.0), f"{path}.kT")
        if not 0.0 < x < 1.0:
            raise SpecError(f"{path}.{param}", "must lie in (0, 1)")
        with _checked(path):
            energies = short_energies(x, k_t)
        beta = 1.0 / k_t
    else:
        block, path = _block(obj, kind + suffix, context)
        energies = _numbers(*_member(block, "hamiltonian", path), ndim, inf_ok=kind == "channel")
        beta = _number(*_member(block, "beta", path))
    with _checked(path):
        return spec_type(energies, beta)


def _ensemble(obj: dict, key: str, context: str, size: int) -> EnsembleSpec:
    """The coding law at obj[key], uniform over size letters if absent."""
    if key not in obj:
        return EnsembleSpec(np.full(size, 1.0 / size))
    block, path = _block(obj, key, context)
    with _checked(f"{path}.m"):
        return EnsembleSpec(_numbers(*_member(block, "m", path), 1))


def _lambda(obj: dict, context: str = "") -> Fraction:
    """Channel uses per source symbol, a fraction of positive integers."""
    block, path = _block(obj, "lambda", context)
    parts = []
    for key in ("num", "den"):
        value, part_path = _member(block, key, path)
        if _number(value, part_path) < 1 or not isinstance(value, int):
            raise SpecError(part_path, "expected a positive integer")
        parts.append(value)
    return Fraction(*parts)


def system_from_dict(obj: dict) -> SystemSpec:
    """Build a SystemSpec from the JSON schema (see schema/systemspec.json)."""
    source = _boltzmann("source", _top(obj))
    channel = _boltzmann("channel", obj)
    ensemble = _ensemble(obj, "ensemble", "", channel.in_size)
    lam = _lambda(obj)
    with _checked("system"):
        return SystemSpec(source, channel, ensemble, lam)


def wiretap_from_dict(obj: dict) -> WiretapSpec:
    """The WiretapSpec of a spec's `wiretap` block."""
    from .applications import WiretapSpec

    block, path = _block(_top(obj), "wiretap")
    main = _boltzmann("channel", *_block(block, "main", path))
    tap = _boltzmann("channel", *_block(block, "tap", path))
    lam = _lambda(block, path)
    if "source_entropy" in block:
        h = _number(*_member(block, "source_entropy", path))
        if h < 0:
            raise SpecError(f"{path}.source_entropy", "expected a nonnegative number")
    else:   # or the source whose entropy it is
        h = source_shannon_entropy(_boltzmann("source", block, path))
    with _checked(path):
        return WiretapSpec(main, tap, lam, h)


def eavesdropper_from_dict(obj: dict, wiretap: WiretapSpec) -> Optional[SystemSpec]:
    """The code against the wiretap's cascade channel described by the
    `wiretap.eavesdropper` block, or None without one."""
    block, wiretap_path = _block(_top(obj), "wiretap")
    if "eavesdropper" not in block:
        return None
    eaves, path = _block(block, "eavesdropper", wiretap_path)
    extra = sorted(set(eaves) - {"source", "binary_source", "ensemble"})
    if extra:   # the cascade fixes the channel and the wiretap fixes lambda
        raise SpecError(f"{path}.{extra[0]}", "the eavesdropper block takes only "
                        "source, binary_source and ensemble")
    source = _boltzmann("source", eaves, path)
    with _checked(path):
        channel = ChannelSpec.from_transition(wiretap.cascade().transition_matrix(), source.beta)
        ensemble = _ensemble(eaves, "ensemble", path, channel.in_size)
        return SystemSpec(source, channel, ensemble, wiretap.lam)


def mac_from_dict(obj: dict) -> MacSpec:
    """The MacSpec of a spec's `mac` block; keys ending in _t are user T's."""
    from .applications import MacChannelSpec, MacSpec

    block, path = _block(_top(obj), "mac")
    source_s = _boltzmann("source", block, path)
    source_t = _boltzmann("source", block, path, suffix="_t")
    energies = _numbers(*_member(block, "channel3", path), 3, inf_ok=True)
    beta = _number(block.get("beta", source_s.beta), f"{path}.beta")
    with _checked(f"{path}.channel3"):
        channel = MacChannelSpec(energies, beta)
    ks, kt, _ = channel.shape
    ens_s = _ensemble(block, "ensemble", path, ks)
    ens_t = _ensemble(block, "ensemble_t", path, kt)
    lam = _lambda(block, path)
    with _checked(path):
        return MacSpec(source_s, source_t, ens_s, ens_t, channel, lam)


def load_spec(path: str):
    """The JSON value in the file at path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise SpecError("spec", f"cannot read {path}: {exc}") from exc
    except ValueError as exc:   # not JSON, or not UTF-8
        raise SpecError("json", str(exc)) from exc
