"""JSON encodings shared by the CLI and report writers.

Complex matrices travel as row-major arrays of [re, im] pairs with an explicit
shape, which is lossless and language-neutral.  Reports are serialized with
sorted keys so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .errors import ConfigError
from .freeprod import FreeElement, Letter


def matrix_to_json(mat: np.ndarray) -> dict:
    arr = np.asarray(mat, dtype=complex)
    data = [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]
    return {"shape": list(arr.shape), "data": data}


def _malformed(pointer: str, message: str, what: str = "matrix") -> ConfigError:
    return ConfigError(f"malformed {what}", [(pointer, message)])


def is_number(v, kind=(int, float)) -> bool:
    """True for an instance of ``kind`` that is not a bool (Python counts bools as ints)."""
    return isinstance(v, kind) and not isinstance(v, bool)


def is_finite_real(v) -> bool:
    """True for an int or float, not a bool, that converts to a finite float."""
    try:
        return is_number(v) and math.isfinite(v)
    except OverflowError:  # an integer beyond float range
        return False


def _is_pair(v) -> bool:
    """True for a [re, im] list of two finite reals."""
    return isinstance(v, list) and len(v) == 2 and all(map(is_finite_real, v))


def matrix_from_json(obj, pointer: str = "") -> np.ndarray:
    """Matrix from {shape, data}; a malformed object raises ConfigError with a pointer."""
    if not isinstance(obj, dict) or "shape" not in obj or not isinstance(obj.get("data"), list):
        raise _malformed(pointer, "expected {shape, data}")
    shape, data = obj["shape"], obj["data"]
    if not isinstance(shape, list) or not all(is_number(s, int) and s >= 0 for s in shape):
        raise _malformed(
            pointer + "/shape", f"expected a list of nonnegative integers, got {shape!r}"
        )
    if len(data) != math.prod(shape):
        raise _malformed(pointer + "/data", f"expected {math.prod(shape)} entries, got {len(data)}")
    for k, entry in enumerate(data):
        if not _is_pair(entry):
            raise _malformed(f"{pointer}/data/{k}", f"expected [re, im], got {entry!r}")
    return np.array([complex(re, im) for re, im in data], dtype=complex).reshape(shape)


def _expect(obj, kind: type, pointer: str):
    """obj itself when it is a dict (kind=dict) or list (kind=list), else a ConfigError."""
    if not isinstance(obj, kind):
        what = "an object" if kind is dict else "a list"
        raise _malformed(pointer, f"expected {what}", "probe file")
    return obj


def free_element_from_json(obj, pointer: str = "") -> FreeElement:
    raw_terms = _expect(obj, dict, pointer).get("terms", [])
    terms = []
    for i, term in enumerate(_expect(raw_terms, list, f"{pointer}/terms")):
        at_term = f"{pointer}/terms/{i}"
        coeff = _expect(term, dict, at_term).get("coeff", [1.0, 0.0])
        if not _is_pair(coeff):
            raise _malformed(at_term + "/coeff", f"expected [re, im], got {coeff!r}", "probe file")
        word = []
        for j, letter in enumerate(_expect(term.get("word", []), list, at_term + "/word")):
            at = f"{at_term}/word/{j}"
            side = _expect(letter, dict, at).get("side")
            if isinstance(side, bool) or side not in (1, 2):
                raise _malformed(at + "/side", f"expected 1 or 2, got {side!r}", "probe file")
            if word and word[-1].side == side:
                message = f"consecutive letters must alternate sides, got {side} after {side}"
                raise _malformed(at + "/side", message, "probe file")
            word.append(Letter(int(side), matrix_from_json(letter.get("value"), at + "/value")))
        terms.append((complex(coeff[0], coeff[1]), tuple(word)))
    return FreeElement(tuple(terms))


def load_probe_file(path: str) -> list[FreeElement]:
    with open(path, encoding="utf-8") as fh:
        obj = json.load(fh)
    elements = obj.get("elements") if isinstance(obj, dict) else obj
    return [
        free_element_from_json(el, f"/elements/{i}")
        for i, el in enumerate(_expect(elements, list, "/elements"))
    ]


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"
