"""JSON and CSV encodings shared by the CLI and report writers.

Complex matrices travel as row-major arrays of [re, im] pairs with an explicit
shape, which is lossless and language-neutral.  Reports are serialized with
sorted keys so identical inputs produce byte-identical files.
"""

from __future__ import annotations

import csv
import io
import json

import numpy as np

from .errors import ConfigError
from .freeprod import FreeElement, Letter


def matrix_to_json(mat: np.ndarray) -> dict:
    arr = np.asarray(mat, dtype=complex)
    data = [[float(z.real), float(z.imag)] for z in arr.reshape(-1)]
    return {"shape": list(arr.shape), "data": data}


def matrix_from_json(obj, pointer: str = "") -> np.ndarray:
    if not isinstance(obj, dict) or "shape" not in obj or "data" not in obj:
        raise ConfigError(
            "matrix objects need 'shape' and 'data'",
            [(pointer, "expected {shape, data}")],
        )
    shape = tuple(int(s) for s in obj["shape"])
    expected = 1
    for s in shape:
        expected *= s
    data = obj["data"]
    if len(data) != expected:
        raise ConfigError(
            "matrix data length does not match shape",
            [(pointer + "/data", f"expected {expected} entries, got {len(data)}")],
        )
    values = [complex(re, im) for re, im in data]
    return np.array(values, dtype=complex).reshape(shape)


def free_element_to_json(x: FreeElement) -> dict:
    return {
        "terms": [
            {
                "coeff": [float(c.real), float(c.imag)],
                "word": [
                    {"side": letter.side, "value": matrix_to_json(letter.value)}
                    for letter in word
                ],
            }
            for c, word in x.terms
        ]
    }


def _expect(obj, kind: type, pointer: str):
    """obj itself when it is a dict (kind=dict) or list (kind=list), else a ConfigError."""
    if not isinstance(obj, kind):
        what = "an object" if kind is dict else "a list"
        raise ConfigError("malformed probe file", [(pointer, f"expected {what}")])
    return obj


def _is_real(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def free_element_from_json(obj, pointer: str = "") -> FreeElement:
    raw_terms = _expect(obj, dict, pointer).get("terms", [])
    terms = []
    for i, term in enumerate(_expect(raw_terms, list, f"{pointer}/terms")):
        at_term = f"{pointer}/terms/{i}"
        coeff = _expect(term, dict, at_term).get("coeff", [1.0, 0.0])
        if not (isinstance(coeff, list) and len(coeff) == 2 and all(map(_is_real, coeff))):
            raise ConfigError(
                "probe coefficient must be a [re, im] pair",
                [(at_term + "/coeff", f"expected [re, im], got {coeff!r}")],
            )
        word = []
        for j, letter in enumerate(_expect(term.get("word", []), list, at_term + "/word")):
            at = f"{at_term}/word/{j}"
            side = _expect(letter, dict, at).get("side")
            if isinstance(side, bool) or side not in (1, 2):
                raise ConfigError(
                    "probe letter needs a side of 1 or 2",
                    [(at + "/side", f"expected 1 or 2, got {side!r}")],
                )
            word.append(Letter(int(side), matrix_from_json(letter.get("value"), at + "/value")))
        terms.append((complex(coeff[0], coeff[1]), tuple(word)))
    return FreeElement(tuple(terms))


def load_probe_file(path: str) -> list[FreeElement]:
    with open(path) as fh:
        obj = json.load(fh)
    elements = obj.get("elements") if isinstance(obj, dict) else obj
    return [
        free_element_from_json(el, f"/elements/{i}")
        for i, el in enumerate(_expect(elements, list, "/elements"))
    ]


def canonical_json(obj) -> str:
    """Deterministic JSON text: sorted keys, fixed separators, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def stats_csv(rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["sample", "intersection_dim"])
    for index, dim in rows:
        writer.writerow([index, dim])
    return buf.getvalue()
