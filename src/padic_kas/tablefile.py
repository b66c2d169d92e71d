"""Table files: a cylinder function as a JSON table of all its values.

:func:`.superposition.load_table_json` imports this module, and with it
:mod:`json`, when it reads its first table.
"""

import gc
import json
import os
from itertools import chain, islice

from .core import parse_padic
from .errors import TableFormatError
from .superposition import PADIC, REAL, CylinderFunction

# Rows checked per bulk pass; a pass that finds a fault is walked row by row.
_BLOCK = 1024


def read_table(path: str) -> CylinderFunction:
    """Read a cylinder-function table file.

    Expected shape::

        {"p": 2, "n": 2, "K": 1, "codomain": "real",
         "entries": [{"x": [[0], [0]], "value": 0.0}, ...]}

    Digit lists are little-endian lists of JSON integers; p-adic values use
    the textual form ``p:K:d0,...``.  The table must be total over all
    p**(n*K) keys.  Its keys reach :meth:`CylinderFunction.from_table` as
    exact digit tuples and its real values as read, so the checks there are
    the ones that apply.  A fault in a row is a TableFormatError naming the
    path and the row's index; header faults and missing entries name no row.

    The cyclic garbage collector is paused, for the whole process, while the
    file is read: reading makes no reference cycles, and on a large table
    the collector would take a third of ``json.load``.  The caller's
    collector state is restored however the read ends.
    """
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _read(path)
    finally:
        if enabled:
            gc.enable()


def _read(path):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except json.JSONDecodeError as exc:
        raise TableFormatError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    except RecursionError:
        raise TableFormatError(f"{path}: JSON nests too deeply") from None
    except UnicodeDecodeError as exc:
        raise TableFormatError(f"{path}: {exc}") from None
    except ValueError:  # an integer over sys.get_int_max_str_digits() digits
        raise TableFormatError(f"{path}: an integer literal has too many digits") from None

    if not isinstance(raw, dict):
        raise TableFormatError(f"{path}: top level must be a JSON object")
    for fld in ("p", "n", "K", "codomain", "entries"):
        if fld not in raw:
            raise TableFormatError(f"{path}: missing field {fld!r}")
    p, n, K, codomain, rows = raw["p"], raw["n"], raw["K"], raw["codomain"], raw["entries"]
    if codomain not in (REAL, PADIC):
        raise TableFormatError(f"{path}: codomain must be 'real' or 'padic', got {codomain!r}")
    if not isinstance(rows, list):
        raise TableFormatError(f"{path}: 'entries' must be a list")

    entries = {}
    for start in range(0, len(rows), _BLOCK):
        block = rows[start : start + _BLOCK]
        kept = len(entries)
        if _add_rows(entries, block, n, codomain):
            # Walk the block one row at a time, from the entries before it,
            # to name the first row at fault.
            entries = dict(islice(entries.items(), kept))
            for idx, row in enumerate(block, start):
                if fault := _add_rows(entries, [row], n, codomain):
                    raise TableFormatError(f"{path}: entry {idx} {fault}")
    try:
        return CylinderFunction.from_table(
            p, n, K, codomain, entries, name=os.path.basename(path)
        )
    except TableFormatError as exc:
        row = f"entry {exc.entry} " if hasattr(exc, "entry") else ""  # entries are in row order
        raise TableFormatError(f"{path}: {row}{exc}") from None


def _add_rows(entries, rows, n, codomain):
    """Add rows to entries, key -> value; return the first rule they break, if any.

    Each rule is one C-level pass over all the rows, and the rules run in
    the order in which a row's faults are named, so for a single row the
    result is that row's own fault.
    """
    try:
        xs = [row["x"] for row in rows]
        vals = [row["value"] for row in rows]
    except (KeyError, TypeError):
        return "needs fields 'x' and 'value'"
    if not (set(map(type, xs)) <= {list} and list(map(len, xs)) == [n] * len(xs)):
        return f"field 'x' must list {n} coordinates"
    coords = list(chain.from_iterable(xs))
    if not set(map(type, coords)) <= {list}:
        return "field 'x' has a coordinate that is not a list"
    if not set(map(type, chain.from_iterable(coords))) <= {int}:
        return "field 'x' has non-integer digits"
    keys = [tuple(map(tuple, x)) for x in xs]
    size = len(entries) + len(rows)
    entries.update(zip(keys, vals))
    if len(entries) < size:
        return f"duplicates key {xs[-1]}"
    if codomain == REAL:
        if not set(map(type, vals)) <= {int, float}:
            return "field 'value' must be a number"
    elif not set(map(type, vals)) <= {str}:
        return "field 'value' must be a p-adic literal string"
    else:
        try:
            entries.update(zip(keys, map(parse_padic, vals)))
        except ValueError as exc:
            return f"field 'value': {exc}"
    return None
