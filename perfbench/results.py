"""Results files and the diff printed against the previous one."""

from __future__ import annotations

import json
import os


def load(path) -> dict | None:
    try:
        with open(path) as fh:
            return json.load(fh)
    except FileNotFoundError:
        return None


def save(path, doc: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w") as fh:
        json.dump(doc, fh, indent=1, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def diff_lines(previous: dict, current: dict) -> list[str]:
    """One line per metric of ``current``: value, previous value, ratio.

    Both arguments map a metric name to ``{"value": v, "unit": u}``. Every
    ratio is given with its base, the previous value.
    """
    lines = []
    for name, cur in current.items():
        prev = previous.get(name)
        if prev is None:
            lines.append(f"  {name}: {cur['value']:.6g} {cur['unit']} (no previous value)")
        elif prev["value"] == 0:
            lines.append(f"  {name}: {cur['value']:.6g} {cur['unit']}, previous 0:"
                         " ratio undefined")
        else:
            lines.append(f"  {name}: {cur['value']:.6g} {cur['unit']}, ratio "
                         f"{cur['value'] / prev['value']:.4f} over base "
                         f"{prev['value']:.6g} {prev['unit']}")
    return lines
