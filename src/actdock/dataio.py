"""On-disk formats: episode NDJSON, numeric CSV columns, heatmap CSV, PGM.

Floats are serialized with Python's shortest round-trip repr (json's default),
so every value reads back bit-exactly at full double precision. All formats
carry a format_version.
"""

from __future__ import annotations

import json

import numpy as np

from .dynamics import Action, ChaserState
from .evaluate import Episode, StepRecord

EPISODE_FORMAT_VERSION = 1


class ParseError(ValueError):
    """Malformed file; message names the offending line."""

    def __init__(self, path, line: int, message: str):
        super().__init__(f"{path}: line {line}: {message}")
        self.line = line


def write_episodes(path, episodes: list[Episode]) -> None:
    """One JSON object per line: header, then per episode its step records in
    order followed by a summary line."""
    with open(path, "w", encoding="utf-8") as f:
        f.write(json.dumps({"format_version": EPISODE_FORMAT_VERSION,
                            "kind": "episodes"}) + "\n")
        for ep in episodes:
            for t, rec in enumerate(ep.records):
                f.write(json.dumps({
                    "episode": ep.episode_id,
                    "t": t,
                    "dt": rec.dt,
                    "state": rec.state.vector().tolist(),
                    "action": rec.action.vector().tolist(),
                }) + "\n")
            f.write(json.dumps({
                "episode": ep.episode_id,
                "summary": {
                    "steps": ep.steps,
                    "r_k": ep.r_k,
                    "v_k": ep.v_k,
                    "final_state": ep.final_state.vector().tolist(),
                    "seed": ep.seed,
                    "policy": ep.policy,
                    "failed": ep.failed,
                    "diagnostic": ep.diagnostic,
                },
            }) + "\n")


def read_episodes(path) -> list[Episode]:
    episodes: list[Episode] = []
    current_id = None
    current_records: list[StepRecord] = []
    expected_t = 0
    lineno = 0
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as err:
                raise ParseError(path, lineno, f"invalid JSON ({err.msg})") from None
            if lineno == 1:
                if obj.get("kind") != "episodes":
                    raise ParseError(path, 1, f"expected an episodes header, got {obj!r}")
                if obj.get("format_version") != EPISODE_FORMAT_VERSION:
                    raise ParseError(
                        path, 1, f"unsupported format_version {obj.get('format_version')!r}"
                    )
                continue
            if "episode" not in obj:
                raise ParseError(path, lineno, "record missing 'episode' field")
            ep_id = obj["episode"]
            if "summary" in obj:
                if ep_id != current_id:
                    raise ParseError(path, lineno, f"summary for episode {ep_id} out of order")
                s = obj["summary"]
                try:
                    final_state = ChaserState.from_vector(np.array(s["final_state"]))
                    ep = Episode(
                        episode_id=ep_id,
                        seed=int(s["seed"]),
                        policy=str(s["policy"]),
                        records=current_records,
                        final_state=final_state,
                        failed=bool(s.get("failed", False)),
                        diagnostic=str(s.get("diagnostic", "")),
                    )
                except (KeyError, ValueError) as err:
                    raise ParseError(path, lineno, f"bad summary: {err}") from None
                if s["steps"] != ep.steps:
                    raise ParseError(
                        path, lineno,
                        f"summary says {s['steps']} steps, found {ep.steps}",
                    )
                episodes.append(ep)
                current_id = None
                current_records = []
                expected_t = 0
                continue
            # step record
            if current_id is None:
                current_id = ep_id
                expected_t = 0
            if ep_id != current_id:
                raise ParseError(
                    path, lineno,
                    f"episode {ep_id} interleaved with unfinished episode {current_id}",
                )
            if obj.get("t") != expected_t:
                raise ParseError(
                    path, lineno, f"expected step t={expected_t}, got {obj.get('t')!r}"
                )
            try:
                rec = StepRecord(
                    state=ChaserState.from_vector(np.array(obj["state"])),
                    action=Action.from_vector(np.array(obj["action"])),
                    dt=float(obj["dt"]),
                )
            except (KeyError, ValueError) as err:
                raise ParseError(path, lineno, f"bad step record: {err}") from None
            current_records.append(rec)
            expected_t += 1
    if lineno == 0:
        raise ParseError(path, 1, "empty file")
    if current_id is not None:
        raise ParseError(path, lineno, f"episode {current_id} has no summary line")
    return episodes


# --- numeric CSV ---


def write_column(path, values, header: str | None = None) -> None:
    """One float per line, lossless repr."""
    with open(path, "w", encoding="utf-8") as f:
        if header:
            f.write(header + "\n")
        for v in np.asarray(values, dtype=np.float64):
            f.write(f"{float(v)!r}\n")


def read_column(path) -> np.ndarray:
    values = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            s = line.strip()
            if not s:
                continue
            if lineno == 1:
                try:
                    values.append(float(s))
                    continue
                except ValueError:
                    continue  # header line
            try:
                values.append(float(s))
            except ValueError:
                raise ParseError(path, lineno, f"not a number: {s!r}") from None
    if not values:
        raise ParseError(path, 1, "no numeric rows")
    return np.array(values)


def write_heatmap_csv(path, grid: np.ndarray) -> None:
    """Integer visit counts, one grid row per CSV line."""
    grid = np.asarray(grid)
    with open(path, "w", encoding="utf-8") as f:
        for row in grid:
            f.write(",".join(str(int(c)) for c in row) + "\n")


def read_heatmap_csv(path) -> np.ndarray:
    rows = []
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            s = line.strip()
            if not s:
                continue
            try:
                rows.append([int(c) for c in s.split(",")])
            except ValueError:
                raise ParseError(path, lineno, f"not an integer row: {s!r}") from None
    if not rows:
        raise ParseError(path, 1, "no rows")
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ParseError(path, 1, f"ragged rows, widths {sorted(widths)}")
    return np.array(rows, dtype=np.int64)


# --- PGM image dump ---


def save_pgm(path, image: np.ndarray) -> None:
    """Binary 8-bit PGM from a [0, 1] float image."""
    img = np.asarray(image, dtype=np.float64)
    if img.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {img.shape}")
    levels = np.clip(np.round(img * 255.0), 0, 255).astype(np.uint8)
    h, w = img.shape
    with open(path, "wb") as f:
        f.write(f"P5\n{w} {h}\n255\n".encode("ascii"))
        f.write(levels.tobytes(order="C"))
