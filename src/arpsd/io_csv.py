"""CSV formats: recordings, annotations, detection reports, PSD dumps.

All files are UTF-8 text.  Lines starting with ``#`` are comments; every
file the package writes begins with a ``#``-prefixed echo of the
producing parameters.  Recording files may carry their sample rate in a
``# fs=<hz>`` comment.  Parse errors always name the offending 1-based
line number.
"""

import io
import itertools
import json
from pathlib import Path
from typing import Iterable, Mapping, Sequence

import numpy as np

from . import __version__
from .core import Recording, TimeSeries
from .detection import DetectionReport

__all__ = [
    "read_recording_csv",
    "write_recording_csv",
    "read_annotations",
    "write_annotations",
    "write_detection_report_csv",
    "read_prediction_csv",
    "read_report_errors",
    "write_psd_csv",
    "echo_lines",
]


def echo_lines(tool: str, parameters: Mapping[str, object] | None = None) -> list[str]:
    """Comment lines identifying the producing tool, version, and parameters."""
    lines = [f"# arpsd {tool} v{__version__}"]
    if parameters:
        body = " ".join(f"{key}={value}" for key, value in parameters.items())
        lines.append(f"# {body}")
    return lines


def _fmt(value: float) -> str:
    """Shortest decimal string that round-trips the float exactly."""
    return repr(float(value))


def _check_names(names: Iterable[str]) -> None:
    """Raise a ValueError naming the first of ``names`` that the readers
    could not read back: they break lines where ``str.splitlines`` does,
    take a line that starts with ``#`` for a comment, split cells at commas
    and strip them, and refuse an empty name; and files are UTF-8."""
    for name in names:
        fault = (
            "it is empty" if not name
            else "it has leading or trailing whitespace" if name != name.strip()
            else "it starts with '#'" if name.startswith("#")
            else "it contains a comma" if "," in name
            else "it contains a line break" if name.splitlines() != [name]
            else "UTF-8 cannot encode it" if any("\ud800" <= c <= "\udfff" for c in name)
            else None
        )
        if fault:
            raise ValueError(f"cannot write channel name {name!r} to CSV: {fault}")


def _split_lines(text: str):
    """Yield (line_number, content) for non-blank lines, 1-based."""
    for number, raw in enumerate(text.splitlines(), start=1):
        if raw.strip():
            yield number, raw


def _parse_fs_comment(content: str, number: int) -> float | None:
    body = content.lstrip("#").strip()
    if not body.lower().startswith("fs="):
        return None
    try:
        fs = float(body[3:])
    except ValueError:
        raise ValueError(f"line {number}: cannot parse sample rate {body[3:]!r}") from None
    if not 0.0 < fs < np.inf:
        raise ValueError(f"line {number}: sample rate must be positive and finite")
    return fs


def read_recording_csv(path, default_sample_rate_hz: float = 128.0) -> Recording:
    """Load a multichannel recording.

    The first non-comment line is a header of derivation names; each
    following line holds one sample per channel.  A ``# fs=<hz>``
    comment overrides ``default_sample_rate_hz``.

    Raises
    ------
    ValueError
        On duplicate header names, ragged rows, non-numeric or non-finite
        cells, or a bad sample rate, naming the offending line; or when
        the file has no header or no data row.
    """
    text = Path(path).read_text(encoding="utf-8")
    sample_rate = default_sample_rate_hz
    header: list[str] | None = None
    columns: list[list[float]] = []
    for number, raw in _split_lines(text):
        content = raw.strip()
        if content.startswith("#"):
            fs = _parse_fs_comment(content, number)
            if fs is not None:
                sample_rate = fs
            continue
        cells = [cell.strip() for cell in content.split(",")]
        if header is None:
            if any(not cell for cell in cells):
                raise ValueError(f"line {number}: empty derivation name in header")
            duplicates = {c for c in cells if cells.count(c) > 1}
            if duplicates:
                raise ValueError(
                    f"line {number}: duplicate derivation name(s): "
                    + ", ".join(sorted(duplicates))
                )
            header = cells
            columns = [[] for _ in header]
            continue
        if len(cells) != len(header):
            raise ValueError(
                f"line {number}: row has {len(cells)} cells, expected {len(header)}"
            )
        for cell, column in zip(cells, columns):
            try:
                column.append(float(cell))
            except ValueError:
                raise ValueError(f"line {number}: non-numeric cell {cell!r}") from None
    if header is None:
        raise ValueError("no header row found")
    if not columns[0]:
        raise ValueError("no data rows found")
    samples = [np.array(column) for column in columns]
    bad = [
        (int(np.argmin(finite)), channel)
        for channel, finite in enumerate(np.isfinite(column) for column in samples)
        if not finite.all()
    ]
    if bad:
        raise ValueError(_non_finite_cell(text, *min(bad), header))
    return Recording({
        name: TimeSeries.adopt(column, sample_rate) for name, column in zip(header, samples)
    })


def _non_finite_cell(text: str, row: int, channel: int, header: list[str]) -> str:
    """The message for the non-finite cell of data row ``row`` (0-based)
    in column ``channel``, naming its line.  Only called on failure, so
    the reader does no per-cell work to find it."""
    data = (
        (number, raw) for number, raw in _split_lines(text) if not raw.strip().startswith("#")
    )
    next(data)  # the header
    number, raw = next(itertools.islice(data, row, None))
    cell = raw.strip().split(",")[channel].strip()
    return f"line {number}: non-finite cell {cell!r} in channel {header[channel]}"


def write_recording_csv(path, recording: Recording, extra_comments: Sequence[str] = ()) -> None:
    """Write a recording in the format read_recording_csv parses.

    Sample values use the shortest exact decimal representation, so a
    write/read round trip reproduces every float bit for bit.  A channel
    name that the reader could not read back raises a ValueError that
    names it, before anything is written.
    """
    _check_names(recording.names)
    out = io.StringIO()
    for line in echo_lines("recording"):
        out.write(line + "\n")
    for comment in extra_comments:
        out.write(f"# {comment}\n")
    out.write(f"# fs={_fmt(recording.sample_rate_hz)}\n")
    out.write(",".join(recording.names) + "\n")
    matrix = np.column_stack([recording[name].samples for name in recording.names])
    for row in matrix:
        out.write(",".join(_fmt(v) for v in row) + "\n")
    Path(path).write_text(out.getvalue(), encoding="utf-8")


def read_annotations(path) -> dict[str, bool]:
    """Load ground-truth labels from a ``derivation,label`` CSV.

    Labels must be 0 or 1.  Comment lines are allowed; a file with only
    the header yields an empty map.
    """
    text = Path(path).read_text(encoding="utf-8")
    header_seen = False
    labels: dict[str, bool] = {}
    for number, raw in _split_lines(text):
        content = raw.strip()
        if content.startswith("#"):
            continue
        cells = [cell.strip() for cell in content.split(",")]
        if not header_seen:
            if [c.lower() for c in cells] != ["derivation", "label"]:
                raise ValueError(f'line {number}: expected header "derivation,label"')
            header_seen = True
            continue
        if len(cells) != 2:
            raise ValueError(f"line {number}: expected 2 cells, got {len(cells)}")
        name, label = cells
        if label not in ("0", "1"):
            raise ValueError(f"line {number}: label must be 0 or 1, got {label!r}")
        if name in labels:
            raise ValueError(f"line {number}: duplicate derivation {name!r}")
        labels[name] = label == "1"
    if not header_seen:
        raise ValueError("no header row found")
    return labels


def write_annotations(path, labels: Mapping[str, bool], parameters: Mapping[str, object] | None = None) -> None:
    """Write labels in the format read_annotations parses, refusing a
    name it could not read back as write_recording_csv does."""
    _check_names(labels)
    out = io.StringIO()
    for line in echo_lines("annotations", parameters):
        out.write(line + "\n")
    out.write("derivation,label\n")
    for name, label in labels.items():
        out.write(f"{name},{1 if label else 0}\n")
    Path(path).write_text(out.getvalue(), encoding="utf-8")


# Prefix of the comment line that records one channel's error in a report.
_ERROR_PREFIX = "# error: "


def _error_line(name: str, message: str) -> str:
    """``# error: <name>: <message>``, with a name that holds ": " or
    starts with a double quote written as a JSON string literal."""
    if ": " in name or name.startswith('"'):
        name = json.dumps(name)
    return f"{_ERROR_PREFIX}{name}: {message}"


def _error_entry(text: str) -> tuple[str, str]:
    """``(name, message)`` of an error line after its prefix; the name is
    empty when there is no ": " to end it.  A leading JSON string literal
    followed by ": " is the name; any other line splits at its first
    ": ", as lines without a literal have always been read."""
    if text.startswith('"'):
        try:
            name, end = json.JSONDecoder().raw_decode(text)
        except ValueError:
            pass
        else:
            if text.startswith(": ", end):
                return name, text[end + 2 :]
    name, sep, message = text.partition(": ")
    return (name if sep else ""), message


def write_detection_report_csv(path, report: DetectionReport) -> None:
    """Write per-channel decisions with the parameter echo header.

    Channels that failed to fit are recorded as ``# error: <name>:
    <message>`` comment lines so they remain visible without breaking the
    column layout.  A name that contains ": " or starts with a double quote
    is written as a JSON string literal, so that :func:`read_report_errors`
    reads it back whole.  A channel name, errored or not, that the readers
    could not read back from a decision row is refused first, as by
    write_recording_csv.
    """
    _check_names([*report.errors, *(decision.derivation for decision in report.per_channel)])
    out = io.StringIO()
    for line in echo_lines("detect", report.parameters):
        out.write(line + "\n")
    for name, message in report.errors.items():
        out.write(_error_line(name, message) + "\n")
    out.write("derivation,flagged,dominant_band,low_band_fraction,survivor_fraction\n")
    for decision in report.per_channel:
        out.write(
            ",".join(
                (
                    decision.derivation,
                    "1" if decision.flagged else "0",
                    decision.dominant_band,
                    _fmt(decision.low_band_fraction),
                    _fmt(decision.survivor_fraction),
                )
            )
            + "\n"
        )
    Path(path).write_text(out.getvalue(), encoding="utf-8")


def read_prediction_csv(path) -> dict[str, bool]:
    """Read the flagged column of a detection report back into a map."""
    text = Path(path).read_text(encoding="utf-8")
    header: list[str] | None = None
    flags: dict[str, bool] = {}
    for number, raw in _split_lines(text):
        content = raw.strip()
        if content.startswith("#"):
            continue
        cells = [cell.strip() for cell in content.split(",")]
        if header is None:
            header = [c.lower() for c in cells]
            if "derivation" not in header or "flagged" not in header:
                raise ValueError(
                    f"line {number}: header must contain derivation and flagged columns"
                )
            continue
        if len(cells) != len(header):
            raise ValueError(f"line {number}: row has {len(cells)} cells, expected {len(header)}")
        name = cells[header.index("derivation")]
        flag = cells[header.index("flagged")]
        if flag not in ("0", "1"):
            raise ValueError(f"line {number}: flagged must be 0 or 1, got {flag!r}")
        if name in flags:
            raise ValueError(f"line {number}: duplicate derivation {name!r}")
        flags[name] = flag == "1"
    if header is None:
        raise ValueError("no header row found")
    return flags


def read_report_errors(path) -> dict[str, str]:
    """Read the channels a detection report lists as errors, with their messages.

    These are the ``# error: <name>: <message>`` comment lines that
    :func:`write_detection_report_csv` writes, in file order.  A name
    written as a JSON string literal is decoded; any other name ends at
    the line's first ": ".
    """
    errors: dict[str, str] = {}
    for number, raw in _split_lines(Path(path).read_text(encoding="utf-8")):
        if raw.startswith(_ERROR_PREFIX):
            name, message = _error_entry(raw[len(_ERROR_PREFIX):])
            if not name:
                raise ValueError(f"line {number}: error line names no channel")
            errors[name] = message
    return errors


def read_burst_specs(path) -> list:
    """Load burst definitions for the simulator.

    Header ``channel,center_hz,pole_radius`` with an optional ``gain``
    column; a file with only the header means no bursts.
    """
    from .simulate import BurstSpec

    text = Path(path).read_text(encoding="utf-8")
    header: list[str] | None = None
    bursts: list[BurstSpec] = []
    for number, raw in _split_lines(text):
        content = raw.strip()
        if content.startswith("#"):
            continue
        cells = [cell.strip() for cell in content.split(",")]
        if header is None:
            header = [c.lower() for c in cells]
            if header not in (
                ["channel", "center_hz", "pole_radius"],
                ["channel", "center_hz", "pole_radius", "gain"],
            ):
                raise ValueError(
                    f'line {number}: expected header "channel,center_hz,pole_radius[,gain]"'
                )
            continue
        if len(cells) != len(header):
            raise ValueError(f"line {number}: row has {len(cells)} cells, expected {len(header)}")
        try:
            center = float(cells[1])
            radius = float(cells[2])
            gain = float(cells[3]) if len(cells) == 4 else 1.0
        except ValueError:
            raise ValueError(f"line {number}: non-numeric burst parameter") from None
        try:
            bursts.append(BurstSpec(cells[0], center, radius, gain))
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    if header is None:
        raise ValueError("no header row found")
    return bursts


def write_psd_csv(path, masked, parameters: Mapping[str, object] | None = None) -> None:
    """Write one channel's PSD and masked PSD as freq_hz,psd,psd_masked."""
    out = io.StringIO()
    for line in echo_lines("psd", parameters):
        out.write(line + "\n")
    out.write("freq_hz,psd,psd_masked\n")
    for freq, value, kept in zip(masked.freqs_hz, masked.base.values, masked.values):
        out.write(f"{_fmt(freq)},{_fmt(value)},{_fmt(kept)}\n")
    Path(path).write_text(out.getvalue(), encoding="utf-8")
