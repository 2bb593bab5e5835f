"""CSV formats: recordings, annotations, detection reports, burst specs,
PSD dumps.

All files are UTF-8 text, read through one line walker (:func:`_walk`):
blank lines are skipped, lines starting with ``#`` are comments, cells are
split at commas and stripped, the first other line is the header, and
every row must have as many cells as the header.  Recording files may
carry their sample rate in a ``# fs=<hz>`` comment, and reports list
failed channels in ``# error:`` comments.  Every file the package writes
begins with a ``#``-prefixed echo of the producing parameters.  One name
rule (:func:`_check_names`) refuses a channel name that would not read
back, in writers and readers alike.  Parse errors always name the
offending 1-based line number.
"""

import io
import itertools
import json
from pathlib import Path
from typing import Callable, Iterable, Mapping, Sequence

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


def _has_break(text: str) -> bool:
    """Whether ``str.splitlines``, which the readers use, breaks ``text``."""
    return "".join(text.splitlines()) != text


def _check_names(names: Iterable[str], where: str, kind: str = "channel") -> None:
    """Raise ``ValueError("<where>: ...")`` naming the first of ``names``
    that the readers could not read back: they break lines where
    ``str.splitlines`` does, take a line that starts with ``#`` for a
    comment, split cells at commas and strip them, and refuse an empty
    name; and files are UTF-8.  Writers and readers alike apply it."""
    for name in names:
        subject = f"{kind} name {name!r}"
        fault = (
            f"empty {subject}" if not name
            else f"{subject} has leading or trailing whitespace" if name != name.strip()
            else f"{subject} starts with '#'" if name.startswith("#")
            else f"{subject} contains a comma" if "," in name
            else f"{subject} contains a line break" if _has_break(name)
            else f"UTF-8 cannot encode {subject}" if any("\ud800" <= c <= "\udfff" for c in name)
            else None
        )
        if fault:
            raise ValueError(f"{where}: {fault}")


def _walk(path, comment: Callable[[int, str], None] | None = None):
    """Yield ``(line_number, cells)`` for each data line of the UTF-8 file
    at ``path``, 1-based.

    Blank lines are skipped.  A line that starts with ``#`` is a comment,
    passed whole to ``comment(line_number, line)`` when that is given.  A
    data line's cells are split at commas and stripped; the first data line
    is the header, and a later one with another number of cells raises a
    line-numbered ValueError.
    """
    width = None
    for number, raw in enumerate(Path(path).read_text(encoding="utf-8").splitlines(), start=1):
        content = raw.strip()
        if content.startswith("#"):
            if comment is not None:
                comment(number, raw)
        elif content:
            cells = [cell.strip() for cell in content.split(",")]
            if width is None:
                width = len(cells)
            elif len(cells) != width:
                raise ValueError(f"line {number}: row has {len(cells)} cells, expected {width}")
            yield number, cells


def _table(path, comment: Callable[[int, str], None] | None = None):
    """``(line_number, header, rows)`` of the file at ``path`` through
    :func:`_walk`, where ``rows`` yields the data lines after the header;
    a ValueError when there is no header."""
    rows = _walk(path, comment)
    for number, header in rows:
        return number, header, rows
    raise ValueError("no header row found")


def _write(path, names: Iterable[str], comments: Sequence[str], header: str, rows: Iterable[str]) -> None:
    """Write ``comments``, ``header`` and ``rows`` as the lines of a UTF-8
    file, after refusing, before anything is written, a channel name in
    ``names`` that the readers could not read back, and a comment that
    holds a line break, whose second line the readers would take for
    data."""
    _check_names(names, "cannot write to CSV")
    for line in comments:
        if _has_break(line):
            raise ValueError(f"cannot write to CSV: comment {line!r} contains a line break")
    out = io.StringIO()
    for line in itertools.chain(comments, (header,), rows):
        out.write(line + "\n")
    Path(path).write_text(out.getvalue(), encoding="utf-8")


def read_recording_csv(path, default_sample_rate_hz: float = 128.0) -> Recording:
    """Load a multichannel recording.

    The first non-comment line is a header of derivation names; each
    following line holds one sample per channel.  A ``# fs=<hz>``
    comment overrides ``default_sample_rate_hz``.

    Raises
    ------
    ValueError
        On header names that are duplicated or that no writer could write,
        ragged rows, non-numeric or non-finite cells, or a bad sample rate,
        naming the offending line; or when the file has no header or no
        data row.
    """
    sample_rate = default_sample_rate_hz

    def fs_comment(number: int, raw: str) -> None:
        nonlocal sample_rate
        body = raw.strip().lstrip("#").strip()
        if not body.lower().startswith("fs="):
            return
        try:
            sample_rate = float(body[3:])
        except ValueError:
            raise ValueError(f"line {number}: cannot parse sample rate {body[3:]!r}") from None
        if not 0.0 < sample_rate < np.inf:
            raise ValueError(f"line {number}: sample rate must be positive and finite")

    number, header, rows = _table(path, fs_comment)
    _check_names(header, f"line {number}", "derivation")
    duplicates = {c for c in header if header.count(c) > 1}
    if duplicates:
        raise ValueError(f"line {number}: duplicate derivation name(s): " + ", ".join(sorted(duplicates)))
    columns: list[list[float]] = [[] for _ in header]
    for number, cells in rows:
        for cell, column in zip(cells, columns):
            try:
                column.append(float(cell))
            except ValueError:
                raise ValueError(f"line {number}: non-numeric cell {cell!r}") from None
    if not columns[0]:
        raise ValueError("no data rows found")
    samples = [np.array(column) for column in columns]
    bad = [
        (int(np.argmin(finite)), channel)
        for channel, finite in enumerate(np.isfinite(column) for column in samples)
        if not finite.all()
    ]
    if bad:
        raise ValueError(_non_finite_cell(path, *min(bad), header))
    return Recording({
        name: TimeSeries.adopt(column, sample_rate) for name, column in zip(header, samples)
    })


def _non_finite_cell(path, row: int, channel: int, header: list[str]) -> str:
    """The message for the non-finite cell of data row ``row`` (0-based)
    in column ``channel``, naming its line.  Only called on failure, so
    the reader does no per-cell work to find it."""
    number, cells = next(itertools.islice(_walk(path), row + 1, None))
    return f"line {number}: non-finite cell {cells[channel]!r} in channel {header[channel]}"


def write_recording_csv(path, recording: Recording, extra_comments: Sequence[str] = ()) -> None:
    """Write a recording in the format read_recording_csv parses.

    Sample values use the shortest exact decimal representation, so a
    write/read round trip reproduces every float bit for bit.  A channel
    name that the reader could not read back raises a ValueError that
    names it, before anything is written.
    """
    matrix = np.column_stack([recording[name].samples for name in recording.names])
    _write(
        path, recording.names,
        [*echo_lines("recording"), *(f"# {comment}" for comment in extra_comments),
         f"# fs={_fmt(recording.sample_rate_hz)}"],
        ",".join(recording.names),
        (",".join(_fmt(v) for v in row) for row in matrix),
    )


def read_annotations(path) -> dict[str, bool]:
    """Load ground-truth labels from a ``derivation,label`` CSV.

    Labels must be 0 or 1.  Comment lines are allowed; a file with only
    the header yields an empty map.
    """
    number, header, rows = _table(path)
    if [c.lower() for c in header] != ["derivation", "label"]:
        raise ValueError(f'line {number}: expected header "derivation,label"')
    labels: dict[str, bool] = {}
    for number, (name, label) in rows:
        _check_names([name], f"line {number}", "derivation")
        if label not in ("0", "1"):
            raise ValueError(f"line {number}: label must be 0 or 1, got {label!r}")
        if name in labels:
            raise ValueError(f"line {number}: duplicate derivation {name!r}")
        labels[name] = label == "1"
    return labels


def write_annotations(path, labels: Mapping[str, bool], parameters: Mapping[str, object] | None = None) -> None:
    """Write labels in the format read_annotations parses, refusing a
    name it could not read back as write_recording_csv does."""
    _write(path, labels, echo_lines("annotations", parameters), "derivation,label",
           (f"{name},{1 if label else 0}" for name, label in labels.items()))


# Prefix of the comment line that records one channel's error in a report.
_ERROR_PREFIX = "# error: "


def _error_line(name: str, message: str) -> str:
    """``# error: <name>: <message>``, with a name that holds ": " or
    starts with a double quote, and a message that holds a line break or
    starts with a double quote, written as JSON string literals."""
    if ": " in name or name.startswith('"'):
        name = json.dumps(name)
    if _has_break(message) or message.startswith('"'):
        message = json.dumps(message)
    return f"{_ERROR_PREFIX}{name}: {message}"


def _literal(text: str) -> tuple[str, int] | None:
    """The JSON string literal that ``text`` starts with, and its end."""
    if text.startswith('"'):
        try:
            return json.JSONDecoder().raw_decode(text)
        except ValueError:
            pass
    return None


def _error_entry(text: str) -> tuple[str, str]:
    """``(name, message)`` of an error line after its prefix; the name is
    empty when there is no ": " to end it.  A leading JSON string literal
    followed by ": " is the name; any other line splits at its first
    ": ", as lines without a literal have always been read.  A message that
    is one JSON string literal is decoded."""
    literal = _literal(text)
    if literal and text.startswith(": ", literal[1]):
        name, message = literal[0], text[literal[1] + 2 :]
    else:
        name, sep, message = text.partition(": ")
        name = name if sep else ""
    literal = _literal(message)
    return name, literal[0] if literal and literal[1] == len(message) else message


def write_detection_report_csv(path, report: DetectionReport) -> None:
    """Write per-channel decisions with the parameter echo header.

    Channels that failed to fit are recorded as ``# error: <name>:
    <message>`` comment lines so they remain visible without breaking the
    column layout.  A name that contains ": " or starts with a double
    quote, and a message that holds a line break or starts with a double
    quote, are written as JSON string literals, so that
    :func:`read_report_errors` reads them back whole.  A channel name,
    errored or not, that the readers could not read back from a decision
    row is refused first, as by write_recording_csv.
    """
    _write(
        path, [*report.errors, *(decision.derivation for decision in report.per_channel)],
        [*echo_lines("detect", report.parameters),
         *(_error_line(name, message) for name, message in report.errors.items())],
        "derivation,flagged,dominant_band,low_band_fraction,survivor_fraction",
        (
            ",".join((d.derivation, "1" if d.flagged else "0", d.dominant_band,
                      _fmt(d.low_band_fraction), _fmt(d.survivor_fraction)))
            for d in report.per_channel
        ),
    )


def read_prediction_csv(path) -> dict[str, bool]:
    """Read the flagged column of a detection report back into a map."""
    number, header, rows = _table(path)
    header = [c.lower() for c in header]
    if "derivation" not in header or "flagged" not in header:
        raise ValueError(f"line {number}: header must contain derivation and flagged columns")
    flags: dict[str, bool] = {}
    for number, cells in rows:
        name = cells[header.index("derivation")]
        flag = cells[header.index("flagged")]
        _check_names([name], f"line {number}", "derivation")
        if flag not in ("0", "1"):
            raise ValueError(f"line {number}: flagged must be 0 or 1, got {flag!r}")
        if name in flags:
            raise ValueError(f"line {number}: duplicate derivation {name!r}")
        flags[name] = flag == "1"
    return flags


def read_report_errors(path) -> dict[str, str]:
    """Read the channels a detection report lists as errors, with their messages.

    These are the ``# error: <name>: <message>`` comment lines that
    :func:`write_detection_report_csv` writes, in file order.  A name
    written as a JSON string literal is decoded; any other name ends at
    the line's first ": ".  A message written as a JSON string literal is
    decoded too.
    """
    errors: dict[str, str] = {}

    def error_comment(number: int, raw: str) -> None:
        if raw.startswith(_ERROR_PREFIX):
            name, message = _error_entry(raw[len(_ERROR_PREFIX):])
            if not name:
                raise ValueError(f"line {number}: error line names no channel")
            errors[name] = message

    for _ in _walk(path, error_comment):
        pass
    return errors


def read_burst_specs(path) -> list:
    """Load burst definitions for the simulator.

    Header ``channel,center_hz,pole_radius`` with an optional ``gain``
    column; a file with only the header means no bursts.  A channel may
    carry one burst.
    """
    from .simulate import BurstSpec

    number, header, rows = _table(path)
    if [c.lower() for c in header] not in (
        ["channel", "center_hz", "pole_radius"],
        ["channel", "center_hz", "pole_radius", "gain"],
    ):
        raise ValueError(f'line {number}: expected header "channel,center_hz,pole_radius[,gain]"')
    bursts: dict[str, BurstSpec] = {}
    for number, (channel, *values) in rows:
        _check_names([channel], f"line {number}")
        if channel in bursts:
            raise ValueError(f"line {number}: duplicate burst channel {channel!r}")
        try:
            numbers = [float(value) for value in values]
        except ValueError:
            raise ValueError(f"line {number}: non-numeric burst parameter") from None
        try:
            bursts[channel] = BurstSpec(channel, *numbers)
        except ValueError as exc:
            raise ValueError(f"line {number}: {exc}") from None
    return list(bursts.values())


def write_psd_csv(path, masked, parameters: Mapping[str, object] | None = None) -> None:
    """Write one channel's PSD and masked PSD as freq_hz,psd,psd_masked."""
    _write(
        path, (), echo_lines("psd", parameters), "freq_hz,psd,psd_masked",
        (f"{_fmt(freq)},{_fmt(value)},{_fmt(kept)}"
         for freq, value, kept in zip(masked.freqs_hz, masked.base.values, masked.values)),
    )
