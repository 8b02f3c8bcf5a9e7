"""Value-change-dump export and scalar import for waveform sets.

Rational switch times are scaled by L, the lcm of every breakpoint
denominator and the horizon's, so all VCD timestamps are integers; L is
recorded in a ``$comment``.  A set in ticks 1/k (``WaveformSet.timebase``,
as the CLI's ``simulate`` writes it) is written from its ints: with g
the gcd of k and every tick, L is k/g and a stamp is a tick over g; a
set in time is first scaled to ticks of the lcm.  Import reads L and the
stamps as ints, builds each net in ticks 1/L and scales it to time once.
The initial dump at #0 carries the values at 0-0; a net that switches at
time 0 gets a second change at timestamp 0 after the dump section.  VCD
orders values within a timestamp, so point values at switch instants
survive the round trip for signals (right-continuous by definition);
step functions that are not signals are not exportable.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .stepfn import (StepFunction, _EXPONENT_LIMIT, _decimal, _read_fraction, _to_ticks,
                     format_time)
from .circuit import WaveformSet

_ID_CHARS = [chr(c) for c in range(33, 127)]


def _ident(i: int) -> str:
    out = ""
    i += 1
    while i > 0:
        i, r = divmod(i - 1, len(_ID_CHARS))
        out = _ID_CHARS[r] + out
    return out


def export_vcd(w: WaveformSet) -> str:
    """Serialize a waveform set; every signal must be a signal proper."""
    for name, sig in w.signals.items():
        if not sig.is_signal():
            raise ValueError(f"net {name!r} is not exportable to VCD "
                             "(not right-continuous or switches before 0)")
    k = w.timebase
    if k is None:  # a set in time: to ticks over the lcm of its denominators
        k = lcm(w.horizon.denominator,
                *(b.denominator for sig in w.signals.values() for b in sig.bps))
        w = WaveformSet({name: sig._to_ticks(k) for name, sig in w.signals.items()},
                        _to_ticks(w.horizon, k), k)
    # the lcm of the denominators of every t/k, reduced, is k // step
    step = gcd(k, w.horizon, *(t for sig in w.signals.values() for t in sig.bps))
    names = list(w.signals)
    ids = {name: _ident(i) for i, name in enumerate(names)}
    lines = [
        "$comment sigdelay scale lcm=%s horizon=%s $end"
        % (_decimal(k // step), format_time(w.horizon, k)),
        "$timescale 1 s $end",
        "$scope module top $end",
    ]
    for name in names:
        lines.append(f"$var wire 1 {ids[name]} {name} $end")
    lines.append("$upscope $end")
    lines.append("$enddefinitions $end")
    lines.append("#0")
    lines.append("$dumpvars")
    for name in names:
        lines.append(f"{w.signals[name].leading}{ids[name]}")
    lines.append("$end")
    events: dict[int, list[str]] = {}
    for name in names:
        sig = w.signals[name]
        marks = ("0" + ids[name], "1" + ids[name])
        for t, v in zip(sig.bps, sig.at):
            events.setdefault(t // step, []).append(marks[v])
    stamps = sorted(events)
    try:
        texts = list(map(str, stamps))
    except ValueError:  # a stamp of more than 4,300 digits, which str refuses
        texts = list(map(_decimal, stamps))
    for stamp, text in zip(stamps, texts):
        lines.append("#" + text)
        lines.extend(events[stamp])
    return "\n".join(lines) + "\n"


def _whole(digits: str, tok: str, lineno: int) -> int:
    """The int of decimal digits, -1 for other text; refuses what CPython won't read."""
    if len(digits) > _EXPONENT_LIMIT and digits.isdecimal():
        raise ValueError(f"line {lineno}: {tok!r} has more than {_EXPONENT_LIMIT} digits")
    return int(digits) if digits.isdecimal() else -1


def import_vcd(text: str) -> WaveformSet:
    """Parse scalar VCD produced by export_vcd back into a waveform set."""
    scale = 1
    horizon: Fraction | None = None
    names: dict[str, str] = {}  # id -> net name
    initial: dict[str, int] = {}
    changes: dict[str, list[tuple[int, int]]] = {}  # net -> (stamp, bit), in ticks 1/scale
    now = last = 0
    in_dump = False
    seen_defs = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line:
            continue
        if line.startswith("$comment"):
            for tok in line.split():
                if tok.startswith("lcm="):
                    scale = _whole(tok[4:], tok, lineno)
                    if scale <= 0:
                        raise ValueError(f"line {lineno}: scale {tok!r} is not a positive integer")
                elif tok.startswith("horizon="):
                    try:
                        horizon = _read_fraction(tok[8:])
                    except (ValueError, ZeroDivisionError):
                        horizon = Fraction(-1)
                    if horizon < 0:
                        raise ValueError(f"line {lineno}: bad horizon {tok!r}")
            continue
        if line.startswith("$var"):
            parts = line.split()
            if len(parts) < 6 or parts[1] != "wire" or parts[2] != "1":
                raise ValueError(f"line {lineno}: only scalar wires are supported")
            if parts[4] in changes:
                raise ValueError(f"line {lineno}: net {parts[4]!r} is declared twice")
            names[parts[3]] = parts[4]
            changes[parts[4]] = []
            continue
        if line.startswith("$enddefinitions"):
            seen_defs = True
            continue
        if line.startswith("$dumpvars"):
            in_dump = True
            continue
        if line.startswith("$end"):
            in_dump = False
            continue
        if line.startswith("$"):
            continue
        if line.startswith("#"):
            stamp = _whole(line[1:], line, lineno)
            if stamp < now:
                raise ValueError(f"line {lineno}: timestamp {line!r} is not a whole "
                                 "number at or after the one before")
            now = stamp
            continue
        if line[0] in "01":
            if not seen_defs:
                raise ValueError(f"line {lineno}: value change before definitions")
            bit, ident = int(line[0]), line[1:]
            if ident not in names:
                raise ValueError(f"line {lineno}: unknown identifier {ident!r}")
            net = names[ident]
            if in_dump:
                initial[net] = bit
            else:
                changes[net].append((now, bit))
                last = now
            continue
        if line[0] in "bBrR":
            raise ValueError(f"line {lineno}: vector and real values are not supported")
        raise ValueError(f"line {lineno}: unrecognized VCD line {line!r}")
    signals = {}
    for net in names.values():
        if net not in initial:
            raise ValueError(f"no initial dump for net {net!r}")
        toggles, v = [], initial[net]  # toggles from 0, strictly increasing: a signal
        for t, bit in changes[net]:
            if bit != v:
                if toggles and toggles[-1] == t:
                    raise ValueError(f"net {net!r} makes a zero-width pulse at #{t}")
                toggles.append(t)
                v = bit
        signals[net] = StepFunction._from_toggles(initial[net], toggles)._to_time(scale)
    return WaveformSet(signals, Fraction(last, scale) if horizon is None else horizon)
